// Simulated network: machines, links, and stream sockets.
//
// The paper's server evaluation (Fig. 5, Table 2) runs a benchmark client on a
// separate machine connected by a gigabit link whose latency is varied with netem
// (~0.1 ms worst case, 2 ms realistic, 5 ms for cross-MVEE comparison). Higher
// latencies hide server-side MVEE overhead — a queueing effect this module
// reproduces: messages experience serialization delay (bytes / bandwidth) on the
// link plus one-way propagation latency, and closed-loop clients therefore spend
// most of their cycle waiting on the network rather than on the (slightly slower)
// replicated server.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/vfs/file.h"

namespace remon {

class StreamSocket;

// A network endpoint address: (machine, port).
struct SockAddr {
  uint32_t machine = 0;
  uint16_t port = 0;

  bool operator<(const SockAddr& o) const {
    return machine != o.machine ? machine < o.machine : port < o.port;
  }
  bool operator==(const SockAddr& o) const {
    return machine == o.machine && port == o.port;
  }
};

// Point-to-point link parameters.
struct LinkParams {
  DurationNs latency_ns = 60 * kMicrosecond;  // One-way propagation.
  double bytes_per_ns = 0.125;                // 1 Gbit/s.
};

class Network {
 public:
  explicit Network(Simulator* sim) : sim_(sim) {}

  // Machines are small integers; 0 is conventionally "the server machine".
  uint32_t AddMachine(std::string name);
  const std::string& MachineName(uint32_t id) const { return machines_.at(id); }
  uint32_t machine_count() const { return static_cast<uint32_t>(machines_.size()); }

  // Sets parameters for traffic between two distinct machines (both directions).
  void SetLink(uint32_t a, uint32_t b, LinkParams params);

  std::shared_ptr<StreamSocket> CreateStream(uint32_t machine);

  // --- Virtual endpoints (L4 load balancing) ------------------------------------
  //
  // A virtual endpoint is an address with no listener of its own: a connect aimed
  // at it is resolved through the bound router *before the SYN leaves*, and the
  // stream is then established directly to the backend the router picked (the
  // direct-server-return shape — reply traffic never crosses a middlebox). The
  // client still observes the virtual address as its peer, like DNAT. Routers must
  // be deterministic in (connect order, client address) — the fleet's transcripts
  // are replayed byte-for-byte across reruns.
  using VirtualRouter =
      std::function<SockAddr(const SockAddr& vip, const SockAddr& client)>;
  void BindVirtual(const SockAddr& vip, VirtualRouter router);
  void UnbindVirtual(const SockAddr& vip);
  // Resolves `dst` if a router is bound there; returns false (out untouched) when
  // `dst` is a plain address. A router returning `dst` itself means "no backend":
  // the connect then fails like any unserved address.
  bool ResolveVirtual(const SockAddr& dst, const SockAddr& client, SockAddr* out) const;

  // --- Internal plumbing used by StreamSocket -----------------------------------

  Simulator* sim() const { return sim_; }

  int BindListener(const SockAddr& addr, StreamSocket* listener);
  void UnbindListener(const SockAddr& addr, StreamSocket* listener);
  StreamSocket* FindListener(const SockAddr& addr) const;

  // Computes the arrival time of a message of `bytes` sent now from `src` to `dst`,
  // accounting for link serialization (the link is busy while transmitting).
  TimeNs DeliveryTime(uint32_t src, uint32_t dst, uint64_t bytes);

  // Allocates an ephemeral port on `machine`.
  uint16_t AllocEphemeralPort(uint32_t machine);

 private:
  struct LinkState {
    LinkParams params;
    TimeNs busy_until = 0;
  };

  LinkState& LinkFor(uint32_t a, uint32_t b);

  Simulator* sim_;
  std::vector<std::string> machines_;
  std::map<std::pair<uint32_t, uint32_t>, LinkState> links_;
  LinkParams loopback_{kMicrosecond, 10.0};
  LinkState loopback_state_;
  std::map<SockAddr, StreamSocket*> listeners_;
  std::map<SockAddr, VirtualRouter> virtuals_;
  std::map<uint32_t, uint16_t> next_ephemeral_;
};

// A TCP-like reliable, in-order byte-stream socket.
class StreamSocket : public File, public std::enable_shared_from_this<StreamSocket> {
 public:
  enum class State { kCreated, kListening, kConnecting, kConnected, kClosed };

  StreamSocket(Network* net, uint32_t machine) : net_(net), machine_(machine) {}
  ~StreamSocket() override;

  FdType type() const override { return FdType::kSocket; }

  // --- Socket API (non-blocking primitives; the kernel layers blocking on top) --

  int Bind(uint16_t port);
  int Listen(int backlog);
  // Initiates a connection; completion is asynchronous (poll for kPollOut).
  int ConnectTo(const SockAddr& peer);
  // Dequeues one established connection, or nullptr when none pending.
  std::shared_ptr<StreamSocket> TryAccept();

  int64_t Read(void* buf, uint64_t len, uint64_t offset) override;
  uint64_t ReadableBytes(uint64_t offset) const override { return rx_.size(); }
  int64_t Write(const void* buf, uint64_t len, uint64_t offset) override;
  uint32_t Poll() const override;
  void OnDescriptionClosed(int acc_mode) override;

  int Shutdown(int how);

  State state() const { return state_; }
  const SockAddr& local() const { return local_; }
  const SockAddr& remote() const { return remote_; }
  bool connect_failed() const { return connect_failed_; }
  uint64_t rx_buffered() const { return rx_.size(); }
  // Bytes written here that the peer has not read yet: in flight on the link plus
  // buffered in the peer's receive queue. Writers see -EAGAIN once it reaches
  // kWindowBytes, and kPollOut fires again when a peer read brings it below.
  uint64_t unread_by_peer() const;

  // Receive-window size: writers see -EAGAIN once this much data is buffered or in
  // flight toward the peer.
  static constexpr uint64_t kWindowBytes = 256 * 1024;

 private:
  friend class Network;

  void DeliverBytes(const std::vector<uint8_t>& data);
  void DeliverFin();
  void DeliverConnected(std::shared_ptr<StreamSocket> peer_sock);

  Network* net_;
  uint32_t machine_;
  State state_ = State::kCreated;
  SockAddr local_;
  SockAddr remote_;
  bool bound_ = false;
  bool connect_failed_ = false;

  // Established-side plumbing.
  std::weak_ptr<StreamSocket> peer_;
  std::deque<uint8_t> rx_;
  uint64_t in_flight_to_peer_ = 0;  // Bytes sent but not yet delivered.
  bool rx_eof_ = false;
  bool tx_shutdown_ = false;

  // Listener plumbing.
  int backlog_ = 0;
  std::deque<std::shared_ptr<StreamSocket>> accept_queue_;

  int open_descriptions_ = 0;
};

}  // namespace remon

#endif  // SRC_NET_NETWORK_H_
