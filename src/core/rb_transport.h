// RB transport: carries the replication stream between machines.
//
// For replica sets that span simulated machines, the leader's IP-MON cannot reach
// remote slaves through shared frames. Instead each remote replica gets a *private
// mirror* of the RB (a machine-local SysV segment; see ShmRegistry::MirrorFor), and
// the replication stream travels as RbWireCodec frames over a StreamSocket pair:
//
//   leader machine                               remote machine
//   ┌────────────────────┐   frames (one per     ┌─────────────────────────┐
//   │ master IP-MON      │   publication)        │ RemoteSyncAgent         │
//   │  └─ RbTransport ───┼──────────────────────▶│  └─ applies entry images│
//   │     (send queue,   │◀──────────────────────┼─     into the RB mirror,│
//   │      bounded by    │   cumulative acks     │      wakes futex waiters│
//   │      the window)   │                       │ slave IP-MON (unchanged)│
//   └────────────────────┘                       └─────────────────────────┘
//
// The slave-side fast path is untouched: a remote slave waits on, checks, and
// consumes RB entries exactly as a leader-local slave does — the agent replays the
// leader's publications into the mirror with the state-word flip last, so the
// transcript is byte-identical across placements.
//
// Multi-threaded replicas additionally need the master's sync-agent log
// (src/core/sync_agent.h): its appends stream as kSyncLog data frames over the
// same connection — one frame per append — and the remote agent
// replays them into the replica's machine-local log mirror with the tail word
// stored last, so BeforeAcquire replay is placement-transparent too.
//
// Backpressure: the stream socket's flow-control window is the only bound. A live
// remote is stalled while its unread bytes — the local send queue plus what the
// socket still holds (in flight, or delivered but not yet read by the agent) —
// reach StreamSocket::kWindowBytes, so per-remote leader memory stays at about
// two windows, and before a link attests at most one window queues locally. While
// any remote is stalled the leader parks on stall_queue() before its next
// publication (IpMon::StallOnTransport) or sync-log append. Acks play no part: a
// stall clears when the agent reads, the window reopens and kPollOut re-pumps the
// link, so the pump latches each remote's stall state and wakes the queue on every
// stalled-to-clear edge.
//
// Remote death: a peer FIN/RST (or an agent Shutdown) marks the remote dead, bumps
// the stream epoch so stale frames of the torn connection cannot be confused with
// a future stream, wakes any stalled leader thread, and reports through the
// on_remote_death callback (wired to GHUMVEE's divergence shutdown) — a lost
// machine ends the run with a report, never a hang. A connect resolves within
// one round trip (accepted, or refused by RST), so an unreachable placement
// surfaces as a refused connect; no watchdog is needed, and a healthy slow link
// is never mistaken for a dead one.
//
// Every slot has one lifecycle: one open path (first join and replacement), one
// retire path (death and migration) and one per-remote enqueue (entry, sync-log
// and checkpoint frames alike). Every link is sealed (src/core/rb_auth.h): each
// frame in both directions carries a MAC and an encrypted payload, and a
// connection carries nothing until the replica's join attestation (identity,
// config digest, placement) verifies.
//
// Replica re-seed: instead of shrinking the set permanently, the front end can
// attach a *replacement* replica at the post-bump epoch (Remon::SpawnReplacement /
// --respawn-on-death). AddReplacement revives the dead remote's slot on a fresh
// connection that carries nothing until EnqueueSnapshot — the only way a
// checkpoint enters a stream — hands it the leader checkpoint
// (kSnapshotBegin/kSnapshotChunk/kSnapshotEnd, src/core/snapshot.h), once the
// replacement's join attestation verifies (on_attested_join). Data frames
// published afterwards queue behind it in order, so the replacement's mirror is
// exactly the leader's RB at every point it observes. Snapshot frames obey the
// same window and cumulative acks as entry frames — a large checkpoint throttles
// the leader's publications instead of ballooning the send queue.
//
// O(delta) re-seed: the transport additionally folds every remote's cumulative
// acks into a per-slot RbDeltaBasis — per rank, the highest entry offset the
// replica provably applied, in the leader's reset generation at send time.
// A replacement for a replica whose basis is still usable gets a checkpoint that
// resumes at those offsets instead of re-shipping the whole RB, which is what
// keeps recovery cost flat as buffers grow.
//
// Respawn-as-migration: DetachForMigration retires a live remote's link through
// the death path minus its side effects (no death counted or reported), so the
// front end can re-attach the same replica on a different machine through the
// ordinary AddReplacement/EnqueueSnapshot join; the join attestation carries the
// placement and the leader verifies it against the machine it commanded.

#ifndef SRC_CORE_RB_TRANSPORT_H_
#define SRC_CORE_RB_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/rb_auth.h"
#include "src/core/rb_wire.h"
#include "src/core/snapshot.h"
#include "src/net/network.h"
#include "src/vfs/wait_queue.h"

namespace remon {

class IpMon;
class Kernel;

// Well-known base port remote sync agents listen on (port = base + replica index).
inline constexpr uint16_t kRbTransportPortBase = 47000;

// Framed bytes waiting for a stream socket's window, with a running byte count
// (the leader's stall rule reads it before every publication) and the partial-write
// offset into the front frame.
class SendQueue {
 public:
  void Push(std::vector<uint8_t> frame) {
    bytes_ += frame.size();
    frames_.push_back(std::move(frame));
  }
  void Clear() {
    frames_.clear();
    head_off_ = 0;
    bytes_ = 0;
  }
  bool empty() const { return frames_.empty(); }
  // Bytes not yet written.
  uint64_t bytes() const { return bytes_; }
  // Writes as much as `sock`'s window accepts. Returns false on a hard write
  // error (peer gone).
  bool DrainInto(StreamSocket* sock);

 private:
  std::deque<std::vector<uint8_t>> frames_;
  size_t head_off_ = 0;
  uint64_t bytes_ = 0;
};

// Leader-side frame pump: one connection per remote replica.
class RbTransport {
 public:
  // Every frame is sealed/verified with `auth`'s per-epoch session keys, and no
  // data flows to a remote until its join attestation presents `config_digest`
  // (RbConfigDigest). Every entry frame records `leader`'s RB reset generation
  // at send. `auth` and `leader` must outlive the transport.
  RbTransport(Kernel* kernel, uint32_t leader_machine, const RbAuthContext& auth,
              uint64_t config_digest, const IpMon* leader);
  ~RbTransport();
  RbTransport(const RbTransport&) = delete;
  RbTransport& operator=(const RbTransport&) = delete;

  // Registers (and starts connecting to) a remote replica's agent.
  void AddRemote(int replica_index, uint32_t machine, uint16_t port);

  // Revives a dead remote's slot as a replacement replica joining at the current
  // (post-bump) epoch: fresh connection, fresh per-connection sequence space, and
  // no data frame until EnqueueSnapshot hands it the leader checkpoint.
  void AddReplacement(int replica_index, uint32_t machine, uint16_t port);

  // The only way a checkpoint enters a stream: enqueues it for a replacement
  // that is waiting for one (data frames published afterwards queue behind it).
  // A no-op when the link died meanwhile, or before the replacement's join
  // attestation verified.
  void EnqueueSnapshot(int replica_index, const SnapshotPayloads& snapshot);

  // Invoked from inside the pump when a replacement's attestation verifies, with
  // the replica index and the sync-log replay cursor it attested. Implementations
  // must defer heavy work (e.g. checkpointing) to a scheduled event.
  void set_on_attested_join(std::function<void(int, uint64_t)> cb) {
    on_attested_join_ = std::move(cb);
  }

  // Broadcasts one publication — one frame — to every live remote. Never blocks:
  // frames queue locally; the window is enforced before the leader's next
  // publication via Stalled()/stall_queue().
  void SendEntries(int rank, const std::vector<RbWireEntry>& entries);

  // Broadcasts sync-agent log records — one kSyncLog frame — to every live
  // remote. Sync frames are ordinary data frames: same sequence space, same
  // window, same cumulative acks as entry frames.
  void SendSyncLog(uint64_t start_index, const std::vector<RbSyncLogRecord>& records);

  // True while any live remote's unread bytes (send queue plus socket) fill the
  // stream window.
  bool Stalled() const;
  // Woken when a stalled remote's window reopens or a remote dies.
  WaitQueue* stall_queue() { return &stall_queue_; }

  // Stream epoch: starts at 1, bumped on every remote death.
  uint32_t epoch() const { return epoch_; }
  int live_remotes() const;
  bool any_remote_dead() const { return deaths_ > 0; }

  // Invoked once per remote death with the replica index (after the epoch bump).
  void set_on_remote_death(std::function<void(int)> cb) { on_remote_death_ = std::move(cb); }

  // True when `replica_index` is served by this transport (its replica is remote).
  bool IsRemote(int replica_index) const;
  // True when `replica_index`'s link is down (or was never served here): the
  // respawn path uses this to tell a migration of a live replica (detach first)
  // from a replacement for a dead one.
  bool RemoteLinkDead(int replica_index) const;
  // Wrap-gate channel: the highest sync-log replay cursor `replica_index` has
  // attested or piggybacked on its acks (0 before any arrived; frozen across death —
  // a dead replica's last acknowledged cursor still gates overwrites until its
  // replacement attests a fresh one).
  uint64_t SyncCursorFor(int replica_index) const;
  // Invoked (with the replica index) whenever an attestation or an ack advances
  // a replay cursor — wired to the master sync agent's wraparound gate.
  void set_on_sync_cursor(std::function<void(int)> cb) { on_sync_cursor_ = std::move(cb); }

  // What the leader knows `replica_index`'s mirror already holds, folded from its
  // cumulative acks: the horizon Remon::MakeReseedPayloads cuts an O(delta)
  // checkpoint against. Survives death on purpose — it describes the mirror the
  // dead replica leaves behind, which is exactly what its replacement resumes
  // from. Invalid (default) for a replica this transport never served.
  RbDeltaBasis DeltaBasisFor(int replica_index) const;

  // Respawn-as-migration: retires a *live* remote's link through the same path
  // as a death (epoch bump, queues cleared; the latched sync cursor and the
  // delta basis survive), except that the leader closes the socket itself, no
  // on_remote_death fires (the caller is the one respawning) and no
  // rb_remote_deaths is counted — the replica is moving, not lost.
  void DetachForMigration(int replica_index);

  // True while a replacement checkpoint is in flight on a live link: enqueued
  // but not yet cumulatively acked through its End frame (the End ack doubles as
  // apply confirmation). GHUMVEE parks the RB reset round on this — a reset
  // between capture and apply rebases every offset in the checkpoint.
  bool SnapshotInflight() const;

 private:
  // Send-time metadata for one unacked entry frame: when the cumulative ack
  // covers frame_seq, the remote provably holds every entry of the frame, so the
  // rank's delta horizon in the send-time reset generation advances to its
  // highest entry offset.
  struct FrameMeta {
    uint64_t frame_seq = 0;
    uint32_t rank = 0;
    uint64_t max_entry_off = 0;
    uint64_t reset_generation = 0;  // IpMon::rb_resets() at send.
  };

  struct Remote {
    int replica_index = -1;
    std::shared_ptr<StreamSocket> sock;
    SendQueue sendq;                         // Framed bytes not yet written.
    // The stall state the last pump left behind: the edge to clear is what wakes
    // stall_queue_ (a peer read can clear a stall without any ack arriving).
    bool stalled = false;
    uint64_t frames_sent = 0;                // Data frames enqueued (frame_seq source).
    uint64_t frames_acked = 0;               // Highest cumulative ack received.
    RbFrameParser parser;                    // For the ack stream.
    uint64_t observer_id = 0;
    bool dead = false;
    // Nothing is written until `attested`; a replacement additionally holds data
    // until its checkpoint is enqueued. max_peer_epoch enforces epoch
    // monotonicity on received frames; sync_cursor latches the attested or
    // ack-piggybacked replay cursor (monotonic max).
    bool attested = false;
    bool awaiting_snapshot = false;
    uint32_t max_peer_epoch = 0;
    uint64_t sync_cursor = 0;
    // The placement this slot was told to connect to; the join must attest
    // exactly it (a replacement cannot claim a machine it was not given).
    uint32_t machine = 0;
    // O(delta) re-seed state: per-frame send metadata awaiting its cumulative
    // ack, and the basis those acks fold into. Both cleared on death/detach
    // except the basis itself — unacked frames may never have arrived, but
    // everything already folded is mirror content the replica provably holds.
    std::deque<FrameMeta> unacked;
    RbDeltaBasis basis;
    // Sequence of the last checkpoint frame enqueued on this connection; the
    // join is in flight until frames_acked covers it (0 = no checkpoint sent).
    uint64_t snapshot_last_seq = 0;
  };

  // How a link ends: a death is counted, attributed to the ending epoch and
  // reported through on_remote_death; a migration is the front end moving the
  // replica, so the leader closes the socket and nothing is reported.
  enum class LinkEnd { kDeath, kMigration };

  // The slot serving `replica_index`, or nullptr when it was never remote.
  Remote* Find(int replica_index) const;
  // The one open path (first join and replacement alike): drops the slot's old
  // socket, if any, and connects a fresh one with a fresh per-connection
  // sequence space. What the slot knows of its replica survives.
  void Open(Remote& r, uint32_t machine, uint16_t port);
  // The one retire path: marks the link dead, drops everything queued on it and
  // bumps the epoch. No-op on a link that is already dead.
  void MarkDead(Remote& r, const char* why, LinkEnd end = LinkEnd::kDeath);
  // The one per-remote enqueue: takes the next sequence number on `r`'s
  // connection, has `encode` build the frame for it, seals, counts (globally
  // and in the epoch row) and queues it. Returns the sequence number.
  template <typename Encode>
  uint64_t EnqueueFrame(Remote& r, RbFrameType type, Encode encode);
  // The data-frame broadcast: `payload`, serialized once, goes to every live
  // link not awaiting its checkpoint — only the per-connection header
  // (frame_seq) and the seal differ per remote. Each enqueue records `meta`,
  // when set, as the frame's unacked metadata, then pumps.
  void Broadcast(RbFrameType type, uint32_t rank, uint32_t count,
                 const std::vector<uint8_t>& payload, const FrameMeta* meta);
  // Drains sendq into the socket and reads acks (PumpLink), then wakes
  // stall_queue_ if that cleared the remote's stall. Every enqueue pumps.
  void Pump(Remote& r);
  void PumpLink(Remote& r);
  // Folds newly acked entry frames' metadata into the slot's delta basis.
  void FoldAckedMeta(Remote& r);
  // Verifies a join attestation; returns false when the link was torn.
  bool HandleAttest(Remote& r, const RbWireFrame& frame);
  // Latches a newer replay cursor and pokes the wrap gate; a `cursor` not ahead
  // of what the slot already holds changes nothing.
  void RaiseSyncCursor(Remote& r, uint64_t cursor);
  bool RemoteStalled(const Remote& r) const {
    return !r.dead &&
           r.sendq.bytes() + r.sock->unread_by_peer() >= StreamSocket::kWindowBytes;
  }

  Kernel* kernel_;
  uint32_t leader_machine_;
  const RbAuthContext& auth_;
  uint64_t config_digest_;
  uint32_t epoch_ = 1;
  uint64_t deaths_ = 0;
  std::function<void(int)> on_remote_death_;
  std::function<void(int)> on_sync_cursor_;
  std::function<void(int, uint64_t)> on_attested_join_;
  const IpMon* leader_;  // Whose reset generation frames record; not owned.
  WaitQueue stall_queue_;
  std::vector<std::unique_ptr<Remote>> remotes_;
};

class SyncAgent;

// Remote-side agent: accepts the leader's connection on its machine, replays
// entry frames into the local replica's RB mirror (and sync-log frames into the
// replica's sync-agent log mirror), and acknowledges.
class RemoteSyncAgent {
 public:
  // Leader frames are verified and opened with `auth`, acks are sealed with it,
  // and every connection opens with a sealed join attestation presenting
  // `config_digest`. `auth` must outlive the agent.
  RemoteSyncAgent(Kernel* kernel, IpMon* mon, uint32_t machine, uint16_t port,
                  const RbAuthContext& auth, uint64_t config_digest);
  ~RemoteSyncAgent();
  RemoteSyncAgent(const RemoteSyncAgent&) = delete;
  RemoteSyncAgent& operator=(const RemoteSyncAgent&) = delete;

  // The local replica's record/replay agent: kSyncLog frames replay into its
  // machine-local log mirror. Unset for single-threaded (agent-less) workloads —
  // receiving a sync frame without one is a configuration divergence.
  void set_sync_agent(SyncAgent* agent) { sync_agent_ = agent; }

  // Binds + listens; call before the leader's RbTransport connects.
  void Start();

  // The local replica's IP-MON finished Initialize (the RB mirror view is valid):
  // drain any frames that arrived early.
  void OnReplicaRbReady();

  // Tears the link down (FIN to the leader) — the remote-machine-death experiment.
  void Shutdown();

  uint64_t frames_applied() const { return frames_applied_; }
  uint64_t frames_rejected() const { return frames_rejected_; }
  // Re-seed observability: completed snapshot joins through this agent.
  uint64_t joins() const { return joins_; }
  // The epoch floor this agent enforces on data frames (0 before any join).
  uint32_t join_epoch() const { return join_epoch_; }

  // Wrap gate: a cursor-bearing ack re-announcing the last applied frame, sent
  // when the local replica's replay cursor advances with the log full from its
  // perspective — the master parked on the wraparound gate unblocks on it.
  void SendCursorUpdate();

  // True once this agent tore its link down (corrupt/forged/stale frame, refused
  // join, or a deliberate Shutdown).
  bool link_torn() const { return shutdown_; }

  // Test seam: runs one decoded frame through the same dispatch DrainConn uses
  // (join-epoch floor, readiness pending, apply + ack). Returns true when the
  // frame was applied; the floor and divergence tests assert the false cases.
  bool InjectFrameForTest(RbWireFrame frame);
  // Test seam for active-adversary scenarios: raw bytes through the full receive
  // pipeline (parser + MAC verification + dispatch), as if read off the socket.
  void InjectRawBytesForTest(const uint8_t* data, size_t len);
  // Test seam: enqueue pre-built (possibly tampered) ack-stream bytes to the
  // leader, bypassing sealing — the compromised-replica simulation.
  void SendRawAckForTest(std::vector<uint8_t> frame);
  // Test seam: attest a different digest than the genuine one (mismatched-config
  // joiner).
  void OverrideAttestDigestForTest(uint64_t digest) { config_digest_ = digest; }

 private:
  void OnListenerPoll();
  void OnConnPoll();
  void DrainConn();
  void ProcessParsedFrames();
  // One decoded frame through the receive pipeline: snapshot handshake, data-type
  // filter, join-epoch floor, readiness pending, apply + ack.
  void HandleFrame(RbWireFrame frame);
  // True when the view the frame replays into (RB mirror or sync-log mirror) is
  // attached; frames arriving earlier wait in pending_.
  bool ReadyFor(const RbWireFrame& frame) const;
  void ApplyFrame(const RbWireFrame& frame);
  // Replays a kSyncLog frame through SyncAgent::ApplyLog; nullptr or its reason.
  const char* ApplySyncLog(const RbWireFrame& frame);
  void HandleSnapshotFrame(const RbWireFrame& frame);
  // The accept tail every applied frame (data or checkpoint) shares: count it,
  // attribute it to its epoch row, acknowledge it.
  void Accept(const RbWireFrame& frame);
  // The reject tail every torn link shares: log `why`, count the frame, and
  // shut the link down — the leader's transport reports the death.
  void Reject(const std::string& why);
  void SendAck(uint32_t epoch, uint64_t frame_seq);
  void FlushAckQueue();

  Kernel* kernel_;
  IpMon* mon_;
  SyncAgent* sync_agent_ = nullptr;
  uint32_t machine_;
  uint16_t port_;
  std::shared_ptr<StreamSocket> listener_;
  std::shared_ptr<StreamSocket> conn_;
  uint64_t listener_observer_ = 0;
  uint64_t conn_observer_ = 0;
  RbFrameParser parser_;
  std::vector<RbWireFrame> pending_;  // Frames received before the mirror exists.
  SendQueue ackq_;
  bool shutdown_ = false;
  uint64_t frames_applied_ = 0;
  uint64_t frames_rejected_ = 0;
  // Replica re-seed: checkpoint reassembly and the join-epoch floor — entry
  // frames older than the epoch the join was seeded at are stale by definition
  // (docs/RB_WIRE_FORMAT.md, "Join handshake").
  SnapshotAssembler assembler_;
  uint32_t join_epoch_ = 0;
  uint64_t joins_ = 0;
  // Authentication context, the digest attested at accept, and the replay gates
  // — epoch must never regress across any frame type, and data frame_seq is
  // strictly increasing per connection. last_ack_* lets cursor updates
  // re-announce the newest applied frame.
  const RbAuthContext& auth_;
  uint64_t config_digest_;
  uint32_t max_epoch_seen_ = 0;
  uint64_t max_data_seq_ = 0;
  uint32_t last_ack_epoch_ = 0;
  uint64_t last_ack_seq_ = 0;
};

}  // namespace remon

#endif  // SRC_CORE_RB_TRANSPORT_H_
