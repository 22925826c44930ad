// Server applications for the paper's server benchmarks (Fig. 5, Table 2).
//
// Analogs of the servers the paper (and the MVEEs it compares against) evaluated:
//   nginx / lighttpd  — epoll event loops (multi-worker for nginx),
//   thttpd            — select()-based single-process loop,
//   apache 1.3        — worker pool, one (kept-alive) connection per thread,
//   memcached         — multi-threaded epoll key-value store,
//   redis / beanstalkd— single-threaded event loops with small responses.
//
// All speak a tiny framed protocol: a request is the 10-byte line "R<8 digits>\n"
// asking for that many response bytes. The servers differ in concurrency model,
// per-request compute, and response size — the dimensions that matter to an MVEE.

#ifndef SRC_WORKLOADS_SERVERS_H_
#define SRC_WORKLOADS_SERVERS_H_

#include <string>
#include <vector>

#include "src/kernel/guest.h"
#include "src/sim/time.h"

namespace remon {

inline constexpr uint64_t kRequestBytes = 10;

enum class ServerKind { kEpollLoop, kSelectLoop, kThreadPool };

struct ServerSpec {
  std::string name;
  ServerKind kind = ServerKind::kEpollLoop;
  int workers = 1;  // Event-loop threads or pool threads.
  uint16_t port = 80;
  DurationNs service_compute = Micros(25);  // Per-request application work.
  uint64_t default_response = 4096;         // Response size the client requests.
  double mem_intensity = 0.02;
  // Per-request housekeeping, as real servers do: a timestamp for the access log
  // (BASE), the log append itself (NONSOCKET_RW), and TCP_CORK-style socket options
  // around the response (SOCKET_RW).
  // Access-log appends per request (each a small bounded-latency write on the
  // worker's own rank). >1 models chatty request accounting — error log, stats
  // counters — and is what the multi-rank RB ablations crank up.
  int log_writes = 1;
  // Multi-tier chains: when upstream_port != 0, requests that miss the local
  // tier are forwarded as a synchronous sub-request to (upstream_machine,
  // upstream_port) — typically the next tier's VIP — before the response goes
  // out. Hits are decided by a per-worker deterministic accumulator, never by
  // randomness: replicated workers must make identical decisions.
  uint32_t upstream_machine = 0;
  uint16_t upstream_port = 0;
  double upstream_hit_ratio = 0.0;  // Fraction served locally without forwarding.
};

ProgramFn ServerProgram(const ServerSpec& spec);

// The paper's server set (Fig. 5 / Table 2).
std::vector<ServerSpec> PaperServers();
// Look up a server spec by name.
ServerSpec ServerByName(const std::string& name);

}  // namespace remon

#endif  // SRC_WORKLOADS_SERVERS_H_
