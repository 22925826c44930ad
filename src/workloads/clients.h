// Benchmark load generators (ab / wrk / http_load / redis-benchmark analogs).
//
// Closed-loop clients: each of `connections` concurrent connections sends a request,
// reads the full response, and immediately sends the next (no think time) until a
// global request budget (ab-style) runs out.
// Clients run natively on the client machine; their completion statistics are the
// measurement the server benchmarks report.

#ifndef SRC_WORKLOADS_CLIENTS_H_
#define SRC_WORKLOADS_CLIENTS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/kernel/guest.h"
#include "src/sim/time.h"

namespace remon {

struct ClientSpec {
  int connections = 16;
  int total_requests = 500;   // ab-style budget.
  uint64_t request_bytes = 4096;  // Response size to ask for.
  uint32_t server_machine = 0;
  uint16_t port = 80;
};

// Filled in while the client runs (host-side measurement state).
struct ClientStats {
  int completed = 0;
  int errors = 0;
  uint64_t bytes_received = 0;  // Response bytes read (the response transcript size).
  TimeNs started = -1;
  TimeNs finished = -1;
  std::vector<DurationNs> latencies;  // Per-request.

  double Seconds() const {
    return started < 0 || finished < started
               ? 0.0
               : static_cast<double>(finished - started) / 1e9;
  }
  double Throughput() const {
    double s = Seconds();
    return s > 0 ? completed / s : 0.0;
  }
  DurationNs MeanLatency() const {
    if (latencies.empty()) {
      return 0;
    }
    DurationNs sum = 0;
    for (DurationNs l : latencies) {
      sum += l;
    }
    return sum / static_cast<DurationNs>(latencies.size());
  }
};

// The client program; `stats` must outlive the run.
ProgramFn ClientProgram(const ClientSpec& spec, ClientStats* stats);

// --- Open-loop swarms (scale-out load generation) ----------------------------------
//
// Unlike the closed-loop clients above, a swarm decouples arrival from service:
// connections arrive on a Poisson process at a configured rate whether or not
// earlier ones finished, which is what exposes tail latency under overload.
// Each arrival is one short-lived connection (connect, one request/response
// round, close). Rates can step through phases to model spikes.

struct SwarmPhase {
  double rate = 0.0;        // Arrivals per second while this phase is active.
  DurationNs duration = 0;  // Phase length.
};

struct SwarmSpec {
  int connections = 10000;       // Total arrivals this program generates.
  double arrival_rate = 50000;   // Poisson rate (conn/s) when `phases` is empty.
  std::vector<SwarmPhase> phases;  // Piecewise-constant rate schedule (optional);
                                   // arrivals stop at the end of the last phase.
  uint64_t request_bytes = 512;  // Response size each request asks for.
  uint32_t server_machine = 0;   // Target (typically a tier VIP).
  uint16_t port = 80;
  uint64_t seed = 1;             // Arrival-process RNG seed (host-side, client-only).
};

// Filled in while the swarm runs (host-side measurement state).
struct SwarmStats {
  int arrived = 0;
  int completed = 0;   // Connections that finished every request cleanly.
  int requests = 0;    // Individual request/response rounds completed.
  int errors = 0;
  int stalled = 0;     // Arrivals delayed by the in-flight guard.
  uint64_t bytes_received = 0;
  TimeNs started = -1;
  TimeNs finished = -1;
  std::vector<DurationNs> latencies;  // Arrival-to-close per connection.

  double Seconds() const {
    return started < 0 || finished < started
               ? 0.0
               : static_cast<double>(finished - started) / 1e9;
  }
  double Throughput() const {  // Completed connections per second.
    double s = Seconds();
    return s > 0 ? completed / s : 0.0;
  }
  // p in [0, 100]; returns 0 on an empty sample.
  DurationNs Percentile(double p) const;
  // Folds another program's sample into this one (multi-process swarms).
  void Merge(const SwarmStats& o);
};

// The swarm program for one client process; `stats` must outlive the run.
// `on_done` (optional) fires on the host after the last connection closed —
// the scale-out runner uses it to stop autoscale timers so the simulation drains.
ProgramFn SwarmProgram(const SwarmSpec& spec, SwarmStats* stats,
                       std::function<void()> on_done = nullptr);

}  // namespace remon

#endif  // SRC_WORKLOADS_CLIENTS_H_
