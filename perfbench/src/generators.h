// The benchmark's own load generators: guest programs that run on client
// machines, outside the program under test, and record every request.
//
// Inputs are fixed before a run starts (per-connection reply sizes for the
// closed loop, per-arrival due times for the open loop), so the same seed gives
// the same inputs to the MVEE run and its native twin. Requests are timed from
// when they were due: in the open loop that is the scheduled arrival, so a
// stall that delays later arrivals shows in their latency. A request that fails
// keeps ok == false and counts as above every latency limit.

#ifndef PERFBENCH_SRC_GENERATORS_H_
#define PERFBENCH_SRC_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/sim/time.h"

namespace perfbench {

using remon::DurationNs;
using remon::TimeNs;

// One request (closed loop) or one connection (open loop).
struct RequestRecord {
  TimeNs due = -1;         // When it should have been sent.
  TimeNs started = -1;     // Open loop: when its connection thread first ran.
  TimeNs connected = -1;   // Open loop: connect() returned.
  TimeNs first_byte = -1;  // First response bytes read.
  TimeNs done = -1;        // Whole response read (closed loop) / socket closed.
  bool ok = false;
  bool connect_failed = false;
};

// --- Closed loop --------------------------------------------------------------

struct ClosedLoopPlan {
  uint32_t server_machine = 0;
  uint16_t port = 0;
  TimeNs start_at = 0;  // The servers' head start to reach their accept loops.
  std::vector<std::vector<uint32_t>> reply_bytes;  // Per connection, per request.
};

struct ClosedLoopState {
  std::vector<std::vector<RequestRecord>> records;  // Shaped like reply_bytes.
  uint64_t bytes_received = 0;
  int connections_done = 0;
};

// Draws `requests` reply sizes uniformly from [lo, hi], dealt round-robin to
// `connections` connections.
std::vector<std::vector<uint32_t>> DrawReplySizes(uint64_t seed, int connections,
                                                  int requests, uint32_t lo,
                                                  uint32_t hi);

// Spawns one client thread per connection in `client`. Both `plan` and `state`
// must outlive the simulation.
void SpawnClosedLoop(remon::Kernel* kernel, remon::Process* client,
                     const ClosedLoopPlan* plan, ClosedLoopState* state);

// --- Open loop ----------------------------------------------------------------

struct OpenLoopPlan {
  uint32_t target_machine = 0;
  uint16_t port = 0;
  // FD-table guard per client process: the spawner reaps finished connections
  // before exceeding this many in flight (any delay it causes is lateness).
  int max_in_flight = 512;
  std::vector<std::vector<TimeNs>> due;  // Per client process, ascending.
  std::vector<std::vector<uint32_t>> reply_bytes;  // Shaped like due.
};

struct OpenLoopState {
  std::vector<std::vector<RequestRecord>> records;  // Shaped like due.
  uint64_t bytes_received = 0;
  int arrived = 0;
  int processes_done = 0;
};

// Poisson arrivals at `rate` per second starting at `start_at`, dealt
// round-robin to `processes` client processes (the superposition is one
// Poisson stream at the full rate).
std::vector<std::vector<TimeNs>> DrawArrivals(uint64_t seed, int arrivals, double rate,
                                              TimeNs start_at, int processes);

// Spawns one arrival generator per client process (clients[i] runs due[i]).
// Both `plan` and `state` must outlive the simulation.
void SpawnOpenLoop(remon::Kernel* kernel, const std::vector<remon::Process*>& clients,
                   const OpenLoopPlan* plan, OpenLoopState* state);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GENERATORS_H_
