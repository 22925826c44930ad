// The benchmark's workloads, each a hermetic simulated world built from the
// library's public classes (Simulator, Kernel, Network, Remon, FleetManager).
//
// Every world is driven by a watchdog: sim.Run(deadline) in fixed virtual-time
// slices, stopping when the client finishes, when the event queue drains with
// the client still waiting (a hang), or when a virtual-time or host-time cap
// is hit. A world that does not finish counts all of its unfinished requests
// as failed and never hangs the benchmark.

#ifndef PERFBENCH_SRC_WORLDS_H_
#define PERFBENCH_SRC_WORLDS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/generators.h"
#include "src/core/policy.h"
#include "src/core/remon.h"
#include "src/sim/frame_pool.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace perfbench {

struct Scenario {
  std::string name;
  std::string server;  // A paper server by name (src/workloads/servers.h).
  remon::PolicyLevel level = remon::PolicyLevel::kSocketRw;
  int replicas = 2;
  bool open_loop = false;

  // Every request asks for a reply size drawn uniformly from [reply_lo,
  // reply_hi]. Closed loop: `connections` connections share `requests`.
  uint32_t reply_lo = 0;
  uint32_t reply_hi = 0;
  int connections = 32;
  int requests = 0;
  // Cross-machine replica set: the last replica on its own machine behind the
  // RB transport, with the record/replay agent, adaptive batching and wire
  // authentication; the fault injector kills it every `kill_every`.
  bool remote_replica = false;
  DurationNs kill_every = 0;

  // Open loop: `arrivals` Poisson connections per ladder rate at a fleet of
  // `shards` replica sets behind a consistent-hash load balancer.
  int shards = 0;
  int arrivals = 0;
  int client_processes = 4;
  std::vector<double> ladder;  // conn/s, ascending.
  double reference_rate = 0;   // The rung measured end to end, with a native twin.
};

// The four workloads, by name; nullptr if unknown.
const Scenario* FindScenario(const std::string& name);
std::vector<std::string> ScenarioNames();

// The seed-derived inputs of one world; identical for an MVEE run and its twin.
// Both are nested per connection (closed loop) or per client process (open
// loop), in the order WorldRun::records flattens them.
struct Inputs {
  std::vector<std::vector<uint32_t>> reply_bytes;
  std::vector<std::vector<TimeNs>> due;  // Open loop only.
};
Inputs MakeInputs(const Scenario& sc, uint64_t seed, double rate);

enum class Outcome { kDone, kDrained, kVirtualCap, kHostCap };
const char* OutcomeName(Outcome o);

struct Watchdog {
  DurationNs slice = remon::Millis(1);
  TimeNs virtual_cap = remon::Millis(30000);
  double host_cap_s = 40;
};

// Called after every sim.Run slice with the host-clock interval it took
// (seconds since the benchmark started). Only the traced run installs one.
using SliceHook = std::function<void(remon::Simulator& sim, double host_begin_s,
                                     double host_end_s)>;

struct KillRecord {
  TimeNs killed = -1;
  TimeNs joined = -1;  // -1: no replacement joined before the next kill/the end.
};

// Everything one world run leaves behind. The virtual plane is a pure function
// of (scenario, mode, seed, rate); host_* fields are host-clock measurements.
struct WorldRun {
  std::string label;
  Outcome outcome = Outcome::kDone;
  bool diverged = false;
  TimeNs start_at = 0;  // First request due (end of set-up).
  TimeNs end = 0;       // Virtual time the watchdog stopped at.
  std::vector<RequestRecord> records;  // Every planned request, in plan order.
  uint64_t bytes_received = 0;
  int arrived = 0;  // Open loop: arrivals the generators spawned.
  remon::SimStats stats;
  uint64_t events = 0;
  uint64_t lane_scheduled = 0;
  uint64_t heap_scheduled = 0;
  remon::DurationNs cpu_busy = 0;
  uint64_t context_switches = 0;
  int cores = 0;
  remon::FramePool::Stats frames;  // Coroutine-frame pool traffic of this run.
  std::vector<KillRecord> kills;
  std::vector<uint64_t> routed;  // Open loop: connections routed per shard.
  double host_setup_s = 0;       // Process CPU: world built, servers listening.
  double host_run_s = 0;         // Process CPU: first request to the end.
  std::vector<double> host_slice_s;  // host_run_s, per watchdog slice.

  uint64_t Completed() const;
  uint64_t Failed() const { return records.size() - Completed(); }
  // Client-observed completion time: first request due to last one finished.
  TimeNs Span() const;
  // A 64-bit digest of the virtual plane (records, counters, end time): equal
  // digests mean the two runs were bit-identical where it matters.
  uint64_t VirtualDigest() const;
};

// Builds and runs one world. `rate` selects the open-loop ladder rung (ignored
// by closed loops). With `setup_only`, stops once the servers listen, so only
// host_setup_s is meaningful.
WorldRun RunWorld(const Scenario& sc, const Inputs& in, remon::MveeMode mode,
                  uint64_t seed, double rate, const Watchdog& wd, bool setup_only,
                  const SliceHook& hook = nullptr);

// The value at rank floor(p/100 * (n-1)) of `v`, p in [0, 100]; 0 if empty.
double Percentile(std::vector<double> v, double p);
// The median of `v`, averaging the middle pair; 0 if empty.
double Median(std::vector<double> v);

// Process CPU seconds.
double ProcessCpuSeconds();
// Host seconds since the benchmark process started (steady clock).
double HostSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORLDS_H_
