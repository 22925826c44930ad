// Simulator: the shared context for one simulated run.
//
// Owns the virtual clock/event queue, the deterministic RNG, the CPU pool (every
// simulated machine's cores), the cost model, and the global counters. Subsystems
// (memory, VFS, network, kernel, monitors) all hold a pointer to one Simulator.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>

#include "src/sim/cost_model.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"
#include "src/sim/frame_pool.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace remon {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1, CostModel costs = CostModel::Default())
      : costs_(costs), rng_(seed), cpus_(costs.num_cores, costs.context_switch_ns) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs now() const { return queue_.now(); }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }
  CpuPool& cpus() { return cpus_; }
  const CostModel& costs() const { return costs_; }
  SimStats& stats() { return stats_; }
  const SimStats& stats() const { return stats_; }
  // The coroutine-frame slab pool. Process-wide (a promise's operator new has no
  // Simulator context — see frame_pool.h), surfaced here so tests and benches
  // reach pool stats through the simulation context they already hold.
  FramePool& frame_pool() { return FramePool::Instance(); }

  // Drains the event queue (or runs until `deadline`). Returns executed event count.
  uint64_t Run(TimeNs deadline = kTimeNever) { return queue_.RunUntil(deadline); }

 private:
  CostModel costs_;
  EventQueue queue_;
  Rng rng_;
  CpuPool cpus_;
  SimStats stats_;
};

}  // namespace remon

#endif  // SRC_SIM_SIMULATOR_H_
