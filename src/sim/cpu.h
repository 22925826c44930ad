// CPU core model.
//
// Every simulated machine has its own fixed number of cores (CostModel::num_cores).
// Threads (and the CP monitor) acquire a core on their own machine to run compute
// bursts and kernel work; contention and context-switch costs emerge from core
// occupancy, so work on one machine never queues behind work on another. The model
// mirrors the paper's testbed: replicas can run on disjoint cores, so MVEE overhead
// comes from monitor interaction and memory-subsystem pressure rather than raw CPU
// starvation — unless the configuration oversubscribes a machine's cores (e.g., 7
// replicas x 4 threads).

#ifndef SRC_SIM_CPU_H_
#define SRC_SIM_CPU_H_

#include <cstdint>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/time.h"

namespace remon {

class CpuPool {
 public:
  // A granted slice of core time. The caller schedules its own completion event at
  // `end`.
  struct RunGrant {
    int core = -1;
    TimeNs start = 0;  // When the entity's own work begins (after any switch cost).
    TimeNs end = 0;    // When the core becomes free again.
    bool context_switched = false;
  };

  CpuPool(int cores_per_machine, DurationNs context_switch_cost)
      : cores_per_machine_(cores_per_machine), context_switch_cost_(context_switch_cost) {
    REMON_CHECK(cores_per_machine > 0);
  }

  // Total cores of the machines that have run work so far.
  int num_cores() const { return num_cores_; }
  DurationNs context_switch_cost() const { return context_switch_cost_; }

  // Acquires a core of `machine` for `entity` (an arbitrary stable id, e.g. a tid)
  // that becomes runnable at `ready_at` and wants to occupy the core for
  // `duration`. Prefers the entity's previous core to model affinity; charges a
  // context switch when the core last ran a different entity. A machine's cores
  // come into being the first time it runs anything.
  RunGrant Acquire(uint32_t machine, uint64_t entity, TimeNs ready_at, DurationNs duration,
                   int preferred_core);

  // Total context switches charged so far, over all machines.
  uint64_t context_switches() const { return context_switches_; }

  // Aggregate busy nanoseconds over all cores of all machines (for utilization
  // reporting).
  DurationNs total_busy() const { return total_busy_; }

  // Time grants spent waiting for a busy core: the sum over all grants of
  // max(ready_at, core free) - ready_at. Context-switch cost is not included.
  DurationNs queue_wait_ns() const { return queue_wait_ns_; }

 private:
  struct Core {
    TimeNs free_until = 0;
    uint64_t last_entity = 0;
  };

  int cores_per_machine_;
  DurationNs context_switch_cost_;
  std::vector<std::vector<Core>> machines_;  // Indexed by machine id; empty until used.
  int num_cores_ = 0;
  uint64_t context_switches_ = 0;
  DurationNs total_busy_ = 0;
  DurationNs queue_wait_ns_ = 0;
};

}  // namespace remon

#endif  // SRC_SIM_CPU_H_
