#include "src/sim/cpu.h"

#include <algorithm>

namespace remon {

CpuPool::RunGrant CpuPool::Acquire(uint32_t machine, uint64_t entity, TimeNs ready_at,
                                   DurationNs duration, int preferred_core) {
  REMON_CHECK(duration >= 0);
  if (machine >= machines_.size()) {
    machines_.resize(machine + 1);
  }
  std::vector<Core>& cores = machines_[machine];
  if (cores.empty()) {
    cores.resize(static_cast<size_t>(cores_per_machine_));
    num_cores_ += cores_per_machine_;
  }
  // Pick the preferred core if reusing it does not delay the start versus the best
  // alternative; otherwise pick the earliest-free core (migration).
  int best = 0;
  TimeNs best_free = kTimeNever;
  for (size_t i = 0; i < cores.size(); ++i) {
    if (cores[i].free_until < best_free) {
      best_free = cores[i].free_until;
      best = static_cast<int>(i);
    }
  }
  int chosen = best;
  if (preferred_core >= 0 && preferred_core < cores_per_machine_) {
    TimeNs pref_start = std::max(ready_at, cores[static_cast<size_t>(preferred_core)].free_until);
    TimeNs best_start = std::max(ready_at, best_free);
    if (pref_start <= best_start) {
      chosen = preferred_core;
    }
  }

  Core& core = cores[static_cast<size_t>(chosen)];
  TimeNs granted = std::max(ready_at, core.free_until);
  queue_wait_ns_ += granted - ready_at;
  TimeNs start = granted;
  bool switched = core.last_entity != entity;
  if (switched) {
    start += context_switch_cost_;
    ++context_switches_;
  }
  TimeNs end = start + duration;
  total_busy_ += end - granted;
  core.free_until = end;
  core.last_entity = entity;
  return RunGrant{chosen, start, end, switched};
}

}  // namespace remon
