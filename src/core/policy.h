// System call monitoring relaxation policies (paper §3.4, Table 1).
//
// ReMon eschews fixed monitoring policies: a *spatial* exemption level selects which
// system calls may execute as unmonitored calls through IP-MON, either
// unconditionally or conditionally on the type of the file descriptor involved
// (consulted through the IP-MON file map). Levels are cumulative — selecting a level
// enables its calls plus all preceding levels'. A *temporal* exemption policy
// probabilistically exempts calls that were repeatedly approved; the paper stresses
// such policies must be non-deterministic to be safe.
//
// This module is also the single source of truth for the execution mode of monitored
// calls inside GHUMVEE: master-only-with-replication versus local-in-every-replica.

#ifndef SRC_CORE_POLICY_H_
#define SRC_CORE_POLICY_H_

#include <cstdint>
#include <map>
#include <utility>
#include <string_view>
#include <vector>

#include "src/kernel/sysno.h"
#include "src/sim/rng.h"
#include "src/vfs/file.h"

namespace remon {

// Spatial exemption levels of Table 1, plus kNoIpmon (= GHUMVEE standalone).
enum class PolicyLevel : uint8_t {
  kNoIpmon = 0,
  kBase = 1,
  kNonsocketRo = 2,
  kNonsocketRw = 3,
  kSocketRo = 4,
  kSocketRw = 5,
};

std::string_view PolicyLevelName(PolicyLevel level);

// Temporal exemption (paper §3.4, second option): after a call site has been
// approved `approvals_required` times by GHUMVEE, subsequent identical calls are
// exempted with probability `exempt_probability` — drawn from the simulation RNG, so
// the pattern is unpredictable to an attacker, as the paper requires.
struct TemporalPolicy {
  bool enabled = false;
  int approvals_required = 32;
  double exempt_probability = 0.5;
};

class RelaxationPolicy {
 public:
  explicit RelaxationPolicy(PolicyLevel level, TemporalPolicy temporal = {});

  PolicyLevel level() const { return level_; }
  const TemporalPolicy& temporal() const { return temporal_; }

  // True if `nr` is unconditionally exempt at this level (no file-map consultation).
  bool UnconditionallyExempt(Sys nr) const;

  // True if `nr` *may* be exempt depending on its FD argument's type. The broker
  // forwards such calls to IP-MON, whose MAYBE_CHECKED handler decides.
  bool ConditionallyExempt(Sys nr) const;

  // Full decision for a call on an FD of type `fd_type` (kFree when the call has no
  // FD argument). This is IP-MON's MAYBE_CHECKED predicate.
  bool AllowsUnmonitored(Sys nr, FdType fd_type) const;

  // The registration mask IP-MON passes to the kernel: all calls that can ever be
  // dispatched unmonitored under this policy (unconditional + conditional).
  std::vector<bool> RegistrationMask() const;

  // Calls IP-MON implements handlers for (the paper's 67-call fast path); a superset
  // of what any level exempts.
  static bool IpmonSupports(Sys nr);

  // Calls whose effects are process-local resources: under lockstep these execute in
  // *every* replica and their results are not replicated (mmap, clone, futex, ...).
  static bool IsLocalCall(Sys nr);

  // Calls that may tamper with IP-MON or the RB; ReMon forcibly forwards these to
  // GHUMVEE regardless of level (paper §3.1).
  static bool ForcedCpCall(Sys nr);

 private:
  PolicyLevel level_;
  TemporalPolicy temporal_;
};

// Per-call-site temporal exemption state. Lives in IK-B — a single kernel-side
// component shared by all replicas — so one probabilistic draw covers the *logical*
// invocation: every replica of the replica set must route the same call the same way
// or the split-monitor protocol desynchronizes. Draws stay unpredictable to an
// attacker (they come from the kernel PRNG) but are consistent across replicas.
class TemporalExemptionState {
 public:
  TemporalExemptionState(const TemporalPolicy& policy, Rng* rng, int num_replicas = 2)
      : policy_(policy),
        rng_(rng),
        num_replicas_(num_replicas),
        approvals_(kNumSyscalls, 0) {}

  // Called when GHUMVEE approves a monitored call.
  void RecordApproval(Sys nr) { ++approvals_[static_cast<size_t>(nr)]; }

  // Decides whether replica `replica_index`'s next instance of `nr` may skip
  // monitoring. The first replica to reach a given invocation index draws; the
  // others reuse the cached decision. Never exempts calls IP-MON cannot replicate.
  bool MayExempt(Sys nr, int replica_index) {
    if (!policy_.enabled || !RelaxationPolicy::IpmonSupports(nr) ||
        RelaxationPolicy::ForcedCpCall(nr)) {
      return false;
    }
    // Per-replica invocation index for this call number.
    uint64_t index = per_replica_counts_[{replica_index, nr}]++;
    auto key = std::pair<uint32_t, uint64_t>(static_cast<uint32_t>(nr), index);
    auto it = decisions_.find(key);
    bool decision;
    if (it != decisions_.end()) {
      decision = it->second.first;
      if (++it->second.second >= num_replicas_) {
        decisions_.erase(it);  // All replicas consumed it.
      }
    } else {
      bool eligible = approvals_[static_cast<size_t>(nr)] >=
                      static_cast<uint64_t>(policy_.approvals_required);
      decision = eligible && rng_->NextBool(policy_.exempt_probability);
      if (num_replicas_ > 1) {
        decisions_[key] = {decision, 1};
      }
    }
    return decision;
  }

  uint64_t approvals(Sys nr) const { return approvals_[static_cast<size_t>(nr)]; }

 private:
  TemporalPolicy policy_;
  Rng* rng_;
  int num_replicas_;
  std::vector<uint64_t> approvals_;
  std::map<std::pair<int, Sys>, uint64_t> per_replica_counts_;
  std::map<std::pair<uint32_t, uint64_t>, std::pair<bool, int>> decisions_;
};

}  // namespace remon

#endif  // SRC_CORE_POLICY_H_
