#include "src/core/broker.h"

#include <cstdio>

#include "src/core/ipmon.h"
#include "src/sim/check.h"

namespace remon {

void IkBroker::AttachReplica(Process* process, IpMon* mon) {
  replicas_[process] = mon;
  process->gate = this;
}

bool IkBroker::Intercept(Thread* t) {
  Process* p = t->process();
  auto it = replicas_.find(p);
  if (it == replicas_.end() || !p->ipmon.registered) {
    return false;  // No IP-MON: default path (ptrace when traced).
  }
  const SyscallRequest req = t->cur_req;
  Sys nr = req.nr;
  uint32_t idx = static_cast<uint32_t>(nr);
  SimStats& stats = kernel_->stats();

  bool route_ipmon = false;
  bool temporal_exempt = false;
  if (idx < kNumSyscalls && p->ipmon.unmonitored[idx] &&
      (policy_.UnconditionallyExempt(nr) || policy_.ConditionallyExempt(nr))) {
    route_ipmon = true;
  }
  // Temporal exemption can admit additional, repeatedly-approved calls — but never
  // the forced-CP set, and only calls IP-MON can replicate (checked by MayExempt).
  if (!route_ipmon && temporal_ != nullptr && temporal_->MayExempt(nr, p->replica_index)) {
    route_ipmon = true;
    temporal_exempt = true;
  }
  if (!route_ipmon) {
    ++stats.ikb_forward_ghumvee;
    return false;
  }

  // Forward to IP-MON (fig. 2, step 2): rewrite the return PC to IP-MON's entry
  // point and pass a fresh one-time token plus the (hidden) RB pointer in protected
  // registers. Costs: routing decision + token generation.
  ++stats.ikb_forward_ipmon;
  uint64_t token = IssueToken(t);
  IpMon* mon = it->second;
  const CostModel& costs = kernel_->sim()->costs();
  kernel_->RunOnThreadCore(
      t, costs.ikb_route_ns + costs.token_generate_ns,
      [this, t, mon, req, token, temporal_exempt] {
        if (!t->alive()) {
          return;
        }
        kernel_->StartAuxCoroutine(t, mon->HandleCall(t, req, token, temporal_exempt),
                                   nullptr);
      });
  return true;
}

uint64_t IkBroker::IssueToken(Thread* t) {
  ++kernel_->stats().tokens_issued;
  // Tokens are never zero so a cleared register cannot accidentally verify.
  uint64_t token = kernel_->sim()->rng().Next64() | 1;
  t->ipmon_token = token;
  t->ipmon_token_valid = true;
  return token;
}

bool IkBroker::VerifyToken(Thread* t, uint64_t token, Sys restarted_nr) {
  SimStats& stats = kernel_->stats();
  // The token must be intact, and the restarted call must be the forwarded one: a
  // different call (or a replayed/guessed token) is revoked and forced to GHUMVEE.
  if (t->ipmon_token_valid && token == t->ipmon_token && t->cur_req.nr == restarted_nr) {
    t->ipmon_token_valid = false;  // One-time use.
    return true;
  }
  ++stats.policy_violations;
  RevokeToken(t);
  return false;
}

void IkBroker::RevokeToken(Thread* t) {
  if (t->ipmon_token_valid) {
    ++kernel_->stats().tokens_revoked;
  }
  t->ipmon_token_valid = false;
  t->ipmon_token = 0;
}

}  // namespace remon
