// IK-B: the in-kernel broker (paper §3, fig. 2).
//
// IK-B intercepts every system call a replica makes (the kernel consults it via the
// SyscallGate hook — the simulated analog of the paper's 97-line kernel patch). It
// forwards a call to IP-MON only when (i) the replica registered an IP-MON that
// handles the call and (ii) the active relaxation policy (spatial level, or a
// temporal exemption draw) allows it; everything else falls through to GHUMVEE's
// ptrace path. A forwarded call carries a one-time random 64-bit authorization token
// in a protected register; the *verifier* half of IK-B later checks that the restart
// came from IP-MON with the token intact — a lightweight control-flow-integrity
// property that makes it useless for an attacker to jump into IP-MON's internals or
// to issue direct system calls.

#ifndef SRC_CORE_BROKER_H_
#define SRC_CORE_BROKER_H_

#include <map>

#include "src/core/policy.h"
#include "src/kernel/kernel.h"
#include "src/kernel/process.h"

namespace remon {

class IpMon;

class IkBroker : public SyscallGate {
 public:
  IkBroker(Kernel* kernel, RelaxationPolicy policy)
      : kernel_(kernel), policy_(policy) {}

  const RelaxationPolicy& policy() const { return policy_; }

  // Wires a registered replica to its IP-MON instance and installs the gate.
  void AttachReplica(Process* process, IpMon* mon);

  // Optional temporal-exemption state (owned by the ReMon front end).
  void set_temporal(TemporalExemptionState* temporal) { temporal_ = temporal; }

  // --- Interceptor (fig. 2, steps 1-2) ------------------------------------------
  bool Intercept(Thread* t) override;

  // --- Verifier (fig. 2, steps 3-4 / 4') ---------------------------------------
  // Issues a fresh one-time token for a forwarded call.
  uint64_t IssueToken(Thread* t);
  // Consumes the thread's token if `token` matches and the restarted call is the
  // forwarded one; returns false (and revokes) otherwise.
  bool VerifyToken(Thread* t, uint64_t token, Sys restarted_nr);
  // Destroys the thread's token (IP-MON does this deliberately to force the 4' path).
  void RevokeToken(Thread* t);

 private:
  Kernel* kernel_;
  RelaxationPolicy policy_;
  TemporalExemptionState* temporal_ = nullptr;
  std::map<Process*, IpMon*> replicas_;
};

}  // namespace remon

#endif  // SRC_CORE_BROKER_H_
