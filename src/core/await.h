// Awaitable building blocks for monitor coroutines (IP-MON handler bodies, the
// GHUMVEE event loop).

#ifndef SRC_CORE_AWAIT_H_
#define SRC_CORE_AWAIT_H_

#include <coroutine>

#include "src/kernel/kernel.h"
#include "src/kernel/thread.h"

namespace remon {

// Occupies the thread's CPU core for `d` nanoseconds (monitor code running in the
// replica's context: IP-MON entry costs, RB copies).
struct ThreadCost {
  Thread* t;
  DurationNs d;

  bool await_ready() const { return d <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    t->kernel()->ResumeHandleOnThread(t, h, d);
  }
  void await_resume() const {}
};

// Occupies the monitor's core on `machine` (GHUMVEE work: dispatch, deep compares,
// vm copies).
struct MonitorCost {
  Kernel* k;
  uint32_t machine;
  uint64_t entity;
  int* core_slot;
  DurationNs d;

  bool await_ready() const { return d <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    k->RunOnEntity(machine, entity, core_slot, d, [h] { h.resume(); });
  }
  void await_resume() const {}
};

// Executes a system call directly (IK-B verifier path: token already checked),
// including blocking semantics. Yields the raw result.
struct ExecDirect {
  Thread* t;
  SyscallRequest req;
  int64_t result = 0;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    Kernel* k = t->kernel();
    k->ExecuteSyscall(t, req, [this, h, k](int64_t r) {
      result = r;
      k->ResumeHandleOnThread(t, h, 0);
    });
  }
  int64_t await_resume() const { return result; }
};

// Executes the thread's current system call through the ptrace path (syscall-entry
// stop -> GHUMVEE -> execution -> exit stop). This is the 4' arrow of the paper's
// fig. 2: IP-MON destroyed its token, so the call is monitored.
struct ExecTraced {
  Thread* t;
  SyscallRequest req;
  int64_t result = 0;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    Kernel* k = t->kernel();
    t->cur_req = req;
    k->ExecuteSyscallTraced(t, [this, h, k](int64_t r) {
      result = r;
      k->ResumeHandleOnThread(t, h, 0);
    });
  }
  int64_t await_resume() const { return result; }
};

// Parks the thread until the given wait queue wakes it (used for RB condition
// variables; the check-then-wait sequence is race-free because host code between
// suspension points runs atomically in the discrete-event simulator).
struct WaitOn {
  Thread* t;
  WaitQueue* queue;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    Kernel* k = t->kernel();
    k->BlockThread(t, {queue}, kTimeNever, /*interruptible=*/false,
                   [t = t, h, k](WakeReason) {
                     k->ResumeHandleOnThread(t, h, 0);
                   });
  }
  void await_resume() const {}
};

}  // namespace remon

#endif  // SRC_CORE_AWAIT_H_
