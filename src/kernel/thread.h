// Kernel thread objects.
//
// A Thread wraps one guest coroutine (plus any auxiliary coroutines the kernel runs on
// its behalf: IP-MON handlers, signal handlers). Threads never run concurrently in
// host terms — the discrete-event simulator resumes at most one coroutine at a time —
// but their virtual timelines overlap across CPU cores.

#ifndef SRC_KERNEL_THREAD_H_
#define SRC_KERNEL_THREAD_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/kernel/sysno.h"
#include "src/sim/event_queue.h"
#include "src/sim/inline_fn.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/vfs/wait_queue.h"

namespace remon {

class Process;
class Kernel;
class Guest;

// Guest program body: a coroutine taking the thread's Guest facade.
using ProgramFn = std::function<GuestTask<void>(Guest&)>;

struct SyscallRequest {
  Sys nr = Sys::kInvalid;
  std::array<uint64_t, 6> args{};

  uint64_t arg(int i) const { return args[static_cast<size_t>(i)]; }
};

// How the tracer resumes a stopped tracee. Defined here (not ptrace.h) because
// Thread embeds the pending action for the in-flight resume event.
struct PtraceAction {
  // Syscall-entry: skip executing the call and use `injected_result` instead
  // (GHUMVEE aborts slave calls this way).
  bool skip_syscall = false;
  int64_t injected_result = 0;
  // Syscall-exit: override the return value.
  bool override_result = false;
  int64_t result_override = 0;
  // Signal stop: deliver the signal (false discards it; GHUMVEE defers delivery).
  bool deliver_signal = false;
};

enum class ThreadState { kNew, kRunnable, kBlocked, kPtraceStopped, kExited };

// Why a blocked thread woke up.
enum class WakeReason { kNotified, kTimeout, kSignal };

class Thread {
 public:
  Thread(Kernel* kernel, Process* process, int tid, int rank);
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;
  ~Thread();

  Kernel* kernel() const { return kernel_; }
  Process* process() const { return process_; }
  int tid() const { return tid_; }
  // Thread rank: the pairing index GHUMVEE uses to match threads across replicas
  // (thread rank r of replica 0 runs in lockstep with rank r of replica 1, ...).
  int rank() const { return rank_; }

  bool alive() const { return alive_; }
  ThreadState state() const { return state_; }
  void set_state(ThreadState s) { state_ = s; }

  // --- Fields below are kernel-internal; other modules must use Kernel APIs. -------

  // Scheduling.
  int last_core = -1;
  DurationNs cpu_time_ns = 0;

  // The program body callable. A coroutine lambda's captures live in the lambda
  // object, not in the coroutine frame, so the callable must outlive the coroutine —
  // it lives here (the Thread never moves) for the thread's lifetime.
  ProgramFn program;
  // Root guest coroutine (released from GuestTask; owned here).
  std::coroutine_handle<> root_frame;
  // Live auxiliary root coroutines (IP-MON handler instances, signal handlers):
  // an intrusive list threaded through the promises themselves (task.h AuxFrame),
  // so start/finish never touch a map or an erase-remove scan.
  AuxList aux_list;
  bool root_finished = false;

  // In-flight system call (valid while in_syscall).
  bool in_syscall = false;
  SyscallRequest cur_req;
  int64_t cur_result = 0;
  // Where to deliver the syscall return value (points into the awaiter frame).
  int64_t* result_slot = nullptr;
  std::coroutine_handle<> syscall_waiter;

  // Blocking bookkeeping.
  struct WaitRecord {
    bool active = false;
    bool interruptible = true;
    std::vector<std::pair<WaitQueue*, uint64_t>> waiters;
    EventQueue::EventId timeout_event = 0;
    // Inline capacity sized for the fattest wake closure (SysNanosleep captures a
    // whole Kernel::Done).
    InlineFunction<void(WakeReason), 96> on_wake;
    // Set while the wait belongs to a Kernel::BlockingRetry cycle; CancelWait
    // releases the pooled context back to the kernel when the wake never fires.
    struct RetryCtx* retry_ctx = nullptr;
  };
  WaitRecord wait;

  // ptrace. The resume continuation stays parked here until the scheduled resume
  // event fires (the action rides alongside rather than in the event closure, so
  // the event callback is just a thread pointer).
  InlineFunction<void(const PtraceAction&), 128> on_ptrace_resume;
  PtraceAction pending_ptrace_action;

  // Signals.
  uint64_t sig_blocked = 0;
  uint64_t sig_pending = 0;
  bool signal_deliverable() const { return (sig_pending & ~sig_blocked) != 0; }

  // The Guest facade bound to this thread.
  std::unique_ptr<Guest> guest_facade;

  // IK-B / IP-MON per-thread state.
  uint64_t ipmon_token = 0;      // Current one-time authorization token.
  bool ipmon_token_valid = false;
  bool in_ipmon = false;         // Executing inside the IP-MON aux coroutine.
  uint64_t ipmon_invocations = 0;

  // Exit plumbing. A dead thread is reaped (destroyed with its stack) once its
  // frames are gone, no queued event captures it (`pins`) and, if it was traced,
  // its tracer has released it (`ptrace_held`); see Kernel::MaybeReap.
  void MarkDead() { alive_ = false; }
  int pins = 0;
  bool ptrace_held = false;

 private:
  Kernel* kernel_;
  Process* process_;
  int tid_;
  int rank_;
  bool alive_ = true;
  ThreadState state_ = ThreadState::kNew;
};

}  // namespace remon

#endif  // SRC_KERNEL_THREAD_H_
