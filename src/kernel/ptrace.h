// Simulated ptrace: the tracer<->tracee channel GHUMVEE is built on.
//
// Real GHUMVEE attaches to every replica with PTRACE_ATTACH, receives
// syscall-entry/syscall-exit/signal-delivery stops via waitpid, inspects registers and
// memory, and resumes tracees with PTRACE_SYSCALL. This module reproduces that event
// model: tracees park at stops, events queue into the tracer's PtraceHub, and the
// monitor coroutine consumes them with `co_await hub.NextEvent()`. Cost accounting
// mirrors the expensive parts the paper blames for CP-MVEE overhead: every stop and
// resume charges context-switch-scale costs on the monitor's core.

#ifndef SRC_KERNEL_PTRACE_H_
#define SRC_KERNEL_PTRACE_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>

#include "src/kernel/thread.h"

namespace remon {

struct PtraceEvent {
  enum class Kind {
    kSyscallEntry,
    kSyscallExit,
    kSignal,       // Signal-delivery stop; `signal` holds the number.
    kThreadExit,   // Tracee thread exited.
    kProcessExit,  // Whole tracee process exited.
    kThreadNew,    // A clone() produced a new traced thread.
  };
  Kind kind = Kind::kSyscallEntry;
  Thread* thread = nullptr;
  int signal = 0;               // kSignal: the signal; kProcessExit: the exit code.
  Process* process = nullptr;   // kProcessExit: the process that exited.
};

// PtraceAction (how the tracer resumes a stopped tracee) lives in thread.h so the
// Thread can embed the pending action for an in-flight resume event.

class Kernel;

// Per-tracer event channel. One GHUMVEE instance owns one hub covering all replicas.
class PtraceHub {
 public:
  explicit PtraceHub(Kernel* kernel);
  PtraceHub(const PtraceHub&) = delete;
  PtraceHub& operator=(const PtraceHub&) = delete;

  // Monitor identity for CPU cost accounting: a kernel-issued id no tid or other
  // monitor shares, and the machine whose cores the monitor runs on (its leader's).
  uint64_t monitor_entity;
  uint32_t monitor_machine = 0;
  int monitor_core = -1;

  bool has_events() const { return !queue_.empty(); }
  size_t queue_depth() const { return queue_.size(); }

  // Pushes an event and wakes the waiting monitor (charging the waitpid-wakeup cost).
  void Push(const PtraceEvent& ev);

  // Awaitable used by the monitor coroutine: resumes when an event is available.
  struct EventAwaiter {
    PtraceHub* hub;
    bool await_ready() const { return hub->has_events(); }
    void await_suspend(std::coroutine_handle<> h) { hub->waiter_ = h; }
    PtraceEvent await_resume() {
      PtraceEvent ev = hub->queue_.front();
      hub->queue_.pop_front();
      return ev;
    }
  };
  EventAwaiter NextEvent() { return EventAwaiter{this}; }
  // The tracer has handled `ev` and keeps no reference to its thread through it.
  // An event pins its thread from Push to Done — a dead thread can still post its
  // exit stop after its kThreadExit — so the kernel never reaps a thread the
  // tracer is about to look at.
  void Done(const PtraceEvent& ev);

 private:
  friend class Kernel;

  Kernel* kernel_;
  std::deque<PtraceEvent> queue_;
  std::coroutine_handle<> waiter_;
};

}  // namespace remon

#endif  // SRC_KERNEL_PTRACE_H_
