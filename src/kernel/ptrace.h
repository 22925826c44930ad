// Simulated ptrace: the tracer<->tracee channel GHUMVEE is built on.
//
// Real GHUMVEE attaches to every replica with PTRACE_ATTACH, receives
// syscall-entry/syscall-exit/signal-delivery stops via waitpid, inspects registers and
// memory, and resumes tracees with PTRACE_SYSCALL. This module reproduces that event
// model: tracees park at stops, events queue into the tracer's PtraceHub, and the
// monitor coroutines consume them with `co_await hub.NextEvent(rank)`.
//
// Like the paper's GHUMVEE, the tracer runs one monitor thread per set of replica
// threads: the hub keeps one lane per rank, each with its own event queue, waiter,
// scheduling identity and core. A lane opens on its rank's first event (never at
// launch); a process-exit event goes to lane 0. Cost accounting mirrors the expensive
// parts the paper blames for CP-MVEE overhead: every stop and resume charges
// context-switch-scale costs on the lane's core, and each lane pays its own waitpid
// wakeup whenever a stop finds it idle.

#ifndef SRC_KERNEL_PTRACE_H_
#define SRC_KERNEL_PTRACE_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

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

// Per-tracer event channel. One GHUMVEE instance owns one hub covering all replicas,
// split into one lane per rank.
class PtraceHub {
 public:
  // One monitor thread's share of the channel: the events of one rank's threads.
  struct Lane {
    std::deque<PtraceEvent> queue;
    std::coroutine_handle<> waiter;
    // Scheduling identity for CPU cost accounting: a kernel-issued id no tid or
    // other monitor lane shares, and the core it last ran on.
    uint64_t entity = 0;
    int core = -1;
  };
  // Returns the coroutine that serves a newly opened lane; it starts parked as the
  // lane's waiter, so the lane's first event pays the wakeup like every later one.
  using LaneOpener = std::function<std::coroutine_handle<>(int rank)>;

  PtraceHub(Kernel* kernel, LaneOpener opener);
  PtraceHub(const PtraceHub&) = delete;
  PtraceHub& operator=(const PtraceHub&) = delete;

  // The machine whose cores every lane runs on (the leader's).
  uint32_t monitor_machine = 0;

  // The lane serving `rank`, or nullptr before its first event.
  Lane* lane(int rank) const {
    return rank >= 0 && static_cast<size_t>(rank) < lanes_.size()
               ? lanes_[static_cast<size_t>(rank)].get()
               : nullptr;
  }

  // Pushes an event onto its rank's lane (kProcessExit: lane 0), opening the lane on
  // first use, and wakes the lane's waiting monitor (charging the waitpid wakeup).
  void Push(const PtraceEvent& ev);
  // The last replica exited: every lane's NextEvent yields nullopt once its queue
  // is drained, which ends its monitor.
  void Close();

  // Awaitable used by a lane's monitor coroutine: resumes when an event is available
  // (or with nullopt when the hub is closed and the lane drained).
  struct EventAwaiter {
    PtraceHub* hub;
    Lane* lane;
    bool await_ready() const { return !lane->queue.empty() || hub->closed_; }
    void await_suspend(std::coroutine_handle<> h) { lane->waiter = h; }
    std::optional<PtraceEvent> await_resume() {
      if (lane->queue.empty()) {
        return std::nullopt;
      }
      PtraceEvent ev = lane->queue.front();
      lane->queue.pop_front();
      return ev;
    }
  };
  EventAwaiter NextEvent(int rank) { return EventAwaiter{this, lane(rank)}; }
  // The tracer has handled `ev` and keeps no reference to its thread through it.
  // An event pins its thread from Push to Done — a dead thread can still post its
  // exit stop after its kThreadExit — so the kernel never reaps a thread the
  // tracer is about to look at.
  void Done(const PtraceEvent& ev);

 private:
  Kernel* kernel_;
  LaneOpener opener_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // Indexed by rank; null until opened.
  bool closed_ = false;
};

}  // namespace remon

#endif  // SRC_KERNEL_PTRACE_H_
