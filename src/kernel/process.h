// Kernel process objects.

#ifndef SRC_KERNEL_PROCESS_H_
#define SRC_KERNEL_PROCESS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/abi.h"
#include "src/kernel/thread.h"
#include "src/mem/address_space.h"
#include "src/mem/layout.h"
#include "src/sim/task.h"
#include "src/vfs/file.h"

namespace remon {

class Kernel;
class Guest;
class SyncAgent;

// Guest signal handler body.
using SignalHandlerFn = std::function<GuestTask<void>(Guest&, int)>;

// Hook installed on replica processes by the IK-B broker (src/core/broker). The
// kernel consults it on every system call before following its default path.
class SyscallGate {
 public:
  virtual ~SyscallGate() = default;
  // Returns true when the gate takes ownership of the call (it must eventually invoke
  // Kernel::CompleteSyscall). Returning false routes the call down the default path
  // (ptrace stops when traced, direct execution otherwise).
  virtual bool Intercept(Thread* thread) = 0;
};

class PtraceHub;

// IP-MON registration state (paper §3.5): which calls IP-MON may handle, where the
// replication buffer lives, and the entry-point cookie.
struct IpmonRegistration {
  bool registered = false;
  std::vector<bool> unmonitored;  // Indexed by Sys.
  GuestAddr rb_addr = 0;
  uint64_t entry_cookie = 0;
};

class Process {
 public:
  Process(Kernel* kernel, int pid, std::string name, uint32_t machine)
      : kernel_(kernel), pid_(pid), name_(std::move(name)), machine_(machine) {}
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  Kernel* kernel() const { return kernel_; }
  int pid() const { return pid_; }
  const std::string& name() const { return name_; }
  uint32_t machine() const { return machine_; }

  AddressSpace& mem() { return mem_; }
  FdTable& fds() { return fds_; }

  // --- Kernel-internal state -------------------------------------------------------

  std::string cwd = "/";
  LayoutPlan layout;
  GuestAddr brk_start = 0;
  GuestAddr brk_cur = 0;
  GuestAddr alloc_cursor = 0;  // Bump allocator for Guest::Alloc (static-data analog).
  double mem_intensity = 0.0;  // Workload memory pressure in [0, 1].

  // Threads the kernel still holds, in spawn order (owned by Kernel): the live
  // ones, the exited ones not yet reaped, and the leader (threads[0]), which stays
  // until the process itself goes — like a Linux thread-group leader's zombie.
  std::vector<Thread*> threads;
  // Threads ever spawned: the next thread's rank (and stack slot). Never reused.
  int threads_spawned = 0;
  bool exited = false;
  int exit_code = 0;

  // Signal handling: disposition per signal; handler cookies index handler_fns.
  // Deques: elements never relocate, and a suspended handler coroutine keeps a
  // reference into its callable (lambda captures live in the lambda object).
  std::array<GuestSigaction, kNumSignals> sigactions{};
  std::deque<SignalHandlerFn> handler_fns;

  // Thread entry points registered for clone(), keyed by the index passed as the
  // syscall arg (identical across replicas). clone() consumes its registration.
  std::map<uint64_t, ProgramFn> thread_fns;
  uint64_t thread_fns_registered = 0;

  // Interval timer (setitimer/alarm).
  EventQueue::EventId itimer_event = 0;
  DurationNs itimer_interval = 0;

  // MVEE hooks.
  SyscallGate* gate = nullptr;  // IK-B; not owned.
  PtraceHub* tracer = nullptr;  // GHUMVEE's ptrace channel; not owned.
  int replica_index = -1;       // >= 0 when this process is a managed replica.
  IpmonRegistration ipmon;
  // This replica's record/replay agent (set at SyncAgent::Initialize; null when
  // the workload runs without one). Multi-threaded workloads wrap their racy
  // user-space synchronization in sync_agent->BeforeAcquire(...).
  SyncAgent* sync_agent = nullptr;  // Not owned.

  // System V shm attachments: start address -> shmid.
  std::map<GuestAddr, int> shm_attachments;

  // CPU time of the threads already reaped.
  DurationNs reaped_cpu_ns = 0;

  // Aggregate CPU time of finished+live threads (for times()/getrusage()).
  DurationNs TotalCpuNs() const {
    DurationNs total = reaped_cpu_ns;
    for (const Thread* t : threads) {
      total += t->cpu_time_ns;
    }
    return total;
  }

 private:
  friend class Kernel;  // MoveProcess re-places machine_.

  Kernel* kernel_;
  int pid_;
  std::string name_;
  uint32_t machine_;
  AddressSpace mem_;
  FdTable fds_;
};

}  // namespace remon

#endif  // SRC_KERNEL_PROCESS_H_
