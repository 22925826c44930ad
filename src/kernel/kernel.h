// The simulated kernel.
//
// Owns processes and threads, dispatches the ~100 simulated system calls against the
// VFS/network/memory substrates, implements blocking (wait queues + timeouts +
// signal interruption), futexes, signals, timers, and the two MVEE attachment points:
//
//  * ptrace  — GHUMVEE attaches a PtraceHub to replica processes and receives
//              syscall-entry/exit and signal-delivery stops (paper §2, §3.8);
//  * SyscallGate — the IK-B broker installs a gate consulted on *every* system call
//              before the default path, mirroring the in-kernel dispatch hook the
//              paper adds with a 97-LoC kernel patch (§3).
//
// Everything is driven by the discrete-event Simulator; the kernel never blocks the
// host thread.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/kernel/futex.h"
#include "src/kernel/process.h"
#include "src/kernel/ptrace.h"
#include "src/kernel/thread.h"
#include "src/mem/layout.h"
#include "src/mem/shm.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/vfs/fs.h"

namespace remon {

class Guest;
struct RetryCtx;
struct SyscallDesc;

class Kernel {
 public:
  // Syscall completion continuation. Inline (no heap): capacity fits the fattest
  // hot completion (CompleteSyscall bound to a thread, IP-MON's reply path).
  using Done = InlineFunction<void(int64_t), 64>;
  // BlockingRetry pieces. `attempt` re-runs the non-blocking body; the queue
  // provider *fills* a reused vector (no per-retry vector return).
  using AttemptFn = InlineFunction<int64_t(), 112>;
  using QueueFn = InlineFunction<void(std::vector<WaitQueue*>&), 64>;
  using WakeFn = InlineFunction<void(WakeReason), 96>;
  using ResumeFn = InlineFunction<void(const PtraceAction&), 128>;
  // A continuation on a thread's core. The kernel wraps it (with the thread) in the
  // event that runs it, so it is sized to leave that wrapper within
  // EventQueue::Callback.
  using ThreadFn = InlineFunction<void(), 112>;

  Kernel(Simulator* sim, Filesystem* fs, Network* net, ShmRegistry* shm);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Simulator* sim() const { return sim_; }
  Filesystem* fs() const { return fs_; }
  Network* net() const { return net_; }
  ShmRegistry* shm() const { return shm_; }
  TimeNs now() const { return sim_->now(); }
  FutexTable& futex() { return futex_; }

  // --- Process / thread management --------------------------------------------

  // Creates a process with the standard region layout (code/heap/stack VMAs mapped).
  // A `replica_index` >= 0 makes it a managed replica: it counts toward the
  // memory contention of its machine until it exits.
  Process* CreateProcess(std::string name, uint32_t machine, const LayoutPlan& plan,
                         int replica_index = -1);
  // Places a live process on another machine (a replica re-spawned elsewhere): its
  // threads run on that machine's cores and its contention moves with it.
  void MoveProcess(Process* process, uint32_t machine);

  // Spawns a thread running `fn`; it starts at the current virtual time (plus
  // scheduling delay). Its rank is the process's spawn count: ranks, and the stack
  // slots they index, are never reused.
  Thread* SpawnThread(Process* process, ProgramFn fn);
  // Top of the stack of the thread of rank `rank` in `process`.
  static GuestAddr ThreadStackTop(const Process& process, int rank);

  // Terminates a whole process (exit_group semantics).
  void TerminateProcess(Process* process, int exit_code);
  // Terminates a process because of a fatal signal (records it; notifies tracer).
  void KillProcessBySignal(Process* process, int sig);

  const std::vector<std::unique_ptr<Process>>& processes() const { return processes_; }
  // Live (non-exited) threads of a process.
  static int LiveThreadCount(const Process* process);
  // Threads the kernel still holds across all processes: the live ones, the
  // exited ones not yet reaped and each process's leader.
  size_t thread_count() const { return threads_.size(); }

  // Live replica processes on `machine`: the memory-contention count that dilates
  // their guest compute.
  int live_replicas_on(uint32_t machine) const {
    return machine < live_replicas_.size() ? live_replicas_[machine] : 0;
  }

  // --- System call entry points -------------------------------------------------

  // Called by the Guest syscall awaitable: full path (gate -> ptrace -> execute).
  void OnSyscallFromGuest(Thread* t, const SyscallRequest& req, int64_t* result_slot,
                          std::coroutine_handle<> h);

  // Executes a system call directly (no gate, no ptrace), including blocking
  // semantics. Used by the kernel default path and by IP-MON's token-authorized
  // restart (IK-B verifier path).
  void ExecuteSyscall(Thread* t, const SyscallRequest& req, Done done);

  // Routes a system call through the ptrace path (entry stop -> execute -> exit
  // stop). Used by the default path for traced processes and by IP-MON when it
  // destroys its token to force CP monitoring (paper fig. 2 step 4').
  void ExecuteSyscallTraced(Thread* t, Done done);

  // Delivers the final result to the guest coroutine (after signal checks); the
  // normal completion for OnSyscallFromGuest-initiated calls.
  void CompleteSyscall(Thread* t, int64_t result);

  // --- Scheduling helpers ---------------------------------------------------------

  // Runs `fn` after occupying the thread's core, on its process's machine, for
  // `duration`. The queued event pins the thread: it is not reaped before `fn` has
  // run.
  void RunOnThreadCore(Thread* t, DurationNs duration, ThreadFn fn);
  // Guest compute burst: applies the memory-contention dilation of the live
  // replicas on the thread's machine.
  void RunGuestCompute(Thread* t, DurationNs duration, ThreadFn fn);
  // Runs `fn` after occupying an entity's core on `machine`: a monitor lane's, or a
  // thread's through RunOnThreadCore. The one call site of the CPU grant.
  void RunOnEntity(uint32_t machine, uint64_t entity, int* core_slot, DurationNs duration,
                   EventQueue::Callback fn);
  // Resumes a parked coroutine handle on the thread's core after `delay`.
  void ResumeHandleOnThread(Thread* t, std::coroutine_handle<> h, DurationNs delay);

  // --- Blocking ----------------------------------------------------------------

  // Parks `t` until any queue wakes it, the deadline passes, or (if interruptible) a
  // signal arrives. `on_wake` runs exactly once with the reason.
  void BlockThread(Thread* t, std::span<WaitQueue* const> queues, TimeNs deadline,
                   bool interruptible, WakeFn on_wake);
  void BlockThread(Thread* t, std::initializer_list<WaitQueue*> queues, TimeNs deadline,
                   bool interruptible, WakeFn on_wake) {
    BlockThread(t, std::span<WaitQueue* const>(queues.begin(), queues.size()), deadline,
                interruptible, std::move(on_wake));
  }
  void CancelWait(Thread* t);

  // Retries `attempt` until it stops returning -EAGAIN, blocking on the queues
  // `queue_provider` fills in between. Deadline semantics: on timeout, completes with
  // `timeout_result`. The retry state (attempt/provider/done plus the queue vector)
  // is moved once into a pooled RetryCtx; retries re-dispatch through it instead of
  // re-capturing per cycle.
  void BlockingRetry(Thread* t, AttemptFn attempt, QueueFn queue_provider,
                     TimeNs deadline, int64_t timeout_result, Done done);

  // --- ptrace ---------------------------------------------------------------------

  // Attaches a tracer to a process; all its threads (current and future) stop at
  // syscall entry/exit and signal delivery.
  void PtraceAttach(Process* process, PtraceHub* hub);
  // Resumes a ptrace-stopped thread with the tracer's decision.
  void PtraceResume(Thread* t, const PtraceAction& action);
  // The tracer is done with exited tracee `t` (waitpid collected its exit): it
  // holds no reference to it any more, so the kernel may reap it. Until then a
  // traced thread outlives its exit.
  void PtraceRelease(Thread* t);
  // Tracer-side memory access (process_vm_readv/writev analogs). Returns false on
  // fault. Costs are charged by the caller (monitor) via its own compute awaits.
  bool TracerRead(Process* p, GuestAddr addr, void* out, uint64_t len);
  bool TracerWrite(Process* p, GuestAddr addr, const void* data, uint64_t len);

  // --- Auxiliary coroutines -------------------------------------------------------

  // Runs an auxiliary coroutine on the thread's timeline (IP-MON handler bodies,
  // signal handlers); `on_done` fires after it completes (skipped if the thread died).
  // The completion context is embedded in the coroutine's own promise (task.h
  // AuxFrame) and the frame is linked into t->aux_list — no side allocations.
  void StartAuxCoroutine(Thread* t, GuestTask<void> task,
                         InlineFunction<void(), 64> on_done);

  // The Guest facade bound to a thread.
  Guest* GuestFor(Thread* t);

  // --- Signals -------------------------------------------------------------------

  // Posts a signal to a process (picks a thread) or a specific thread.
  void PostSignal(Process* process, int sig);
  void PostSignalToThread(Thread* t, int sig);
  // Aborts a thread's interruptible sleep without posting a signal; the in-flight
  // operation completes with -EINTR. GHUMVEE uses this to kick a master replica out
  // of a blocking unmonitored call so it restarts it as a monitored call (§3.8).
  // Returns false if the thread was not in an interruptible sleep.
  bool InterruptBlockedSyscall(Thread* t);
  // Runs the registered handler (or default action) for the next deliverable pending
  // signal, then `then`. Called at kernel-exit points.
  void MaybeDeliverSignals(Thread* t, std::function<void()> then);
  // True if the default action of `sig` terminates the process.
  static bool IsFatalByDefault(int sig);

  // --- Guest-space helpers used by syscalls, monitors, and workloads ------------

  // Copies with permission checks; returns -EFAULT on failure, else 0.
  int CopyIn(Process* p, void* dst, GuestAddr src, uint64_t len) {
    return p->mem().Read(src, dst, len).ok ? 0 : -kEFAULT;
  }
  int CopyOut(Process* p, GuestAddr dst, const void* src, uint64_t len) {
    return p->mem().Write(dst, src, len).ok ? 0 : -kEFAULT;
  }

  // --- Statistics ------------------------------------------------------------------

  SimStats& stats() { return sim_->stats(); }

 private:
  friend class Guest;
  friend class PtraceHub;

  // Default path after the gate declined: ptrace stops when traced, else direct.
  void DefaultSyscallPath(Thread* t);
  void PtraceStop(Thread* t, PtraceEvent::Kind kind, int sig, ResumeFn on_resume);
  // CompleteSyscall tail once signal delivery (if any) has been handled.
  void FinishCompleteSyscall(Thread* t, int64_t result);

  // Adds `delta` to the live-replica count of `machine`.
  void CountReplica(uint32_t machine, int delta);
  // A fresh scheduling identity for a monitor lane's CPU charges (PtraceHub),
  // distinct from every tid and from every other lane's.
  uint64_t NewMonitorEntity() { return kMonitorEntityBase + next_monitor_entity_++; }

  // Thread/process teardown.
  void OnRootFinished(Thread* t);
  void KillThread(Thread* t, bool notify_tracer);
  void ReapFramesLater(Thread* t);
  // Drops a pin taken for a queued event that captures `t` (the event just ran).
  void Unpin(Thread* t);
  // Destroys `t` — its Thread, Guest, program callable and stack — once it is dead,
  // its frames are gone, nothing pins it and no tracer holds it. The leader stays.
  void MaybeReap(Thread* t);

  void FinishWait(Thread* t, WakeReason reason);
  void ArmItimer(Process* p, DurationNs value, DurationNs interval);

  // BlockingRetry internals: one blocking cycle over a pooled context.
  void RetryBlock(RetryCtx* c);
  RetryCtx* AcquireRetryCtx();
  void ReleaseRetryCtx(RetryCtx* c);

  // Signal helpers.
  void RunSignalHandler(Thread* t, int sig, std::function<void()> then);

  // --- Syscall implementations (syscalls_*.cc) ----------------------------------
  int64_t SysFast(Thread* t, const SyscallRequest& req);  // Non-blocking calls.
  // The read and write families: one body per direction, shaped by the row.
  void SysRead(Thread* t, const SyscallRequest& req, const SyscallDesc& d, Done done);
  void SysWrite(Thread* t, const SyscallRequest& req, const SyscallDesc& d, Done done);
  void SysSendfile(Thread* t, const SyscallRequest& req, Done done);
  void SysAccept(Thread* t, const SyscallRequest& req, bool accept4, Done done);
  void SysConnect(Thread* t, const SyscallRequest& req, Done done);
  void SysPoll(Thread* t, const SyscallRequest& req, Done done);
  void SysSelect(Thread* t, const SyscallRequest& req, Done done);
  void SysEpollWait(Thread* t, const SyscallRequest& req, Done done);
  void SysNanosleep(Thread* t, const SyscallRequest& req, Done done);
  void SysFutex(Thread* t, const SyscallRequest& req, Done done);
  void SysPause(Thread* t, const SyscallRequest& req, Done done);

  // Helpers shared by syscall implementations.
  std::shared_ptr<FileDescription> Fd(Thread* t, int fd);
  int InstallFile(Thread* t, std::shared_ptr<File> file, int flags);
  // The blocking tail of read, write, sendfile and accept: one attempt on a
  // non-blocking description, else retries until the attempt stops returning
  // -EAGAIN, waiting on the description's file in between.
  void RetryWhileAgain(Thread* t, const FileDescription& desc, AttemptFn attempt, Done done);
  // Reads up to `len` bytes at `offset` into io_scratch_, sized by what the file
  // can return now.
  int64_t ReadToScratch(FileDescription* desc, uint64_t len, uint64_t offset);
  // Writes `len` bytes of `data` at the file's end under O_APPEND, else at `pofs`
  // or the description's offset, which a non-positional write to a seekable file
  // advances; a stream ignores the offset. The write family and sendfile share it.
  int64_t WriteAtPosition(FileDescription* desc, const void* data, uint64_t len,
                          std::optional<uint64_t> pofs);
  int64_t FillStatFor(Thread* t, std::shared_ptr<Inode> inode, GuestAddr out);

  Simulator* sim_;
  Filesystem* fs_;
  Network* net_;
  ShmRegistry* shm_;
  FutexTable futex_;

  // Monitor entities start above every possible tid (an int).
  static constexpr uint64_t kMonitorEntityBase = uint64_t{1} << 32;
  // The heap VMA every process maps at layout.heap_base; brk moves in its upper half.
  static constexpr uint64_t kHeapRegionSize = 64 * 1024 * 1024;

  int next_pid_ = 100;
  int next_tid_ = 100;
  uint64_t next_monitor_entity_ = 0;
  std::vector<int> live_replicas_;  // Indexed by machine id.
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<Thread>> threads_;  // Unordered: reaping swaps out.

  // Pooled BlockingRetry contexts (arena + free list; see RetryCtx in kernel.cc).
  std::vector<std::unique_ptr<RetryCtx>> retry_arena_;
  RetryCtx* retry_free_ = nullptr;

  // Bounce buffer for guest<->VFS copies (ReadToScratch, the write family). Reused
  // across calls — resize() keeps capacity — and never held across a suspension
  // point.
  std::vector<uint8_t> io_scratch_;
};

}  // namespace remon

#endif  // SRC_KERNEL_KERNEL_H_
