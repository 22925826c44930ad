#include "src/kernel/kernel.h"

#include <algorithm>

#include "src/kernel/guest.h"
#include "src/kernel/guest_time.h"
#include "src/sim/check.h"

namespace remon {

namespace {

constexpr uint64_t kStackSize = 1024 * 1024;
constexpr uint64_t kStackStride = 4 * 1024 * 1024;

uint64_t SigBit(int sig) { return 1ULL << (sig - 1); }

}  // namespace

// Pooled state for one BlockingRetry cycle. The attempt/provider/done closures move
// in here exactly once; every retry re-dispatches through the context instead of
// re-capturing them into a fresh wake closure. Contexts recycle through the kernel's
// free list (retry_free_), so steady-state blocking I/O never allocates.
struct RetryCtx {
  Kernel* kernel = nullptr;
  Thread* thread = nullptr;
  Kernel::AttemptFn attempt;
  Kernel::QueueFn queue_provider;
  TimeNs deadline = 0;
  int64_t timeout_result = 0;
  Kernel::Done done;
  // Reused scratch the queue provider fills each cycle (capacity persists).
  std::vector<WaitQueue*> queues;
  RetryCtx* next_free = nullptr;
};

Kernel::Kernel(Simulator* sim, Filesystem* fs, Network* net, ShmRegistry* shm)
    : sim_(sim), fs_(fs), net_(net), shm_(shm) {}

Kernel::~Kernel() {
  // Deregister every parked thread from its wait queues first: members destroy in
  // reverse declaration order, so threads_ is freed before processes_ — and tearing
  // down a process's descriptor table can Wake() file queues (a connected socket
  // notifies poll on close). A stale BlockThread callback would then resume into a
  // freed Thread.
  for (auto& t : threads_) {
    CancelWait(t.get());
  }
  // Destroy still-live coroutine frames before members go away. Cancel any pending
  // aux completion event first: it captures the promise we are about to destroy.
  for (auto& t : threads_) {
    if (t->root_frame) {
      t->root_frame.destroy();
      t->root_frame = nullptr;
    }
    while (!t->aux_list.empty()) {
      AuxList::Promise* p = t->aux_list.head();
      if (p->aux.done_event != 0) {
        sim_->queue().Cancel(p->aux.done_event);
        p->aux.done_event = 0;
      }
      t->aux_list.Remove(p);
      p->frame().destroy();
    }
  }
}

Thread::Thread(Kernel* kernel, Process* process, int tid, int rank)
    : kernel_(kernel), process_(process), tid_(tid), rank_(rank) {}

Thread::~Thread() = default;

int Kernel::LiveThreadCount(const Process* process) {
  int n = 0;
  for (const Thread* t : process->threads) {
    if (t->alive()) {
      ++n;
    }
  }
  return n;
}

Process* Kernel::CreateProcess(std::string name, uint32_t machine, const LayoutPlan& plan,
                              int replica_index) {
  auto proc = std::make_unique<Process>(this, next_pid_++, std::move(name), machine);
  Process* p = proc.get();
  p->layout = plan;
  p->replica_index = replica_index;
  if (replica_index >= 0) {
    CountReplica(machine, 1);
  }
  // Map the standard regions: program text and the heap. Demand-paged like every
  // mapping: a replica set costs VMA bookkeeping at creation, not tens of MiB of
  // zeroed frames per process.
  REMON_CHECK(p->mem().MapFixed(plan.code_base, plan.code_size, kProtRead | kProtExec,
                                /*shared=*/false, p->name() + "-text"));
  REMON_CHECK(p->mem().MapFixed(plan.heap_base, kHeapRegionSize, kProtRead | kProtWrite,
                                /*shared=*/false, "[heap]"));
  p->brk_start = plan.heap_base + kHeapRegionSize / 2;
  p->brk_cur = p->brk_start;
  p->alloc_cursor = plan.heap_base;
  // /proc/<pid>/maps.
  fs_->Mkdir("/proc/" + std::to_string(p->pid()));
  fs_->RegisterSpecial("/proc/" + std::to_string(p->pid()) + "/maps",
                       [p] { return p->mem().RenderMaps(); });
  processes_.push_back(std::move(proc));
  return p;
}

void Kernel::MoveProcess(Process* process, uint32_t machine) {
  if (process->replica_index >= 0 && !process->exited) {
    CountReplica(process->machine_, -1);
    CountReplica(machine, 1);
  }
  process->machine_ = machine;
}

void Kernel::CountReplica(uint32_t machine, int delta) {
  if (machine >= live_replicas_.size()) {
    live_replicas_.resize(machine + 1, 0);
  }
  live_replicas_[machine] += delta;
  REMON_CHECK(live_replicas_[machine] >= 0);
}

GuestAddr Kernel::ThreadStackTop(const Process& process, int rank) {
  return process.layout.stack_top - static_cast<uint64_t>(rank) * kStackStride;
}

Thread* Kernel::SpawnThread(Process* process, ProgramFn fn) {
  int rank = process->threads_spawned++;
  auto thread = std::make_unique<Thread>(this, process, next_tid_++, rank);
  Thread* t = thread.get();
  process->threads.push_back(t);

  // Per-thread stack region.
  REMON_CHECK(process->mem().MapFixed(ThreadStackTop(*process, rank) - kStackSize, kStackSize,
                                      kProtRead | kProtWrite, /*shared=*/false, "[stack]"));

  t->guest_facade = std::make_unique<Guest>(t);
  // The coroutine frame references the lambda object's captures, so the callable
  // lives in the (never moving) Thread as long as the coroutine.
  t->program = std::move(fn);
  GuestTask<void> task = t->program(*t->guest_facade);
  t->root_frame = task.ReleaseAsRoot(
      [](void* arg) {
        Thread* self = static_cast<Thread*>(arg);
        self->kernel()->OnRootFinished(self);
      },
      t);

  t->set_state(ThreadState::kRunnable);
  threads_.push_back(std::move(thread));
  // First schedule: start the program body.
  RunOnThreadCore(t, 0, [t] {
    if (t->alive()) {
      t->root_frame.resume();
    }
  });
  if (process->tracer != nullptr && rank > 0) {
    process->tracer->Push(PtraceEvent{PtraceEvent::Kind::kThreadNew, t, 0});
  }
  return t;
}

void Kernel::OnRootFinished(Thread* t) {
  t->root_finished = true;
  // Defer exit processing out of the coroutine's final-suspend context.
  ++t->pins;
  sim_->queue().ScheduleAfter(0, [this, t] {
    if (t->alive()) {
      KillThread(t, true);
      Process* p = t->process();
      if (!p->exited && LiveThreadCount(p) == 0) {
        TerminateProcess(p, p->exit_code);
      }
    }
    Unpin(t);
  });
}

void Kernel::KillThread(Thread* t, bool notify_tracer) {
  if (!t->alive()) {
    return;
  }
  CancelWait(t);
  t->set_state(ThreadState::kExited);
  t->MarkDead();
  if (t->process()->tracer != nullptr) {
    // The tracer may still reference the thread (a parked lockstep arrival, an
    // injected-signal mask) until it consumes the exit: kThreadExit, or the
    // process's kProcessExit when exit_group took the thread down with it.
    t->ptrace_held = true;
    if (notify_tracer) {
      t->process()->tracer->Push(PtraceEvent{PtraceEvent::Kind::kThreadExit, t, 0});
    }
  }
  ReapFramesLater(t);
}

void Kernel::ReapFramesLater(Thread* t) {
  ++t->pins;
  sim_->queue().ScheduleAfter(0, [this, t] {
    if (t->root_frame) {
      t->root_frame.destroy();
      t->root_frame = nullptr;
    }
    while (!t->aux_list.empty()) {
      AuxList::Promise* p = t->aux_list.head();
      if (p->aux.done_event != 0) {
        sim_->queue().Cancel(p->aux.done_event);
        p->aux.done_event = 0;
      }
      t->aux_list.Remove(p);
      p->frame().destroy();
    }
    Unpin(t);
  });
}

void Kernel::Unpin(Thread* t) {
  REMON_CHECK(t->pins > 0);
  if (--t->pins == 0) {
    MaybeReap(t);
  }
}

void Kernel::MaybeReap(Thread* t) {
  Process* p = t->process();
  if (t->alive() || t->pins > 0 || t->ptrace_held || t->wait.active || t->root_frame ||
      !t->aux_list.empty() || t == p->threads.front()) {
    return;
  }
  p->reaped_cpu_ns += t->cpu_time_ns;
  p->mem().Unmap(ThreadStackTop(*p, t->rank()) - kStackSize, kStackSize);
  // Spawn order is kept: signal routing picks the first eligible thread.
  p->threads.erase(std::find(p->threads.begin(), p->threads.end(), t));
  auto it = std::find_if(threads_.begin(), threads_.end(),
                         [t](const std::unique_ptr<Thread>& owned) { return owned.get() == t; });
  REMON_CHECK(it != threads_.end());
  std::swap(*it, threads_.back());
  threads_.pop_back();
}

void Kernel::TerminateProcess(Process* process, int exit_code) {
  if (process->exited) {
    return;
  }
  process->exited = true;
  process->exit_code = exit_code;
  if (process->replica_index >= 0) {
    CountReplica(process->machine(), -1);
  }
  for (Thread* t : process->threads) {
    KillThread(t, false);
  }
  // Close all descriptors (sends FINs, releases pipes).
  for (int fd : process->fds().LiveFds()) {
    process->fds().Close(fd);
  }
  // Detach shared memory.
  for (const auto& [addr, shmid] : process->shm_attachments) {
    shm_->OnDetach(shmid);
  }
  process->shm_attachments.clear();
  if (process->itimer_event != 0) {
    sim_->queue().Cancel(process->itimer_event);
    process->itimer_event = 0;
  }
  if (process->tracer != nullptr) {
    process->tracer->Push(
        PtraceEvent{PtraceEvent::Kind::kProcessExit, nullptr, exit_code, process});
  }
}

void Kernel::KillProcessBySignal(Process* process, int sig) {
  TerminateProcess(process, 128 + sig);
}

// --- Scheduling ---------------------------------------------------------------------

void Kernel::RunOnThreadCore(Thread* t, DurationNs duration, ThreadFn fn) {
  t->cpu_time_ns += duration;
  ++t->pins;
  RunOnEntity(t->process()->machine(), static_cast<uint64_t>(t->tid()), &t->last_core,
              duration, [this, t, fn = std::move(fn)] {
                fn();
                Unpin(t);
              });
}

void Kernel::RunGuestCompute(Thread* t, DurationNs duration, ThreadFn fn) {
  DurationNs dilated = duration;
  const Process* p = t->process();
  if (p->replica_index >= 0) {
    dilated = static_cast<DurationNs>(
        static_cast<double>(duration) *
        sim_->costs().ComputeDilation(p->mem_intensity, live_replicas_on(p->machine())));
  }
  RunOnThreadCore(t, dilated, std::move(fn));
}

void Kernel::RunOnEntity(uint32_t machine, uint64_t entity, int* core_slot,
                         DurationNs duration, EventQueue::Callback fn) {
  CpuPool::RunGrant grant =
      sim_->cpus().Acquire(machine, entity, sim_->now(), duration, *core_slot);
  *core_slot = grant.core;
  sim_->queue().ScheduleAt(grant.end, std::move(fn));
}

void Kernel::ResumeHandleOnThread(Thread* t, std::coroutine_handle<> h, DurationNs delay) {
  RunOnThreadCore(t, delay, [t, h] {
    if (t->alive()) {
      h.resume();
    }
  });
}

// --- Blocking -------------------------------------------------------------------------

void Kernel::BlockThread(Thread* t, std::span<WaitQueue* const> queues, TimeNs deadline,
                         bool interruptible, WakeFn on_wake) {
  REMON_CHECK(!t->wait.active);
  // A deliverable pending signal aborts the sleep immediately.
  if (interruptible && t->signal_deliverable()) {
    ++t->pins;
    sim_->queue().ScheduleAfter(0, [this, t, cb = std::move(on_wake)] {
      cb(WakeReason::kSignal);
      Unpin(t);
    });
    return;
  }
  t->wait.active = true;
  t->wait.interruptible = interruptible;
  t->wait.on_wake = std::move(on_wake);
  t->wait.waiters.clear();
  t->set_state(ThreadState::kBlocked);
  for (WaitQueue* q : queues) {
    uint64_t id = q->AddWaiter([this, t] { FinishWait(t, WakeReason::kNotified); });
    t->wait.waiters.emplace_back(q, id);
  }
  if (deadline != kTimeNever) {
    t->wait.timeout_event = sim_->queue().ScheduleAt(deadline, [this, t] {
      t->wait.timeout_event = 0;
      FinishWait(t, WakeReason::kTimeout);
    });
  } else {
    t->wait.timeout_event = 0;
  }
}

void Kernel::FinishWait(Thread* t, WakeReason reason) {
  if (!t->wait.active) {
    return;
  }
  t->wait.active = false;
  for (auto& [q, id] : t->wait.waiters) {
    q->Remove(id);
  }
  t->wait.waiters.clear();
  if (t->wait.timeout_event != 0) {
    sim_->queue().Cancel(t->wait.timeout_event);
    t->wait.timeout_event = 0;
  }
  // The wake closure (not us) owns releasing any retry context.
  t->wait.retry_ctx = nullptr;
  t->set_state(ThreadState::kRunnable);
  auto cb = std::move(t->wait.on_wake);
  t->wait.on_wake = nullptr;
  if (cb) {
    cb(reason);
  }
}

void Kernel::CancelWait(Thread* t) {
  if (!t->wait.active) {
    return;
  }
  t->wait.active = false;
  for (auto& [q, id] : t->wait.waiters) {
    q->Remove(id);
  }
  t->wait.waiters.clear();
  if (t->wait.timeout_event != 0) {
    sim_->queue().Cancel(t->wait.timeout_event);
    t->wait.timeout_event = 0;
  }
  // The wake closure will never run; reclaim the retry context it would have owned.
  if (t->wait.retry_ctx != nullptr) {
    ReleaseRetryCtx(t->wait.retry_ctx);
    t->wait.retry_ctx = nullptr;
  }
  t->wait.on_wake = nullptr;
}

RetryCtx* Kernel::AcquireRetryCtx() {
  if (retry_free_ == nullptr) {
    retry_arena_.push_back(std::make_unique<RetryCtx>());
    return retry_arena_.back().get();
  }
  RetryCtx* c = retry_free_;
  retry_free_ = c->next_free;
  c->next_free = nullptr;
  return c;
}

void Kernel::ReleaseRetryCtx(RetryCtx* c) {
  // Drop captured state now (shared_ptrs to files etc.), not at the next reuse.
  c->attempt = nullptr;
  c->queue_provider = nullptr;
  c->done = nullptr;
  c->queues.clear();
  c->next_free = retry_free_;
  retry_free_ = c;
}

void Kernel::BlockingRetry(Thread* t, AttemptFn attempt, QueueFn queue_provider,
                           TimeNs deadline, int64_t timeout_result, Done done) {
  REMON_CHECK_MSG(attempt != nullptr, "BlockingRetry: empty attempt");
  REMON_CHECK_MSG(queue_provider != nullptr, "BlockingRetry: empty queue_provider");
  REMON_CHECK_MSG(done != nullptr, "BlockingRetry: empty done");
  int64_t r = attempt();
  if (r != -kEAGAIN) {
    done(r);
    return;
  }
  if (deadline <= sim_->now()) {
    done(timeout_result);
    return;
  }
  RetryCtx* c = AcquireRetryCtx();
  c->kernel = this;
  c->thread = t;
  c->attempt = std::move(attempt);
  c->queue_provider = std::move(queue_provider);
  c->deadline = deadline;
  c->timeout_result = timeout_result;
  c->done = std::move(done);
  RetryBlock(c);
}

void Kernel::RetryBlock(RetryCtx* c) {
  c->queues.clear();
  c->queue_provider(c->queues);
  Thread* t = c->thread;
  BlockThread(t, std::span<WaitQueue* const>(c->queues), c->deadline,
              /*interruptible=*/true, [c](WakeReason reason) {
                Kernel* k = c->kernel;
                if (reason == WakeReason::kNotified) {
                  int64_t r = c->attempt();
                  if (r == -kEAGAIN && c->deadline > k->sim_->now()) {
                    k->RetryBlock(c);
                    return;
                  }
                  Done done = std::move(c->done);
                  int64_t result = (r == -kEAGAIN) ? c->timeout_result : r;
                  k->ReleaseRetryCtx(c);
                  done(result);
                  return;
                }
                Done done = std::move(c->done);
                int64_t result =
                    (reason == WakeReason::kTimeout) ? c->timeout_result : -kEINTR;
                k->ReleaseRetryCtx(c);
                done(result);
              });
  // BlockThread's pending-signal fast path completes without parking; the retry
  // context then belongs to the scheduled wake closure, not the wait record.
  if (t->wait.active) {
    t->wait.retry_ctx = c;
  }
}

// --- System call pipeline ------------------------------------------------------------

void Kernel::OnSyscallFromGuest(Thread* t, const SyscallRequest& req, int64_t* result_slot,
                                std::coroutine_handle<> h) {
  REMON_CHECK(!t->in_syscall);
  t->in_syscall = true;
  t->cur_req = req;
  t->result_slot = result_slot;
  t->syscall_waiter = h;
  ++sim_->stats().syscalls_total;
  RunOnThreadCore(t, sim_->costs().syscall_trap_ns, [this, t] {
    if (!t->alive()) {
      return;
    }
    Process* p = t->process();
    if (p->gate != nullptr && p->gate->Intercept(t)) {
      return;  // IK-B owns the call now.
    }
    DefaultSyscallPath(t);
  });
}

void Kernel::DefaultSyscallPath(Thread* t) {
  if (t->process()->tracer != nullptr) {
    ExecuteSyscallTraced(t, [this, t](int64_t r) { CompleteSyscall(t, r); });
  } else {
    ExecuteSyscall(t, t->cur_req, [this, t](int64_t r) { CompleteSyscall(t, r); });
  }
}

void Kernel::ExecuteSyscallTraced(Thread* t, Done done) {
  // CP monitoring is the paper's slow path: one boxed continuation per traced call
  // keeps the nested stop closures within the inline callback capacities.
  auto boxed = std::make_shared<Done>(std::move(done));
  PtraceStop(t, PtraceEvent::Kind::kSyscallEntry, 0,
             [this, t, boxed](const PtraceAction& a) {
               auto to_exit_stop = [this, t, boxed](int64_t r) {
                 t->cur_result = r;
                 PtraceStop(t, PtraceEvent::Kind::kSyscallExit, 0,
                            [t, boxed](const PtraceAction& a2) {
                              (*boxed)(a2.override_result ? a2.result_override
                                                          : t->cur_result);
                            });
               };
               if (a.skip_syscall) {
                 to_exit_stop(a.injected_result);
               } else {
                 ExecuteSyscall(t, t->cur_req, std::move(to_exit_stop));
               }
             });
}

void Kernel::CompleteSyscall(Thread* t, int64_t result) {
  if (!t->alive()) {
    return;
  }
  t->in_syscall = false;
  if (!t->signal_deliverable()) {
    // Hot path: nothing deliverable, skip building the delivery continuation.
    FinishCompleteSyscall(t, result);
    return;
  }
  MaybeDeliverSignals(t, [this, t, result] { FinishCompleteSyscall(t, result); });
}

void Kernel::FinishCompleteSyscall(Thread* t, int64_t result) {
  if (!t->alive() || t->syscall_waiter == nullptr) {
    return;
  }
  *t->result_slot = result;
  std::coroutine_handle<> h = t->syscall_waiter;
  t->syscall_waiter = nullptr;
  ResumeHandleOnThread(t, h, sim_->costs().syscall_trap_ns / 2);
}

// --- ptrace ----------------------------------------------------------------------------

void Kernel::PtraceAttach(Process* process, PtraceHub* hub) {
  process->tracer = hub;
}

void Kernel::PtraceRelease(Thread* t) {
  REMON_CHECK(!t->alive());
  t->ptrace_held = false;
  MaybeReap(t);
}

void Kernel::PtraceStop(Thread* t, PtraceEvent::Kind kind, int sig, ResumeFn on_resume) {
  PtraceHub* hub = t->process()->tracer;
  if (hub == nullptr) {
    // Tracer vanished (monitor shutdown); act as if resumed with defaults. Cold
    // path: box the continuation rather than widening the event callback for it.
    auto boxed = std::make_shared<ResumeFn>(std::move(on_resume));
    ++t->pins;
    sim_->queue().ScheduleAfter(0, [this, t, boxed] {
      PtraceAction a;
      a.deliver_signal = true;
      (*boxed)(a);
      Unpin(t);
    });
    return;
  }
  // A thread has at most one parked resume continuation; a second stop before the
  // previous resume event fired would clobber it.
  REMON_CHECK(t->on_ptrace_resume == nullptr);
  t->set_state(ThreadState::kPtraceStopped);
  t->on_ptrace_resume = std::move(on_resume);
  ++sim_->stats().ptrace_stops;
  hub->Push(PtraceEvent{kind, t, sig});
}

void Kernel::PtraceResume(Thread* t, const PtraceAction& action) {
  REMON_CHECK(t->state() == ThreadState::kPtraceStopped);
  REMON_CHECK(t->on_ptrace_resume != nullptr);
  t->set_state(ThreadState::kRunnable);
  // The continuation stays parked on the thread and the action rides alongside it,
  // so the scheduled event captures only the thread pointer.
  t->pending_ptrace_action = action;
  // The resume costs a kernel round trip on the tracee side before it continues.
  ++t->pins;
  sim_->queue().ScheduleAfter(sim_->costs().ptrace_resume_ns, [this, t] {
    if (!t->alive()) {
      t->on_ptrace_resume = nullptr;
    } else {
      auto cb = std::move(t->on_ptrace_resume);
      t->on_ptrace_resume = nullptr;
      // Copy out: the continuation can trigger a nested stop/resume that overwrites
      // the pending slot while `a` is still referenced.
      PtraceAction a = t->pending_ptrace_action;
      cb(a);
    }
    Unpin(t);
  });
}

bool Kernel::TracerRead(Process* p, GuestAddr addr, void* out, uint64_t len) {
  sim_->stats().vm_copy_bytes += len;
  return p->mem().ReadUnchecked(addr, out, len).ok;
}

bool Kernel::TracerWrite(Process* p, GuestAddr addr, const void* data, uint64_t len) {
  sim_->stats().vm_copy_bytes += len;
  return p->mem().WriteUnchecked(addr, data, len).ok;
}

PtraceHub::PtraceHub(Kernel* kernel, LaneOpener opener)
    : kernel_(kernel), opener_(std::move(opener)) {}

void PtraceHub::Push(const PtraceEvent& ev) {
  int rank = ev.kind == PtraceEvent::Kind::kProcessExit ? 0 : ev.thread->rank();
  if (static_cast<size_t>(rank) >= lanes_.size()) {
    lanes_.resize(static_cast<size_t>(rank) + 1);
  }
  std::unique_ptr<Lane>& slot = lanes_[static_cast<size_t>(rank)];
  if (slot == nullptr) {
    slot = std::make_unique<Lane>();
    slot->entity = kernel_->NewMonitorEntity();
    slot->waiter = opener_(rank);
  }
  Lane& lane = *slot;
  if (ev.thread != nullptr) {
    ++ev.thread->pins;  // Until the tracer is Done with the event.
  }
  lane.queue.push_back(ev);
  if (lane.waiter) {
    std::coroutine_handle<> h = lane.waiter;
    lane.waiter = nullptr;
    // waitpid wakeup: the lane pays a stop-notification cost on its own core.
    ++kernel_->stats().ptrace_wakeups;
    kernel_->RunOnEntity(monitor_machine, lane.entity, &lane.core,
                         kernel_->sim()->costs().ptrace_stop_ns, [h] { h.resume(); });
  }
}

void PtraceHub::Close() {
  closed_ = true;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane != nullptr && lane->waiter) {
      std::coroutine_handle<> h = lane->waiter;
      lane->waiter = nullptr;
      kernel_->sim()->queue().ScheduleAfter(0, [h] { h.resume(); });
    }
  }
}

void PtraceHub::Done(const PtraceEvent& ev) {
  if (ev.thread != nullptr) {
    kernel_->Unpin(ev.thread);
  }
}

// --- Signals ----------------------------------------------------------------------------

bool Kernel::IsFatalByDefault(int sig) {
  switch (sig) {
    case kSIGCHLD:
      return false;
    default:
      return true;  // Simplified: most defaults terminate.
  }
}

void Kernel::PostSignal(Process* process, int sig) {
  if (process->exited) {
    return;
  }
  // Prefer a thread that does not block the signal.
  Thread* target = nullptr;
  for (Thread* t : process->threads) {
    if (!t->alive()) {
      continue;
    }
    if ((t->sig_blocked & SigBit(sig)) == 0) {
      target = t;
      break;
    }
    if (target == nullptr) {
      target = t;
    }
  }
  if (target != nullptr) {
    PostSignalToThread(target, sig);
  }
}

void Kernel::PostSignalToThread(Thread* t, int sig) {
  REMON_CHECK(sig >= 1 && sig < kNumSignals);
  if (!t->alive() || t->process()->exited) {
    return;
  }
  ++sim_->stats().signals_raised;
  if (sig == kSIGKILL) {
    TerminateProcess(t->process(), 128 + sig);
    return;
  }
  const GuestSigaction& act = t->process()->sigactions[static_cast<size_t>(sig)];
  if (act.handler == kSigIgn) {
    return;
  }
  if (act.handler == kSigDfl && !IsFatalByDefault(sig)) {
    return;
  }
  if (t->process()->tracer != nullptr && t->wait.active && t->wait.interruptible &&
      (t->sig_blocked & SigBit(sig)) == 0) {
    // Traced thread asleep in an interruptible call: Linux interrupts the call and
    // raises the signal-delivery stop *before* the call returns to user space. The
    // tracer may discard the signal (GHUMVEE defers it, setting the RB flag first,
    // §3.8), but the sleep aborts either way — GHUMVEE prevents the restart so the
    // replica re-enters through IK-B.
    auto on_wake = std::move(t->wait.on_wake);
    // The moved-out closure keeps ownership of any retry context; detach it so
    // CancelWait does not reclaim it underneath the deferred wake.
    t->wait.retry_ctx = nullptr;
    CancelWait(t);
    PtraceStop(t, PtraceEvent::Kind::kSignal, sig,
               [t, sig, on_wake = std::move(on_wake)](const PtraceAction& a) mutable {
                 if (a.deliver_signal) {
                   t->sig_pending |= SigBit(sig);
                 }
                 if (on_wake) {
                   on_wake(WakeReason::kSignal);
                 }
               });
    return;
  }
  t->sig_pending |= SigBit(sig);
  if (t->wait.active && t->wait.interruptible && (t->sig_blocked & SigBit(sig)) == 0) {
    FinishWait(t, WakeReason::kSignal);
  }
}

bool Kernel::InterruptBlockedSyscall(Thread* t) {
  if (!t->alive() || !t->wait.active || !t->wait.interruptible) {
    return false;
  }
  FinishWait(t, WakeReason::kSignal);
  return true;
}

void Kernel::MaybeDeliverSignals(Thread* t, std::function<void()> then) {
  uint64_t deliverable = t->sig_pending & ~t->sig_blocked;
  if (deliverable == 0 || !t->alive()) {
    then();
    return;
  }
  int sig = __builtin_ctzll(deliverable) + 1;
  t->sig_pending &= ~SigBit(sig);

  // Applies the signal's disposition, then loops back for further pending signals.
  auto deliver = [this, t, sig](std::function<void()> cont) {
    Process* p = t->process();
    const GuestSigaction& act = p->sigactions[static_cast<size_t>(sig)];
    if (act.handler == kSigIgn || (act.handler == kSigDfl && !IsFatalByDefault(sig))) {
      MaybeDeliverSignals(t, std::move(cont));
      return;
    }
    if (act.handler == kSigDfl) {
      KillProcessBySignal(p, sig);
      return;  // `cont` intentionally dropped: the process is gone.
    }
    RunSignalHandler(t, sig, [this, t, cont = std::move(cont)]() mutable {
      ++sim_->stats().signals_delivered;
      MaybeDeliverSignals(t, std::move(cont));
    });
  };

  if (t->process()->tracer != nullptr) {
    // Signal-delivery stop: the monitor decides whether to deliver or discard. On
    // discard (GHUMVEE defers and re-initiates delivery once all replicas are
    // synchronized, paper §2.2) the interrupted path continues unaffected.
    PtraceStop(t, PtraceEvent::Kind::kSignal, sig,
               [this, t, deliver, then = std::move(then)](const PtraceAction& a) mutable {
                 if (!a.deliver_signal) {
                   ++sim_->stats().signals_deferred;
                   MaybeDeliverSignals(t, std::move(then));
                   return;
                 }
                 deliver(std::move(then));
               });
    return;
  }
  deliver(std::move(then));
}

void Kernel::RunSignalHandler(Thread* t, int sig, std::function<void()> then) {
  Process* p = t->process();
  const GuestSigaction& act = p->sigactions[static_cast<size_t>(sig)];
  uint64_t cookie = act.handler;
  REMON_CHECK(cookie >= 2);
  size_t index = static_cast<size_t>(cookie - 2);
  REMON_CHECK(index < p->handler_fns.size());

  // Mask the signal for the duration of the handler.
  t->sig_blocked |= SigBit(sig);
  Guest* g = GuestFor(t);
  GuestTask<void> task = p->handler_fns[index](*g, sig);
  StartAuxCoroutine(t, std::move(task), [this, t, sig, then = std::move(then)]() mutable {
    t->sig_blocked &= ~SigBit(sig);
    then();
  });
}

void Kernel::StartAuxCoroutine(Thread* t, GuestTask<void> task,
                               InlineFunction<void(), 64> on_done) {
  // The completion context lives in the promise itself (task.h AuxFrame): no side
  // ownership to allocate or look up. Whoever destroys the frame — the deferred
  // completion event or the teardown walk, which cancels it via aux.done_event —
  // unlinks it from t->aux_list first.
  GuestTask<void>::Handle frame = task.handle();
  AuxList::Promise* p = &frame.promise();
  p->aux.kernel = this;
  p->aux.thread = t;
  p->aux.then = std::move(on_done);
  t->aux_list.PushBack(p);
  task.ReleaseAsRoot(
      [](void* arg) {
        auto* pr = static_cast<AuxList::Promise*>(arg);
        // Runs inside the aux coroutine's final suspend; defer teardown.
        pr->aux.done_event = pr->aux.kernel->sim_->queue().ScheduleAfter(0, [pr] {
          pr->aux.done_event = 0;
          Thread* th = pr->aux.thread;
          auto then = std::move(pr->aux.then);
          th->aux_list.Remove(pr);
          bool alive = th->alive();
          pr->frame().destroy();
          if (alive && then) {
            then();
          }
        });
      },
      p);
  ++t->pins;
  sim_->queue().ScheduleAfter(0, [this, t, frame] {
    if (t->alive()) {
      frame.resume();
    }
    Unpin(t);
  });
}

Guest* Kernel::GuestFor(Thread* t) {
  REMON_CHECK(t->guest_facade != nullptr);
  return t->guest_facade.get();
}

void Kernel::ArmItimer(Process* p, DurationNs value, DurationNs interval) {
  if (p->itimer_event != 0) {
    sim_->queue().Cancel(p->itimer_event);
    p->itimer_event = 0;
  }
  p->itimer_interval = interval;
  TimeNs expiry = DeadlineAfter(sim_->now(), value);
  if (value <= 0 || expiry == kTimeNever) {
    return;  // Disarmed, or set beyond the end of virtual time: never fires.
  }
  p->itimer_event = sim_->queue().ScheduleAt(expiry, [this, p] {
    p->itimer_event = 0;
    if (p->exited) {
      return;
    }
    PostSignal(p, kSIGALRM);
    if (p->itimer_interval > 0) {
      ArmItimer(p, p->itimer_interval, p->itimer_interval);
    }
  });
}

}  // namespace remon
