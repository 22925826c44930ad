#include "src/core/ghumvee.h"

#include <algorithm>
#include <cstdio>

#include "src/core/await.h"
#include "src/core/ipmon.h"
#include "src/core/replication_buffer.h"
#include "src/sim/check.h"
#include "src/vfs/fs.h"

namespace remon {

namespace {

bool IsSyncFatalSignal(int sig) {
  switch (sig) {
    case kSIGSEGV:
    case kSIGILL:
    case kSIGABRT:
    case kSIGSYS:
      return true;
    default:
      return false;
  }
}

}  // namespace

Ghumvee::Ghumvee(Kernel* kernel)
    : kernel_(kernel), hub_(kernel, [this](int rank) { return OpenLane(rank); }) {}

Ghumvee::~Ghumvee() {
  for (std::coroutine_handle<> frame : loop_frames_) {
    frame.destroy();
  }
}

auto Ghumvee::Work(int rank, DurationNs d) {
  PtraceHub::Lane* lane = hub_.lane(rank);
  return MonitorCost{kernel_, hub_.monitor_machine, lane->entity, &lane->core, d};
}

auto Ghumvee::TracerReader(Process* p) {
  return [this, p](GuestAddr addr, void* out, uint64_t len) {
    return kernel_->TracerRead(p, addr, out, len);
  };
}

void Ghumvee::AddReplica(Process* process) {
  // Created as replica `replicas_.size()` (Kernel::CreateProcess counts it).
  REMON_CHECK(process->replica_index == static_cast<int>(replicas_.size()));
  if (replicas_.empty()) {
    hub_.monitor_machine = process->machine();  // The monitor runs beside its leader.
  }
  replicas_.push_back(process);
  ipmons_.push_back(nullptr);
  own_epoll_shadow_.push_back(std::make_unique<EpollShadowMap>());
  kernel_->PtraceAttach(process, &hub_);
}

void Ghumvee::AttachIpmon(int replica_index, IpMon* mon) {
  REMON_CHECK(replica_index >= 0 && replica_index < static_cast<int>(ipmons_.size()));
  ipmons_[static_cast<size_t>(replica_index)] = mon;
  own_epoll_shadow_[static_cast<size_t>(replica_index)].reset();
}

EpollShadowMap& Ghumvee::EpollShadow(int replica) {
  size_t i = static_cast<size_t>(replica);
  return ipmons_[i] != nullptr ? ipmons_[i]->epoll_shadow() : *own_epoll_shadow_[i];
}

std::coroutine_handle<> Ghumvee::OpenLane(int rank) {
  loop_frames_.push_back(MonitorLoop(rank).ReleaseAsRoot(nullptr, nullptr));
  return loop_frames_.back();
}

void Ghumvee::Divergence(int rank, Sys nr, std::string reason) {
  if (shutdown_) {
    return;
  }
  std::fprintf(stderr, "[ghumvee] divergence (rank %d, sysno %d): %s\n", rank,
               static_cast<int>(nr), reason.c_str());
  divergences_.push_back(DivergenceRecord{kernel_->now(), rank, nr, std::move(reason)});
  ++kernel_->stats().divergences_detected;
  shutdown_ = true;
  for (Process* p : replicas_) {
    if (!p->exited) {
      kernel_->TerminateProcess(p, 128 + kSIGKILL);
    }
  }
}

GuestTask<void> Ghumvee::MonitorLoop(int rank) {
  const CostModel& costs = kernel_->sim()->costs();
  // Ends once the hub is closed (every replica exited) and this lane is drained.
  while (std::optional<PtraceEvent> next = co_await hub_.NextEvent(rank)) {
    const PtraceEvent& ev = *next;
    // Every stop costs the monitor a waitpid round + GETREGS + (later) a resume,
    // even when events are queued back to back.
    DurationNs event_cost = costs.monitor_dispatch_ns;
    if (ev.kind == PtraceEvent::Kind::kSyscallEntry ||
        ev.kind == PtraceEvent::Kind::kSyscallExit ||
        ev.kind == PtraceEvent::Kind::kSignal) {
      event_cost += costs.monitor_event_ns;
    }
    co_await Work(rank, event_cost);
    switch (ev.kind) {
      case PtraceEvent::Kind::kSyscallEntry:
        co_await HandleEntryStop(ev.thread);
        break;
      case PtraceEvent::Kind::kSyscallExit:
        co_await HandleExitStop(rank, ev.thread);
        break;
      case PtraceEvent::Kind::kSignal:
        co_await HandleSignalStop(ev);
        break;
      case PtraceEvent::Kind::kThreadExit:
        MemberGone(ev.thread, ExitingInLockstep());
        ReleaseExited(ev.thread);
        break;
      case PtraceEvent::Kind::kProcessExit:
        HandleProcessExit(ev.process);
        break;
      case PtraceEvent::Kind::kThreadNew:
        break;  // Pairing is implicit: ranks are assigned in spawn order.
    }
    hub_.Done(ev);
  }
}

GuestTask<void> Ghumvee::HandleEntryStop(Thread* t) {
  if (shutdown_ || !t->alive()) {
    co_return;
  }
  int rank = t->rank();
  int ridx = t->process()->replica_index;
  RankState& rs = ranks_[rank];
  if (rs.pending.empty()) {
    rs.pending.assign(static_cast<size_t>(num_replicas()), nullptr);
  }
  if (rs.pending[static_cast<size_t>(ridx)] != nullptr) {
    // Same replica arrived twice before the round fired: should be impossible.
    Divergence(rank, t->cur_req.nr, "duplicate arrival in lockstep round");
    co_return;
  }
  rs.pending[static_cast<size_t>(ridx)] = t;
  ++rs.pending_count;
  if (rs.phase == RankState::Phase::kCollecting && rs.pending_count == num_replicas()) {
    co_await RunLockstep(rank, rs);
    co_return;
  }
  // Partial arrival: the thread stays parked at its entry stop until the round
  // fires. Arm the watchdog — if the peers never show up, they diverged into
  // unmonitored execution (or died) and the MVEE must shut down.
  if (rs.watchdog == 0) {
    rs.watchdog_round = rs.rounds_fired;
    Sys nr = t->cur_req.nr;
    rs.watchdog = kernel_->sim()->queue().ScheduleAfter(
        lockstep_timeout_ns, [this, rank, nr] {
          auto it = ranks_.find(rank);
          if (it == ranks_.end()) {
            return;
          }
          RankState& state = it->second;
          state.watchdog = 0;
          if (!shutdown_ && state.pending_count > 0 &&
              state.rounds_fired == state.watchdog_round) {
            Divergence(rank, nr,
                       "lockstep timeout: replicas stopped participating in "
                       "monitored execution");
          }
        });
  }
}

GuestTask<void> Ghumvee::RunLockstep(int rank, RankState& rs) {
  const CostModel& costs = kernel_->sim()->costs();
  SimStats& stats = kernel_->stats();
  ++lockstep_rounds_;
  ++stats.syscalls_monitored;
  ++rs.rounds_fired;
  if (rs.watchdog != 0) {
    kernel_->sim()->queue().Cancel(rs.watchdog);
    rs.watchdog = 0;
  }

  // Promote the pending arrivals to the current round; new arrivals may accumulate
  // while this round is in flight.
  rs.phase = RankState::Phase::kComparing;
  rs.current = std::move(rs.pending);
  rs.pending.assign(static_cast<size_t>(num_replicas()), nullptr);
  rs.pending_count = 0;

  Thread* master_thread = rs.current[0];
  rs.req = master_thread->cur_req;
  Sys nr = rs.req.nr;

  // --- Cross-check: deep-compare every replica's argument signature (§2). --------
  // Other lanes run while this one waits on its core: a member that died meanwhile
  // ends the round (MemberGone decided whether that is divergence).
  auto member_gone = [&rs] {
    return std::find(rs.current.begin(), rs.current.end(), nullptr) != rs.current.end();
  };
  std::vector<uint8_t> master_sig = SerializeCallSignature(replicas_[0], rs.req);
  co_await Work(rank, costs.VmCopyCost(master_sig.size()));
  for (int i = 1; i < num_replicas(); ++i) {
    if (shutdown_ || member_gone()) {
      co_return;
    }
    Thread* t = rs.current[static_cast<size_t>(i)];
    if (t->cur_req.nr != nr) {
      Divergence(rank, nr, "system call number mismatch across replicas");
      co_return;
    }
    std::vector<uint8_t> sig = SerializeCallSignature(replicas_[static_cast<size_t>(i)],
                                                      t->cur_req);
    co_await Work(rank, costs.VmCopyCost(sig.size()) + costs.CompareCost(sig.size()));
    if (sig != master_sig) {
      Divergence(rank, nr, "argument signature mismatch across replicas");
      co_return;
    }
  }
  if (shutdown_ || member_gone()) {
    co_return;
  }
  if (temporal_ != nullptr) {
    temporal_->RecordApproval(nr);
  }

  // --- Deferred-signal injection at the synchronization point (§2.2). -----------
  InjectDeferredSignals(rank);

  // --- Special monitored calls. ------------------------------------------------
  if (IsSharedMemoryViolation(rs.req)) {
    ++stats.shm_requests_denied;
    PtraceAction deny;
    deny.skip_syscall = true;
    deny.injected_result = -kEPERM;
    ExecuteRound(rs, /*master_call=*/false, deny, deny);
    co_return;
  }
  if (nr == Sys::kRemonRbFlush) {
    // A replacement checkpoint in flight pins the current reset generation: its
    // records were cut against the live sub-buffer offsets, and scrubbing them
    // before the replacement acks the End frame dooms the join (the agent
    // refuses a checkpoint from a stale generation, which tears the link and
    // charges the respawn budget for the leader's own reset).
    co_await AwaitReseedGate(rank);
    if (shutdown_ || member_gone()) {
      co_return;
    }
    HandleRbFlush(static_cast<int>(rs.req.arg(0)), rs);
    co_return;
  }

  // epoll_ctl: record every replica's own (epfd, fd) -> data association in its
  // one shadow, so epoll_wait results can be translated per replica (§3.9)
  // whichever monitor replicates them.
  for (int i = 0; i < num_replicas(); ++i) {
    Thread* t = rs.current[static_cast<size_t>(i)];
    RecordEpollCtl(t->cur_req, EpollShadow(i), TracerReader(t->process()));
  }

  // --- Execution mode. -----------------------------------------------------------
  if (RelaxationPolicy::IsLocalCall(nr)) {
    // Local-resource call: every replica executes its own instance.
    ExecuteRound(rs, /*master_call=*/false, PtraceAction{}, PtraceAction{});
    co_return;
  }

  // Master-call: the master executes it while every slave takes a fake (skipped)
  // call beside it and parks at that call's exit stop for the master's results.
  ++stats.syscalls_mastercall;
  PtraceAction fake;
  fake.skip_syscall = true;
  ExecuteRound(rs, /*master_call=*/true, PtraceAction{}, fake);
}

void Ghumvee::ExecuteRound(RankState& rs, bool master_call,
                           const PtraceAction& master_action,
                           const PtraceAction& slave_action) {
  rs.phase = RankState::Phase::kExecuting;
  rs.legs.assign(static_cast<size_t>(num_replicas()), RankState::Leg::kRunning);
  rs.open_legs = num_replicas();
  rs.master_call = master_call;
  rs.results_ready = false;
  Resume(rs.current[0], master_action);
  for (int i = 1; i < num_replicas(); ++i) {
    Resume(rs.current[static_cast<size_t>(i)], slave_action);
  }
}

GuestTask<void> Ghumvee::HandleExitStop(int rank, Thread* t) {
  auto it = ranks_.find(rank);
  RankState* rs = it == ranks_.end() ? nullptr : &it->second;
  int ridx = t->process()->replica_index;
  size_t i = static_cast<size_t>(ridx);
  bool running_leg = rs != nullptr && rs->phase == RankState::Phase::kExecuting &&
                     rs->current[i] == t && rs->legs[i] == RankState::Leg::kRunning;
  if (running_leg && rs->master_call) {
    if (ridx == 0) {
      co_await HandleMasterExit(rank, *rs, t);
    } else {
      // The slave's fake call: park it until the master's results exist.
      rs->legs[i] = RankState::Leg::kParked;
      if (rs->results_ready) {
        co_await DeliverResults(rank, *rs, ridx);
      }
    }
  } else {
    Resume(t, PtraceAction{});
    if (running_leg) {
      LegDone(*rs, ridx);
    }
  }
  // A completed round may unblock a queued one.
  if (rs != nullptr && !shutdown_ && rs->phase == RankState::Phase::kCollecting &&
      rs->pending_count == num_replicas()) {
    co_await RunLockstep(rank, *rs);
  }
}

GuestTask<void> Ghumvee::HandleMasterExit(int rank, RankState& rs, Thread* master_thread) {
  const CostModel& costs = kernel_->sim()->costs();
  int64_t result = master_thread->cur_result;

  // A divergence while this stop was dispatched ends the round here.
  if (shutdown_) {
    co_return;
  }
  // FD bookkeeping feeds the IP-MON file map (§3.6), which every replica maps.
  TrackFds(rs.req, result);
  if ((rs.req.nr == Sys::kOpen || rs.req.nr == Sys::kOpenat) && result >= 0) {
    FilterMapsContent(master_thread, rs.req, result);
  }

  // Copy the out-regions from the master (process_vm_readv analog) into IP-MON's
  // result payload. The master's epoll cookies become fds here, once, through its
  // shadow as of this stop (§3.9). One charge per region: VmCopyCost is affine.
  std::vector<uint8_t> payload;
  CaptureResults(replicas_[0], rs.req, result, EpollShadow(0),
                 TracerReader(replicas_[0]), &payload);
  ResultPayloadReader regions(payload);
  const uint8_t* data = nullptr;
  uint64_t len = 0;
  while (regions.Next(&data, &len)) {
    co_await Work(rank, costs.VmCopyCost(len));
  }
  if (shutdown_ || rs.legs[0] != RankState::Leg::kRunning) {
    co_return;
  }
  rs.payload = std::move(payload);
  rs.result = result;
  rs.results_ready = true;

  // The master runs on at once; each slave gets the results as soon as it is
  // parked at its fake call's exit stop — now for those already there.
  Resume(master_thread, PtraceAction{});
  LegDone(rs, 0);
  for (int i = 1; i < num_replicas() && rs.phase == RankState::Phase::kExecuting; ++i) {
    if (rs.legs[static_cast<size_t>(i)] == RankState::Leg::kParked) {
      co_await DeliverResults(rank, rs, i);
    }
  }
}

GuestTask<void> Ghumvee::DeliverResults(int rank, RankState& rs, int replica) {
  const CostModel& costs = kernel_->sim()->costs();
  size_t i = static_cast<size_t>(replica);
  // Write the master's out-regions into the slave at the slave's own addresses
  // (process_vm_writev analog); its fds become this slave's own cookies (§3.9).
  // Each applied region is charged at the master's length. A slave that dies
  // meanwhile has its leg closed by MemberGone before ReleaseExited drops the
  // round's pointer to it.
  Process* slave = replicas_[i];
  uint64_t applied =
      ApplyResults(slave, rs.current[i]->cur_req, rs.result, EpollShadow(replica),
                   rs.payload, [this, slave](GuestAddr addr, const void* data, uint64_t len) {
                     return kernel_->TracerWrite(slave, addr, data, len);
                   });
  ResultPayloadReader regions(rs.payload);
  const uint8_t* data = nullptr;
  uint64_t len = 0;
  for (uint64_t r = 0; r < applied && regions.Next(&data, &len); ++r) {
    co_await Work(rank, costs.VmCopyCost(len));
    if (shutdown_ || rs.legs[i] != RankState::Leg::kParked) {
      co_return;
    }
  }
  // The fake call returns the master's result.
  PtraceAction a;
  a.override_result = true;
  a.result_override = rs.result;
  Resume(rs.current[i], a);
  LegDone(rs, replica);
}

void Ghumvee::LegDone(RankState& rs, int replica) {
  rs.legs[static_cast<size_t>(replica)] = RankState::Leg::kDone;
  if (--rs.open_legs == 0) {
    rs.phase = RankState::Phase::kCollecting;
    rs.current.clear();
    rs.payload.clear();
  }
}

GuestTask<void> Ghumvee::AwaitReseedGate(int rank) {
  if (!reseed_gate_ || !reseed_gate_()) {
    co_return;
  }
  // Bounded: the transfer by the link's stream window, the connect by the network
  // answering every SYN within one round trip.
  ++kernel_->stats().reseed_gate_stalls;
  while (reseed_gate_() && !shutdown_ && divergences_.empty()) {
    co_await Work(rank, 10 * kMicrosecond);
  }
}

void Ghumvee::Resume(Thread* t, const PtraceAction& action) {
  if (t != nullptr && t->state() == ThreadState::kPtraceStopped) {
    kernel_->PtraceResume(t, action);
  }
}

void Ghumvee::HandleRbFlush(int rank, RankState& rs) {
  for (IpMon* mon : ipmons_) {
    if (mon != nullptr) {
      mon->OnRbReset(rank);
    }
  }
  if (rb_migration_) {
    // Safe only when every replica thread is stopped here; with multiple ranks other
    // threads may be mid-RB-operation, so restrict to single-threaded replica sets.
    bool all_single = true;
    for (Process* p : replicas_) {
      if (Kernel::LiveThreadCount(p) > 1) {
        all_single = false;
        break;
      }
    }
    if (all_single) {
      for (IpMon* mon : ipmons_) {
        if (mon != nullptr) {
          mon->MigrateRb();
        }
      }
    }
  }
  PtraceAction skip;
  skip.skip_syscall = true;
  ExecuteRound(rs, /*master_call=*/false, skip, skip);
}

GuestTask<void> Ghumvee::HandleSignalStop(const PtraceEvent& ev) {
  Thread* t = ev.thread;
  int sig = ev.signal;
  int ridx = t->process()->replica_index;
  // A signal we injected ourselves: all replicas are at equivalent points, let it
  // through to the handler.
  auto inj = injected_signals_.find(t);
  if (inj != injected_signals_.end() && (inj->second & (1ULL << (sig - 1))) != 0) {
    inj->second &= ~(1ULL << (sig - 1));
    PtraceAction a;
    a.deliver_signal = true;
    Resume(t, a);
    co_return;
  }
  if (IsSyncFatalSignal(sig)) {
    // A synchronous fault in one replica while its peers run on: the behavioral
    // divergence MVEEs exist to catch. Deliver (killing the replica) and shut down.
    std::string reason = "replica ";
    reason += std::to_string(ridx);
    reason += " faulted with signal ";
    reason += std::to_string(sig);
    PtraceAction a;
    a.deliver_signal = true;
    Resume(t, a);
    Divergence(t->rank(), t->cur_req.nr, std::move(reason));
    co_return;
  }
  // Asynchronous signal: defer master-origin signals until all replicas reach a
  // synchronization point; discard slave-origin duplicates (timers and the like fire
  // in the master only — see the execution-mode table).
  PtraceAction a;
  a.deliver_signal = false;
  Resume(t, a);
  if (ridx == 0) {
    DeferSignal(t, sig);
  }
  co_return;
}

void Ghumvee::DeferSignal(Thread* t, int sig) {
  ++kernel_->stats().signals_deferred;
  deferred_signals_.emplace_back(t->rank(), sig);
  // §3.8: make unmonitored execution reach a monitored synchronization point — set
  // the RB flag (IP-MON checks it before dispatching) and abort any blocking
  // unmonitored call the master is executing.
  SetSignalsPendingFlag(true);
  for (Thread* mt : replicas_[0]->threads) {
    if (mt->alive() && mt->in_ipmon) {
      kernel_->InterruptBlockedSyscall(mt);
    }
  }
}

void Ghumvee::InjectDeferredSignals(int rank) {
  if (deferred_signals_.empty()) {
    return;
  }
  std::deque<std::pair<int, int>> keep;
  auto it = ranks_.find(rank);
  REMON_CHECK(it != ranks_.end());
  for (auto& [sig_rank, sig] : deferred_signals_) {
    if (sig_rank != rank) {
      keep.emplace_back(sig_rank, sig);
      continue;
    }
    // All rank-r threads are parked at equivalent states (entry stops): post the
    // signal to each; delivery happens when the call completes, at the same logical
    // point in every replica.
    for (int i = 0; i < num_replicas(); ++i) {
      Thread* t = it->second.current[static_cast<size_t>(i)];
      if (t != nullptr && t->alive()) {
        injected_signals_[t] |= 1ULL << (sig - 1);
        kernel_->PostSignalToThread(t, sig);
      }
    }
  }
  deferred_signals_ = std::move(keep);
  if (deferred_signals_.empty()) {
    SetSignalsPendingFlag(false);
  }
}

void Ghumvee::SetSignalsPendingFlag(bool pending) {
  // One write through the master's mapping suffices: the RB frames are shared.
  if (!ipmons_.empty() && ipmons_[0] != nullptr && ipmons_[0]->rb().valid()) {
    RbView rb = ipmons_[0]->rb();
    rb.SetSignalsPending(pending);
  }
}

void Ghumvee::HandleProcessExit(Process* p) {
  ++replicas_exited_;
  // The process's threads die together, so whether they take part in a
  // lockstepped exit is decided once: closing their legs can end the exit_group
  // round itself before the last of them is handled.
  bool lockstep_exit = ExitingInLockstep();
  // Threads exit_group took down sent no kThreadExit: this is their last event.
  // Copy: a release can reap the thread out of p->threads.
  std::vector<Thread*> threads = p->threads;
  for (Thread* t : threads) {
    if (t->ptrace_held) {
      MemberGone(t, lockstep_exit);
      ReleaseExited(t);
    }
  }
  // A clean, synchronized shutdown has every replica exiting in the same lockstep
  // round; a lone exit while others continue running is divergence, flagged by
  // MemberGone when a round waits on the dead thread and otherwise by the next
  // round's lockstep watchdog.
  if (replicas_exited_ >= num_replicas()) {
    hub_.Close();
  }
}

void Ghumvee::MemberGone(Thread* t, bool lockstep_exit) {
  auto it = ranks_.find(t->rank());
  if (it == ranks_.end() || shutdown_) {
    return;
  }
  RankState& rs = it->second;
  int ridx = t->process()->replica_index;
  size_t i = static_cast<size_t>(ridx);
  bool awaited = false;
  switch (rs.phase) {
    case RankState::Phase::kCollecting:
      // Peers wait in lockstep for a round this thread can no longer complete.
      awaited = rs.pending_count > 0;
      break;
    case RankState::Phase::kComparing:
      awaited = rs.current[i] == t;
      break;
    case RankState::Phase::kExecuting:
      // Its leg can never complete: close it so the round's count stays true.
      // Only a master call's slaves wait on another member (the master's results).
      if (rs.current[i] == t && rs.legs[i] != RankState::Leg::kDone) {
        awaited = rs.master_call;
        LegDone(rs, ridx);
      }
      break;
  }
  if (awaited && !lockstep_exit) {
    Sys nr = rs.phase == RankState::Phase::kCollecting ? Sys::kInvalid : rs.req.nr;
    Divergence(t->rank(), nr, "replica thread exited while peers wait in lockstep");
  }
}

bool Ghumvee::ExitingInLockstep() const {
  for (const auto& [rank, rs] : ranks_) {
    if (rs.phase == RankState::Phase::kExecuting && rs.req.nr == Sys::kExitGroup) {
      return true;
    }
  }
  return false;
}

bool Ghumvee::RoundExecuting(int rank) const {
  auto it = ranks_.find(rank);
  return it != ranks_.end() && it->second.phase == RankState::Phase::kExecuting;
}

void Ghumvee::ReleaseExited(Thread* t) {
  auto it = ranks_.find(t->rank());
  if (it != ranks_.end()) {
    RankState& rs = it->second;
    auto arrived = std::find(rs.pending.begin(), rs.pending.end(), t);
    if (arrived != rs.pending.end()) {
      *arrived = nullptr;
      --rs.pending_count;
    }
    std::replace(rs.current.begin(), rs.current.end(), t, static_cast<Thread*>(nullptr));
  }
  injected_signals_.erase(t);
  kernel_->PtraceRelease(t);
}

bool Ghumvee::IsSharedMemoryViolation(const SyscallRequest& req) const {
  // Writable shared mappings between replicas form unmonitored bi-directional
  // channels (§2.1). ReMon infrastructure keys are exempt.
  if (req.nr == Sys::kMmap) {
    int flags = static_cast<int>(req.arg(3));
    uint32_t prot = static_cast<uint32_t>(req.arg(2));
    return (flags & kMapShared) != 0 && (prot & kProtWrite) != 0;
  }
  if (req.nr == Sys::kShmget) {
    int key = static_cast<int>(req.arg(0));
    return key < kRemonShmKeyBase;
  }
  return false;
}

void Ghumvee::TrackFds(const SyscallRequest& req, int64_t result) {
  Process* master = replicas_[0];
  const SyscallDesc& d = DescOf(req.nr);
  switch (d.fd_effect) {
    case FdEffect::kNone:
      break;
    case FdEffect::kCreatesFd:
      if (result >= 0) {
        auto desc = master->fds().Get(static_cast<int>(result));
        if (desc) {
          file_map_.Set(static_cast<int>(result), desc->file()->type(),
                        desc->nonblocking());
        }
      }
      break;
    case FdEffect::kClosesFd:
      if (result == 0) {
        file_map_.Clear(static_cast<int>(req.arg(0)));
      }
      break;
    case FdEffect::kCreatesFdPair:
      if (result == 0) {
        int32_t fds[2] = {-1, -1};
        kernel_->TracerRead(master, req.arg(0), fds, sizeof(fds));
        for (int fd : fds) {
          auto desc = master->fds().Get(fd);
          if (desc) {
            file_map_.Set(fd, desc->file()->type(), desc->nonblocking());
          }
        }
      }
      break;
    case FdEffect::kSetsFdFlags:
      // The descriptor's control gate names the encoding: fcntl carries the flag word
      // in arg 2, ioctl FIONBIO points at an int in guest memory.
      if (d.ctl_gate == CtlGate::kFcntl && static_cast<int>(req.arg(1)) == kF_SETFL) {
        file_map_.SetNonblocking(static_cast<int>(req.arg(0)),
                                 (req.arg(2) & static_cast<uint64_t>(kO_NONBLOCK)) != 0);
      } else if (d.ctl_gate == CtlGate::kFcntl &&
                 static_cast<int>(req.arg(1)) == kF_DUPFD && result >= 0) {
        // F_DUPFD is forwarded exactly so the map can learn the new descriptor.
        auto desc = master->fds().Get(static_cast<int>(result));
        if (desc) {
          file_map_.Set(static_cast<int>(result), desc->file()->type(),
                        desc->nonblocking());
        }
      } else if (d.ctl_gate == CtlGate::kIoctl && req.arg(1) == kIoctlFionbio &&
                 result == 0) {
        uint32_t on = 0;
        if (kernel_->TracerRead(master, req.arg(2), &on, 4)) {
          file_map_.SetNonblocking(static_cast<int>(req.arg(0)), on != 0);
        }
      }
      break;
  }
}

void Ghumvee::FilterMapsContent(Thread* master_thread, const SyscallRequest& req,
                                int64_t fd) {
  auto path = replicas_[0]->mem().ReadCString(req.arg(req.nr == Sys::kOpenat ? 1 : 0));
  if (!path || path->find("/maps") == std::string::npos) {
    return;
  }
  auto desc = replicas_[0]->fds().Get(static_cast<int>(fd));
  if (!desc) {
    return;
  }
  auto* special = dynamic_cast<SpecialHandle*>(desc->file());
  if (special == nullptr) {
    return;
  }
  // Drop every line that would reveal IP-MON or the replication buffer (§3.1).
  std::string& content = special->mutable_content();
  std::string filtered;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) {
      eol = content.size();
    }
    std::string_view line(content.data() + pos, eol - pos);
    if (line.find("ipmon") == std::string_view::npos &&
        line.find("sysv-shm") == std::string_view::npos) {
      filtered.append(line);
      filtered.push_back('\n');
    }
    pos = eol + 1;
  }
  content = std::move(filtered);
  // The file map byte marks the descriptor special, so IP-MON forwards all reads on
  // it to GHUMVEE.
  file_map_.Set(static_cast<int>(fd), FdType::kSpecial, desc->nonblocking());
}

}  // namespace remon
