#include "src/core/ipmon.h"

#include <cstdio>

#include "src/core/await.h"
#include "src/core/broker.h"
#include "src/core/rb_transport.h"
#include "src/sim/check.h"

namespace remon {

namespace {

// VaranLike flush barrier fields inside the rank header.
constexpr uint64_t kRankOffResetDone = 0;
constexpr uint64_t kRankOffBarrierGen = 8;  // + 8 * replica_index.

// "IPMO": the entry point IP-MON registers with the kernel.
constexpr uint64_t kEntryCookie = 0x49504d4f;

}  // namespace

bool ResultPayloadReader::Next(const uint8_t** data, uint64_t* len) {
  // Subtraction forms: a hostile length must not wrap the bounds check.
  if (left_ == 0 || payload_.size() - pos_ < 8) {
    return false;
  }
  uint64_t n = GetU64(payload_, pos_);
  if (n > payload_.size() - pos_ - 8) {
    return false;
  }
  *data = payload_.data() + pos_ + 8;
  *len = n;
  pos_ += 8 + n;
  --left_;
  return true;
}

IpMon::IpMon(Kernel* kernel, IkBroker* broker, RelaxationPolicy policy, FileMap* file_map,
             Config config)
    : kernel_(kernel),
      broker_(broker),
      policy_(policy),
      file_map_(file_map),
      config_(config) {}

GuestTask<void> IpMon::Initialize(Guest& g) {
  process_ = g.process();
  // Create or attach the RB segment through the normal (monitored, GHUMVEE-
  // arbitrated) System V path, then map it at a replica-specific address.
  int64_t shmid = co_await g.Shmget(kRbShmKey, config_.rb_size, kIpcCreat);
  REMON_CHECK_MSG(shmid >= 0, "IP-MON: RB shmget failed");
  int64_t rb_addr = co_await g.Shmat(static_cast<int>(shmid));
  REMON_CHECK_MSG(rb_addr > 0, "IP-MON: RB shmat failed");
  rb_ = RbView(process_, static_cast<GuestAddr>(rb_addr), config_.rb_size, config_.max_ranks);

  cursor_.assign(static_cast<size_t>(config_.max_ranks), 0);
  seq_.assign(static_cast<size_t>(config_.max_ranks), 0);
  varan_flush_gen_.assign(static_cast<size_t>(config_.max_ranks), 0);
  for (int r = 0; r < config_.max_ranks; ++r) {
    cursor_[static_cast<size_t>(r)] = rb_.RankDataStart(r);
  }

  // Map the (GHUMVEE-maintained) file map read-only — all pages, contiguously.
  GuestAddr fm_addr = process_->mem().FindFreeRange(process_->layout.mmap_hint,
                                                    file_map_->size_bytes());
  REMON_CHECK(fm_addr != 0);
  REMON_CHECK(process_->mem().MapShared(fm_addr, file_map_->size_bytes(), kProtRead,
                                        "ipmon-filemap", file_map_->frames(), 0));

  // Register with the kernel (paper §3.5): the set of calls IP-MON may handle, the
  // RB pointer, and the entry-point cookie. The call is always monitored, so GHUMVEE
  // arbitrates (and could veto) the registration.
  std::vector<bool> mask = policy_.RegistrationMask();
  if (config_.mode == IpmonMode::kVaranLike) {
    mask.assign(kNumSyscalls, true);
  }
  GuestAddr mask_addr = g.Alloc(kNumSyscalls);
  std::vector<uint8_t> bytes(kNumSyscalls);
  for (uint32_t i = 0; i < kNumSyscalls; ++i) {
    bytes[i] = mask[i] ? 1 : 0;
  }
  g.Poke(mask_addr, bytes.data(), bytes.size());
  int64_t rc = co_await g.Syscall(Sys::kRemonIpmonRegister, mask_addr,
                                  static_cast<uint64_t>(rb_addr), kEntryCookie);
  REMON_CHECK_MSG(rc == 0, "IP-MON registration rejected");

  if (on_initialized_) {
    on_initialized_();
  }
}

bool IpMon::NeedsGhumvee(Thread* t, const SyscallRequest& req) const {
  (void)t;
  if (ControlNeedsMonitor(req)) {
    return true;
  }
  return !policy_.AllowsUnmonitored(req.nr, EffectiveFdType(process_, req, *file_map_));
}

void IpMon::IntentionalCrash(Thread* t) {
  // The paper's IP-MON triggers a deliberate crash so the ptrace machinery informs
  // GHUMVEE, which then shuts the MVEE down.
  ++kernel_->stats().divergences_detected;
  t->sig_pending |= 1ULL << (kSIGABRT - 1);
  kernel_->MaybeDeliverSignals(t, [] {});
}

GuestTask<void> IpMon::HandleCall(Thread* t, SyscallRequest req, uint64_t token,
                                  bool temporal_exempt) {
  const CostModel& costs = kernel_->sim()->costs();
  t->in_ipmon = true;
  ++t->ipmon_invocations;
  co_await ThreadCost{t, costs.ipmon_entry_ns};

  if (config_.mode == IpmonMode::kVaranLike) {
    co_await VaranPath(t, req);
    t->in_ipmon = false;
    co_return;
  }

  // Process-local calls (futex, nanosleep, ...): every replica executes its own,
  // using its one-time token; nothing to replicate.
  if (RelaxationPolicy::IsLocalCall(req.nr)) {
    int64_t r;
    if (broker_->VerifyToken(t, token, req.nr)) {
      r = co_await ExecDirect{t, req};
    } else {
      r = co_await ExecTraced{t, req};
    }
    ++kernel_->stats().syscalls_unmonitored;
    kernel_->CompleteSyscall(t, r);
    t->in_ipmon = false;
    co_return;
  }

  // MAYBE_CHECKED: conditional relaxation policies (paper listing 1).
  if (!temporal_exempt && NeedsGhumvee(t, req)) {
    co_await ForwardToGhumvee(t, req);
    t->in_ipmon = false;
    co_return;
  }

  if (is_master()) {
    co_await MasterPath(t, req, token);
  } else {
    co_await SlavePath(t, req);
  }
  t->in_ipmon = false;
}

void IpMon::EmitToTransport(int rank, uint64_t entry_off, uint32_t state) {
  if (transport_ == nullptr || transport_->live_remotes() == 0) {
    return;  // No one to ship to: skip the image read entirely.
  }
  transport_->SendEntries(rank, {RbEntryOps::ReadRecord(rb_, entry_off, state)});
}

GuestTask<void> IpMon::StallOnTransport(Thread* t) {
  while (transport_ != nullptr && transport_->Stalled()) {
    ++kernel_->stats().rb_transport_stalls;
    co_await WaitOn{t, transport_->stall_queue()};
  }
}

GuestTask<void> IpMon::ForwardToGhumvee(Thread* t, SyscallRequest req) {
  // Fig. 2, 4': destroy the token and restart; IK-B routes the restarted call to
  // GHUMVEE, which handles it like a regular CP-MVEE call.
  broker_->RevokeToken(t);
  int64_t r = co_await ExecTraced{t, req};
  kernel_->CompleteSyscall(t, r);
}

GuestTask<IpMon::RbSlot> IpMon::SizeEntry(Thread* t, const SyscallRequest& req) {
  // CALCSIZE: both the signature and the out-capacity derive from argument values
  // that are identical across replicas, so every replica computes the same size and
  // the cursors stay in lockstep.
  RbSlot e;
  e.sig = SerializeCallSignature(process_, req);
  e.size = RbEntryOps::EntrySize(e.sig.size(), EstimateDataSize(process_, req) + 16);
  co_await ThreadCost{t, kernel_->sim()->costs().RbCopyCost(e.sig.size())};
  co_return e;
}

bool IpMon::FitsSubBuffer(int rank, const RbSlot& e) const {
  return e.size <= rb_.RankDataEnd(rank) - rb_.RankDataStart(rank);
}

bool IpMon::RankFull(int rank, const RbSlot& e) const {
  return cursor_[static_cast<size_t>(rank)] + e.size > rb_.RankDataEnd(rank);
}

void IpMon::ClaimSlot(const SyscallRequest& req, int rank, RbSlot* e) {
  e->off = cursor_[static_cast<size_t>(rank)];
  cursor_[static_cast<size_t>(rank)] += e->size;
  e->seq = seq_[static_cast<size_t>(rank)]++;
  RecordEpollCtl(req, epoll_shadow_, [this](GuestAddr addr, void* out, uint64_t len) {
    return process_->mem().Read(addr, out, len).ok;
  });
}

GuestTask<uint64_t> IpMon::ResetRankThroughGhumvee(Thread* t, const SyscallRequest& req,
                                                   int rank) {
  // Linear RB exhausted: GHUMVEE arbitrates the reset (paper §3.2). The reset trip
  // consumes the authorization and overwrites the thread's current request;
  // re-enter through IK-B: fresh token, original call restored.
  broker_->RevokeToken(t);
  co_await ExecTraced{t, SyscallRequest{Sys::kRemonRbFlush,
                                        {static_cast<uint64_t>(rank), 0, 0, 0, 0, 0}}};
  t->cur_req = req;
  co_return broker_->IssueToken(t);
}

GuestTask<void> IpMon::PublishArgs(Thread* t, int rank, const SyscallRequest& req,
                                   const RbSlot& e, uint32_t flags) {
  // PRECALL: the argument bytes are in the RB before execution, so a slave's
  // divergence check always sees this entry's arguments before its POSTCALL.
  RbEntryOps::CommitArgs(rb_, e.off, req.nr, flags, e.seq, e.size, e.sig);
  co_await ThreadCost{t, kernel_->sim()->costs().rb_entry_ns};
  rb_.WakeState(kernel_->futex(), e.off);
  EmitToTransport(rank, e.off, kRbArgsReady);
  ++kernel_->stats().rb_entries;
  kernel_->stats().rb_bytes += e.size;
}

uint32_t IpMon::CommitResults(int rank, uint64_t entry_off, int64_t result,
                              const std::vector<uint8_t>& payload) {
  uint32_t waiters = RbEntryOps::CommitResults(rb_, entry_off, result, payload);
  rb_.WakeState(kernel_->futex(), entry_off);  // Memory visibility (free in hardware).
  EmitToTransport(rank, entry_off, kRbResultsOnly);
  return waiters;
}

GuestTask<void> IpMon::PublishResults(Thread* t, int rank, const SyscallRequest& req,
                                      uint64_t entry_off, int64_t result) {
  // POSTCALL: replicate results and wake the slaves.
  const CostModel& costs = kernel_->sim()->costs();
  std::vector<uint8_t> payload;
  CaptureResults(process_, req, result, epoll_shadow_,
                 [this](GuestAddr addr, void* out, uint64_t len) {
                   return process_->mem().ReadUnchecked(addr, out, len).ok;
                 },
                 &payload);
  co_await ThreadCost{t, costs.RbCopyCost(payload.size() + 16)};
  SimStats& stats = kernel_->stats();
  if (CommitResults(rank, entry_off, result, payload) > 0) {
    co_await ThreadCost{t, costs.futex_wake_ns};  // FUTEX_WAKE needed.
  } else {
    ++stats.rb_futex_wakes_elided;
  }
  ++stats.syscalls_unmonitored;
  ++stats.syscalls_mastercall;
  kernel_->CompleteSyscall(t, result);
}

GuestTask<void> IpMon::ForwardWithStub(Thread* t, const SyscallRequest& req, int rank,
                                       uint64_t entry_off) {
  // The entry is marked forwarded and its results stay empty: the slaves follow the
  // master to GHUMVEE instead of waiting on the RB.
  uint32_t flags = rb_.ReadU32(entry_off + kRbOffFlags);
  if ((flags & kRbFlagForwarded) == 0) {
    rb_.WriteU32(entry_off + kRbOffFlags, flags | kRbFlagForwarded);
  }
  CommitResults(rank, entry_off, 0, {});
  co_await ForwardToGhumvee(t, req);
}

GuestTask<void> IpMon::AwaitState(Thread* t, uint64_t entry_off, uint32_t state,
                                  bool spin) {
  const CostModel& costs = kernel_->sim()->costs();
  SimStats& stats = kernel_->stats();
  while (rb_.ReadU32(entry_off + kRbOffState) < state) {
    if (spin) {
      ++stats.rb_spin_waits;
      co_await WaitOn{t, &rb_.StateQueue(kernel_->futex(), entry_off)};
      co_await ThreadCost{t, costs.spin_iteration_ns};
    } else {
      RbEntryOps::AddWaiter(rb_, entry_off);
      ++stats.rb_futex_waits;
      co_await WaitOn{t, &rb_.StateQueue(kernel_->futex(), entry_off)};
      RbEntryOps::RemoveWaiter(rb_, entry_off);
      co_await ThreadCost{t, costs.futex_wait_ns};
    }
  }
}

GuestTask<bool> IpMon::ArgsMatch(Thread* t, const RbSlot& e) {
  // Wait for the master's PRECALL commit, then compare our deep-copied arguments
  // against the master's (paper §3: "minimizes opportunities for asymmetrical
  // attacks").
  co_await AwaitState(t, e.off, kRbArgsReady, /*spin=*/false);
  std::vector<uint8_t> master_sig = RbEntryOps::ReadSignature(rb_, e.off);
  co_await ThreadCost{t, kernel_->sim()->costs().CompareCost(e.sig.size())};
  co_return master_sig == e.sig;
}

GuestTask<RbEntryHeader> IpMon::AwaitResults(Thread* t, uint64_t entry_off) {
  // Per-invocation condition variable (futex) when the call was predicted to block,
  // spin-read otherwise (paper §3.7).
  uint32_t flags = RbEntryOps::ReadHeader(rb_, entry_off).flags;
  co_await AwaitState(t, entry_off, kRbResultsReady, (flags & kRbFlagMaybeBlocking) == 0);
  co_return RbEntryOps::ReadHeader(rb_, entry_off);
}

GuestTask<void> IpMon::ConsumeResults(Thread* t, const SyscallRequest& req,
                                      uint64_t entry_off, int64_t result) {
  std::vector<uint8_t> payload = RbEntryOps::ReadPayload(rb_, entry_off);
  co_await ThreadCost{t, kernel_->sim()->costs().RbCopyCost(payload.size())};
  ApplyResults(process_, req, result, epoll_shadow_, payload,
               [this](GuestAddr addr, const void* data, uint64_t len) {
                 return process_->mem().Write(addr, data, len).ok;
               });
  ++kernel_->stats().syscalls_unmonitored;
  kernel_->CompleteSyscall(t, result);
}

GuestTask<void> IpMon::MasterPath(Thread* t, SyscallRequest req, uint64_t token) {
  int rank = t->rank();
  REMON_CHECK(rank < config_.max_ranks);

  // Cross-machine backpressure gate: with a remote link's flow-control window
  // full, the master may not publish further entries — park here until the agent
  // reads and the window reopens (or the remote dies and the stream epoch moves
  // on).
  if (transport_ != nullptr && transport_->Stalled()) {
    co_await StallOnTransport(t);
  }

  RbSlot e = co_await SizeEntry(t, req);
  if (!FitsSubBuffer(rank, e)) {
    co_await ForwardToGhumvee(t, req);
    co_return;
  }
  bool predict_block = PredictBlocking(req, *file_map_);
  while (RankFull(rank, e)) {
    token = co_await ResetRankThroughGhumvee(t, req, rank);
  }
  ClaimSlot(req, rank, &e);

  // §3.8: with a signal GHUMVEE deferred, this call restarts as a *monitored* call
  // so the monitor gets its synchronization point.
  bool signals_pending = rb_.SignalsPending();
  uint32_t flags = kRbFlagMasterCall | (predict_block ? kRbFlagMaybeBlocking : 0) |
                   (signals_pending ? kRbFlagForwarded : 0);
  co_await PublishArgs(t, rank, req, e, flags);

  // Execute: restart the call with the token intact; the IK-B verifier admits it
  // without reporting to GHUMVEE (fig. 2, steps 3-4). An invalid token (revoked /
  // forged / wrong call) forces CP execution.
  if (signals_pending || !broker_->VerifyToken(t, token, req.nr)) {
    co_await ForwardWithStub(t, req, rank, e.off);
    co_return;
  }
  co_await ThreadCost{t, kernel_->sim()->costs().token_check_ns};
  int64_t r = co_await ExecDirect{t, req};
  if (r == -kEINTR && rb_.SignalsPending()) {
    // §3.8: the blocking call was aborted for signal delivery; restart monitored.
    co_await ForwardWithStub(t, req, rank, e.off);
    co_return;
  }

  co_await PublishResults(t, rank, req, e.off, r);
}

GuestTask<void> IpMon::SlavePath(Thread* t, SyscallRequest req) {
  int rank = t->rank();
  REMON_CHECK(rank < config_.max_ranks);

  // Same CALCSIZE as the master: identical entry size, identical overflow decision.
  RbSlot e = co_await SizeEntry(t, req);
  if (!FitsSubBuffer(rank, e)) {
    co_await ForwardToGhumvee(t, req);
    co_return;
  }
  while (RankFull(rank, e)) {
    co_await ResetRankThroughGhumvee(t, req, rank);
  }
  ClaimSlot(req, rank, &e);

  if (!co_await ArgsMatch(t, e)) {
    IntentionalCrash(t);
    co_return;  // The syscall never completes; GHUMVEE shuts the MVEE down.
  }
  RbEntryHeader hdr = co_await AwaitResults(t, e.off);
  if ((hdr.flags & kRbFlagForwarded) != 0) {
    // The master routed this invocation to GHUMVEE (signals pending / aborted
    // blocking call); follow it so the monitor sees all replicas in lockstep.
    co_await ForwardToGhumvee(t, req);
    co_return;
  }
  broker_->RevokeToken(t);
  co_await ConsumeResults(t, req, e.off, hdr.result);
}

void IpMon::OnRbReset(int rank) {
  ++rb_resets_;
  if (is_master()) {
    ++kernel_->stats().rb_resets;
    // Clear the data area once (shared frames: every leader-local replica sees the
    // freed pages read as zeroes).
    ScrubRank(rank);
  } else if (rb_private_mirror_ && rb_.valid()) {
    // A remote replica's RB is a machine-local mirror: the master's zeroing does not
    // reach it, so the replica scrubs its own sub-buffer inside the (globally
    // synchronized) reset round. Every frame published before the round has been
    // applied by now — this replica could not have reached the overflow point
    // without consuming all of them.
    ScrubRank(rank);
  }
  cursor_[static_cast<size_t>(rank)] = rb_.RankDataStart(rank);
}

void IpMon::ScrubRank(int rank) {
  rb_.Zero(kernel_->futex(), rb_.RankDataStart(rank),
           rb_.RankDataEnd(rank) - rb_.RankDataStart(rank));
}

GuestAddr IpMon::MigrateRb() {
  if (!rb_.valid()) {
    return 0;
  }
  AddressSpace& mem = process_->mem();
  // Map the segment's frame table itself at the new address: the move makes no
  // page resident that the old mapping had not touched.
  const Vma* vma = mem.FindVma(rb_.base());
  if (vma == nullptr || vma->private_table || vma->start != rb_.base() ||
      vma->length < rb_.size()) {
    return 0;
  }
  std::shared_ptr<FrameTable> table = vma->table;
  uint64_t first_page = vma->first_page;
  // Fresh randomized location in this replica's mmap window (same entropy as the
  // original placement).
  GuestAddr hint = process_->layout.mmap_hint -
                   (kernel_->sim()->rng().NextBelow(1ULL << 24)) * kPageSize;
  GuestAddr fresh = mem.FindFreeRange(hint, rb_.size());
  if (fresh == 0) {
    return 0;
  }
  if (!mem.MapShared(fresh, rb_.size(), kProtRead | kProtWrite, "sysv-shm",
                     std::move(table), first_page)) {
    return 0;
  }
  mem.Unmap(rb_.base(), rb_.size());
  rb_ = RbView(process_, fresh, rb_.size(), config_.max_ranks);
  // Cursors are offsets, not addresses: they survive the move unchanged.
  ++rb_migrations_;
  ++kernel_->stats().rb_migrations;
  return fresh;
}

GuestTask<void> IpMon::VaranFlushBarrier(Thread* t, int rank) {
  // Every replica computes the same overflow decision at the same invocation index,
  // so all of them enter the barrier with the same generation. The buffer resets once
  // all replicas arrive — this bounds how far the master can run ahead (VARAN bounds
  // it with its ring size; the window-vs-security discussion is paper §6).
  uint64_t gen = ++varan_flush_gen_[static_cast<size_t>(rank)];
  uint64_t hdr = rb_.RankStart(rank);
  rb_.WriteU64(hdr + 8 + 8 * static_cast<uint64_t>(config_.replica_index), gen);
  rb_.WakeWord(kernel_->futex(), hdr);
  auto all_arrived = [this, hdr, gen] {
    for (int i = 0; i < config_.num_replicas; ++i) {
      if (rb_.ReadU64(hdr + 8 + 8 * static_cast<uint64_t>(i)) < gen) {
        return false;
      }
    }
    return true;
  };
  while (!all_arrived()) {
    co_await WaitOn{t, &rb_.WordQueue(kernel_->futex(), hdr)};
  }
  if (is_master()) {
    ScrubRank(rank);
    rb_.WriteU64(hdr + 0, gen);  // reset_done
    rb_.WakeWord(kernel_->futex(), hdr);
    ++kernel_->stats().rb_resets;
  } else {
    while (rb_.ReadU64(hdr + 0) < gen) {
      co_await WaitOn{t, &rb_.WordQueue(kernel_->futex(), hdr)};
    }
  }
  cursor_[static_cast<size_t>(rank)] = rb_.RankDataStart(rank);
  ++rb_resets_;
}

GuestTask<void> IpMon::VaranPath(Thread* t, SyscallRequest req) {
  SimStats& stats = kernel_->stats();

  // Local-resource calls (memory management, threads, signals, futexes) execute in
  // every replica; nothing to replicate.
  if (RelaxationPolicy::IsLocalCall(req.nr) || RelaxationPolicy::ForcedCpCall(req.nr)) {
    int64_t r = co_await ExecDirect{t, req};
    ++stats.syscalls_unmonitored;
    kernel_->CompleteSyscall(t, r);
    co_return;
  }

  int rank = t->rank();
  REMON_CHECK(rank < config_.max_ranks);
  RbSlot e = co_await SizeEntry(t, req);
  if (!FitsSubBuffer(rank, e)) {
    // Oversized transfer: fall back to local execution in every replica (VARAN has
    // no CP monitor to escalate to).
    int64_t r = co_await ExecDirect{t, req};
    ++stats.syscalls_unmonitored;
    kernel_->CompleteSyscall(t, r);
    co_return;
  }
  while (RankFull(rank, e)) {
    co_await VaranFlushBarrier(t, rank);
  }
  ClaimSlot(req, rank, &e);

  if (is_master()) {
    uint32_t flags =
        kRbFlagMasterCall | (PredictBlocking(req, *file_map_) ? kRbFlagMaybeBlocking : 0);
    co_await PublishArgs(t, rank, req, e, flags);
    int64_t r = co_await ExecDirect{t, req};
    co_await PublishResults(t, rank, req, e.off, r);
    co_return;
  }
  if (!co_await ArgsMatch(t, e)) {
    // Reliability-oriented: tolerate small discrepancies rather than shutting down
    // (paper §6 on VARAN's loose consistency checking).
    ++mismatches_tolerated_;
  }
  RbEntryHeader hdr = co_await AwaitResults(t, e.off);
  co_await ConsumeResults(t, req, e.off, hdr.result);
}

}  // namespace remon
