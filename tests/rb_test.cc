// Unit tests for the replication buffer, its wraparound stress, and the file map.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/file_map.h"
#include "src/core/remon.h"
#include "src/core/replication_buffer.h"
#include "tests/test_util.h"

namespace remon {
namespace {

class RbTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRbSize = 1 << 20;
  static constexpr int kRanks = 4;

  void SetUp() override {
    master_ = w_.NewProcess("rb-master");
    slave_ = w_.NewProcess("rb-slave");
    // One segment's frames mapped at different addresses, as in the real system.
    auto frames = std::make_shared<FrameTable>(kRbSize / kPageSize);
    ASSERT_TRUE(master_->mem().MapShared(0x7100'0000'0000ULL, kRbSize,
                                         kProtRead | kProtWrite, "rb", frames, 0));
    ASSERT_TRUE(slave_->mem().MapShared(0x7f33'0000'0000ULL, kRbSize,
                                        kProtRead | kProtWrite, "rb", frames, 0));
    master_view_ = RbView(master_, 0x7100'0000'0000ULL, kRbSize, kRanks);
    slave_view_ = RbView(slave_, 0x7f33'0000'0000ULL, kRbSize, kRanks);
  }

  SimWorld w_;
  Process* master_ = nullptr;
  Process* slave_ = nullptr;
  RbView master_view_;
  RbView slave_view_;
};

TEST_F(RbTest, LayoutPartitionsRanks) {
  EXPECT_EQ(master_view_.SubBufferSize(), (kRbSize - kRbGlobalHeaderSize) / kRanks);
  for (int r = 0; r + 1 < kRanks; ++r) {
    EXPECT_EQ(master_view_.RankDataEnd(r), master_view_.RankStart(r + 1));
    EXPECT_GT(master_view_.RankDataStart(r), master_view_.RankStart(r));
  }
  EXPECT_LE(master_view_.RankDataEnd(kRanks - 1), kRbSize);
}

TEST_F(RbTest, WritesVisibleThroughOtherMapping) {
  master_view_.WriteU64(128, 0xfeedface12345678ULL);
  EXPECT_EQ(slave_view_.ReadU64(128), 0xfeedface12345678ULL);
}

TEST_F(RbTest, SignalsPendingFlagShared) {
  EXPECT_FALSE(slave_view_.SignalsPending());
  master_view_.SetSignalsPending(true);
  EXPECT_TRUE(slave_view_.SignalsPending());
  master_view_.SetSignalsPending(false);
  EXPECT_FALSE(slave_view_.SignalsPending());
}

TEST_F(RbTest, EntryLifecycle) {
  uint64_t off = master_view_.RankDataStart(0);
  std::vector<uint8_t> sig = {1, 2, 3, 4, 5};
  uint64_t size = RbEntryOps::EntrySize(sig.size(), 64);
  EXPECT_EQ(size % 8, 0u);

  // Initially empty through either view.
  EXPECT_EQ(RbEntryOps::ReadHeader(slave_view_, off).state, kRbEmpty);

  RbEntryOps::CommitArgs(master_view_, off, Sys::kRead,
                         kRbFlagMasterCall | kRbFlagMaybeBlocking, 7, size, sig);
  RbEntryHeader h = RbEntryOps::ReadHeader(slave_view_, off);
  EXPECT_EQ(h.state, kRbArgsReady);
  EXPECT_EQ(h.sysno, static_cast<uint32_t>(Sys::kRead));
  EXPECT_EQ(h.seq, 7u);
  EXPECT_TRUE(h.flags & kRbFlagMaybeBlocking);
  EXPECT_EQ(RbEntryOps::ReadSignature(slave_view_, off), sig);

  std::vector<uint8_t> payload = {9, 9, 9};
  uint32_t waiters = RbEntryOps::CommitResults(master_view_, off, 42, payload);
  EXPECT_EQ(waiters, 0u);
  h = RbEntryOps::ReadHeader(slave_view_, off);
  EXPECT_EQ(h.state, kRbResultsReady);
  EXPECT_EQ(h.result, 42);
  EXPECT_EQ(RbEntryOps::ReadPayload(slave_view_, off), payload);
}

TEST_F(RbTest, WaiterCountTracksSlaves) {
  uint64_t off = master_view_.RankDataStart(1);
  std::vector<uint8_t> sig = {1};
  RbEntryOps::CommitArgs(master_view_, off, Sys::kWrite, 0, 0, 64, sig);
  RbEntryOps::AddWaiter(slave_view_, off);
  RbEntryOps::AddWaiter(slave_view_, off);
  EXPECT_EQ(RbEntryOps::ReadHeader(master_view_, off).waiters, 2u);
  uint32_t woken = RbEntryOps::CommitResults(master_view_, off, 0, {});
  EXPECT_EQ(woken, 2u);  // Master must issue FUTEX_WAKE.
  RbEntryOps::RemoveWaiter(slave_view_, off);
  RbEntryOps::RemoveWaiter(slave_view_, off);
  EXPECT_EQ(RbEntryOps::ReadHeader(master_view_, off).waiters, 0u);
}

TEST_F(RbTest, ZeroClearsRange) {
  uint64_t off = master_view_.RankDataStart(2);
  master_view_.WriteU64(off, 0x1111111111111111ULL);
  master_view_.WriteU64(off + 4096, 0x2222222222222222ULL);
  master_view_.Zero(w_.kernel.futex(), off, 8192);
  EXPECT_EQ(slave_view_.ReadU64(off), 0u);
  EXPECT_EQ(slave_view_.ReadU64(off + 4096), 0u);
}

// A reset frees the pages wholly inside the rank's data area, but the edge page
// it shares with the next rank's header and first entry only gets zeroes written
// into rank 0's bytes: the neighbour's entry survives, and its frame is the same,
// so a slave parked on the neighbour's state word is still woken.
TEST_F(RbTest, ResetKeepsTheNeighboursEdgePageAndItsWaiter) {
  FutexTable& futex = w_.kernel.futex();
  const uint64_t r0 = master_view_.RankDataStart(0);
  const uint64_t r0_end = master_view_.RankDataEnd(0);
  const uint64_t r1 = master_view_.RankDataStart(1);
  ASSERT_NE(r0_end % kPageSize, 0u);  // The sub-buffer ends inside a page...
  ASSERT_EQ(PageAlignDown(r1), PageAlignDown(r0_end));  // ...that holds rank 1's entry.

  RbEntryOps::CommitArgs(master_view_, r1, Sys::kRead, kRbFlagMaybeBlocking, 3, 128, {7, 7});
  int woken = 0;
  slave_view_.StateQueue(futex, r1).AddWaiter([&woken] { ++woken; });
  uint64_t page_off = 0;
  const Page* edge = slave_->mem().ResidentFrame(slave_view_.AddrOf(r1), &page_off);
  ASSERT_NE(edge, nullptr);

  master_view_.SetSignalsPending(true);  // The global header shares rank 0's head page.
  master_view_.WriteU64(r0, 0x1111);
  master_view_.WriteU64(r0 + 5 * kPageSize, 0x5555);
  master_view_.WriteU64(r0_end - 8, 0xeeee);  // Rank 0's last bytes, on the edge page.
  const FrameTable& table = *master_->mem().FindVma(master_view_.base())->table;
  ASSERT_EQ(table.resident(), 3u);
  master_view_.Zero(futex, r0, r0_end - r0);

  // Only the interior page went; the head and edge pages stay resident.
  EXPECT_EQ(table.resident(), 2u);
  EXPECT_FALSE(master_->mem().PageMaterialized(master_view_.AddrOf(r0 + 5 * kPageSize)));
  EXPECT_EQ(slave_view_.ReadU64(r0), 0u);
  EXPECT_EQ(slave_view_.ReadU64(r0 + 5 * kPageSize), 0u);
  EXPECT_EQ(slave_view_.ReadU64(r0_end - 8), 0u);
  EXPECT_TRUE(slave_view_.SignalsPending());
  RbEntryHeader h = RbEntryOps::ReadHeader(slave_view_, r1);
  EXPECT_EQ(h.state, kRbArgsReady);
  EXPECT_EQ(h.seq, 3u);
  EXPECT_EQ(RbEntryOps::ReadSignature(slave_view_, r1), (std::vector<uint8_t>{7, 7}));
  EXPECT_EQ(slave_->mem().ResidentFrame(slave_view_.AddrOf(r1), &page_off), edge);

  RbEntryOps::CommitResults(master_view_, r1, 0, {});
  master_view_.WakeState(futex, r1);
  EXPECT_EQ(woken, 1);
}

// Freeing a frame a waiter is keyed on would strand the waiter: the reset asserts
// that none is parked inside the range it frees.
TEST_F(RbTest, ResetUnderAParkedWaiterIsACheckFailure) {
  const uint64_t r2 = master_view_.RankDataStart(2);
  const uint64_t entry = r2 + 3 * kPageSize;
  RbEntryOps::CommitArgs(master_view_, entry, Sys::kRead, 0, 1, 64, {1});
  slave_view_.StateQueue(w_.kernel.futex(), entry).AddWaiter([] {});
  EXPECT_DEATH(master_view_.Zero(w_.kernel.futex(), r2,
                                 master_view_.RankDataEnd(2) - r2),
               "RB page freed under a futex waiter");
}

// A reset frees the pages of a demand-paged segment instead of writing zeroes into
// them, and faults nothing in: pages no attacher touched (a mid-lap replacement's
// mirror holds only its used tail) already read as zeroes, and the pages either
// attacher wrote go back to being holes that both read as zeroes.
TEST(RbZeroTest, ZeroFreesThePagesEitherAttacherTouched) {
  SimWorld w;
  Process* a = w.NewProcess("rb-a");
  Process* b = w.NewProcess("rb-b");
  constexpr uint64_t kSize = 16 * kPageSize;
  int id = w.shm.Get(ShmRegistry::kIpcPrivate, kSize, true, a->pid());
  ASSERT_GE(id, 0);
  const std::shared_ptr<FrameTable>& table = w.shm.Find(id)->frames;
  ASSERT_TRUE(a->mem().MapShared(0x7100'0000'0000ULL, kSize, kProtRead | kProtWrite,
                                 "sysv-shm", table, 0));
  ASSERT_TRUE(b->mem().MapShared(0x7f33'0000'0000ULL, kSize, kProtRead | kProtWrite,
                                 "sysv-shm", table, 0));
  RbView va(a, 0x7100'0000'0000ULL, kSize, 1);
  RbView vb(b, 0x7f33'0000'0000ULL, kSize, 1);
  va.WriteU64(5 * kPageSize + 8, 0x5555);
  vb.WriteU64(9 * kPageSize, 0x9999);  // Resident through the other attacher only.
  ASSERT_EQ(w.shm.resident_pages(), 2u);
  va.Zero(w.kernel.futex(), va.RankDataStart(0), va.RankDataEnd(0) - va.RankDataStart(0));
  EXPECT_EQ(w.shm.resident_pages(), 0u);
  EXPECT_EQ(vb.ReadU64(5 * kPageSize + 8), 0u);
  EXPECT_EQ(va.ReadU64(9 * kPageSize), 0u);
  EXPECT_EQ(va.ReadU64(5 * kPageSize + 8), 0u);
  EXPECT_EQ(vb.ReadU64(9 * kPageSize), 0u);
  EXPECT_EQ(w.shm.resident_pages(), 0u);  // Reading a hole faults nothing in.
}

// A publication nobody waits on allocates nothing, like a FUTEX_WAKE without a
// waiter: only a waiter creates its word's queue, a wake through another mapping
// of the same frame finds it, and the wake that empties it retires it.
TEST_F(RbTest, WakeWithoutWaiterCreatesNoFutexQueue) {
  FutexTable& futex = w_.kernel.futex();
  uint64_t off = master_view_.RankDataStart(0);
  RbEntryOps::CommitArgs(master_view_, off, Sys::kRead, 0, 1, 64, {1});
  uint64_t untouched = master_view_.RankDataStart(3);
  ASSERT_FALSE(master_->mem().PageMaterialized(master_view_.AddrOf(untouched)));
  size_t before = futex.queue_count();
  master_view_.WakeState(futex, off);
  master_view_.WakeWord(futex, off);
  master_view_.WakeState(futex, untouched);
  EXPECT_EQ(futex.queue_count(), before);
  EXPECT_FALSE(master_->mem().PageMaterialized(master_view_.AddrOf(untouched)));

  int woken = 0;
  slave_view_.StateQueue(futex, off).AddWaiter([&woken] { ++woken; });
  EXPECT_EQ(futex.queue_count(), before + 1);
  master_view_.WakeState(futex, off);
  EXPECT_EQ(woken, 1);
  EXPECT_EQ(futex.queue_count(), before);
}

TEST_F(RbTest, EntrySizeAlignsAndCovers) {
  for (uint64_t sig : {0ULL, 1ULL, 63ULL, 64ULL, 1000ULL}) {
    for (uint64_t out : {0ULL, 8ULL, 4096ULL}) {
      uint64_t size = RbEntryOps::EntrySize(sig, out);
      EXPECT_EQ(size % 8, 0u);
      EXPECT_GE(size, kRbEntryHeaderSize + sig + out);
    }
  }
}

// --- Sync-agent circular log: wraparound stress ------------------------------------

// Fills a (deliberately tiny) 32-slot sync log ~28 laps over with free-racing
// BeforeAcquire-guarded pops from three worker ranks, then scans every slot. The
// run finishing at all proves the wraparound gate never lost a wakeup (a master
// parked on a full log with no consumer left to wake would hang the MVEE, and a
// slave fed an overwritten slot trips the seq check and aborts); the post-run
// scan proves no slot carries a stale lap: each slot's embedded seq must be from
// the final lap, congruent to its slot index.
TEST(RbStressTest, SyncLogWraparoundUnderRacingRanks) {
  SimWorld w(92);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 3;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_size = 512 * 1024;
  opts.max_ranks = 4;
  opts.use_sync_agent = true;
  constexpr uint64_t kSlots = 32;
  opts.sync_log_size = kSyncLogOffEntries + kSlots * kSyncLogEntrySize;
  Remon mvee(&w.kernel, opts);

  constexpr int kWorkers = 3;
  constexpr int kOpsPerWorker = 300;
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    GuestAddr shared = g.Alloc(4);
    g.PokeU32(shared, 0);
    auto worker = [shared](int id) -> ProgramFn {
      return [shared, id](Guest& wg) -> GuestTask<void> {
        SyncAgent* agent = wg.process()->sync_agent;
        REMON_CHECK(agent != nullptr);
        int64_t fd = co_await wg.Open("/tmp/syncwrap-" + std::to_string(id),
                                      kO_CREAT | kO_RDWR);
        GuestAddr buf = wg.Alloc(128);
        for (int i = 0; i < kOpsPerWorker; ++i) {
          // Free-racing guarded pop: the object stream is rank-deterministic,
          // the interleaving is whatever the scheduler produces.
          co_await agent->BeforeAcquire(wg, 1 + static_cast<uint32_t>(i % 3));
          uint32_t v = wg.PeekU32(shared);
          wg.PokeU32(shared, v + 1);
          if (i % 13 == 0) {
            // The popped value feeds the write's length: a replica replaying
            // the order wrongly diverges on the argument signature.
            co_await wg.Write(static_cast<int>(fd), buf, 32 + (v % 7));
          }
          if (i % 29 == 0) {
            co_await wg.Compute(Micros(20));  // Lets slaves fall behind/catch up.
          }
        }
        co_await wg.Close(static_cast<int>(fd));
      };
    };
    GuestAddr join = g.Alloc(8);
    co_await g.Pipe(join);
    int join_rd = static_cast<int>(g.PeekU32(join));
    int join_wr = static_cast<int>(g.PeekU32(join + 4));
    for (int i = 1; i < kWorkers; ++i) {
      auto body = worker(i);
      uint64_t fn = g.RegisterThreadFn([body, join_wr](Guest& wg) -> GuestTask<void> {
        co_await body(wg);
        GuestAddr d = wg.Alloc(1);
        wg.Poke(d, "D", 1);
        co_await wg.Write(join_wr, d, 1);
      });
      co_await g.SpawnThread(fn);
    }
    auto self = worker(0);
    co_await self(g);
    GuestAddr sink = g.Alloc(4);
    for (int i = 0; i < kWorkers - 1; ++i) {
      int64_t n = co_await g.Read(join_rd, sink, 1);
      REMON_CHECK(n == 1);
    }
  }, "syncwrap");
  w.Run();

  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  const SimStats& stats = w.sim.stats();
  constexpr uint64_t kTotalOps = static_cast<uint64_t>(kWorkers) * kOpsPerWorker;
  EXPECT_EQ(stats.sync_ops_recorded, kTotalOps);
  // Every slave replica replayed the full history.
  EXPECT_EQ(stats.sync_ops_replayed, 2 * kTotalOps);
  EXPECT_EQ(mvee.sync_agent(1)->ops_replayed(), kTotalOps);
  EXPECT_EQ(mvee.sync_agent(2)->ops_replayed(), kTotalOps);
  // The master outran a lap and actually parked on the wraparound gate.
  EXPECT_GT(stats.sync_log_wrap_stalls, 0u);

  // Stale-slot scan (the rb_test wraparound idiom): after ~28 laps, every slot
  // must hold a final-lap entry — seq congruent to the slot index and within
  // the last `kSlots` ops. A slot with an older seq means a lap overwrote an
  // entry some replica had not consumed (or a publication was lost).
  for (const SyncAgent* agent :
       {mvee.sync_agent(0), mvee.sync_agent(1), mvee.sync_agent(2)}) {
    ASSERT_TRUE(agent != nullptr && agent->log_valid());
    const RbView& log = agent->log();
    EXPECT_EQ(agent->tail(), kTotalOps);
    for (uint64_t s = 0; s < kSlots; ++s) {
      uint64_t seq = log.ReadU64(kSyncLogOffEntries + s * kSyncLogEntrySize + 8);
      EXPECT_EQ(seq % kSlots, s) << "slot " << s;
      EXPECT_GE(seq, kTotalOps - kSlots) << "slot " << s;
      EXPECT_LT(seq, kTotalOps) << "slot " << s;
    }
  }
}

// --- FileMap --------------------------------------------------------------------

TEST(FileMapTest, SetClearLookup) {
  FileMap fm;
  EXPECT_FALSE(fm.IsValid(5));
  EXPECT_EQ(fm.TypeOf(5), FdType::kFree);
  fm.Set(5, FdType::kSocket, true);
  EXPECT_TRUE(fm.IsValid(5));
  EXPECT_EQ(fm.TypeOf(5), FdType::kSocket);
  EXPECT_TRUE(fm.IsNonblocking(5));
  fm.Clear(5);
  EXPECT_FALSE(fm.IsValid(5));
}

TEST(FileMapTest, NonblockingToggle) {
  FileMap fm;
  fm.Set(3, FdType::kPipe, false);
  EXPECT_FALSE(fm.IsNonblocking(3));
  fm.SetNonblocking(3, true);
  EXPECT_TRUE(fm.IsNonblocking(3));
  EXPECT_EQ(fm.TypeOf(3), FdType::kPipe);  // Type survives the flag change.
  fm.SetNonblocking(3, false);
  EXPECT_FALSE(fm.IsNonblocking(3));
}

TEST(FileMapTest, OutOfRangeIsSafe) {
  FileMap fm;
  EXPECT_EQ(fm.out_of_range_sets(), 0u);
  fm.Set(-1, FdType::kSocket, false);
  fm.Set(FileMap::kMaxFds + 10, FdType::kSocket, false);
  EXPECT_FALSE(fm.IsValid(-1));
  EXPECT_FALSE(fm.IsValid(FileMap::kMaxFds + 10));
  // The drops are counted (and warned about once), no longer silent.
  EXPECT_EQ(fm.out_of_range_sets(), 2u);
  fm.Set(3, FdType::kPipe, false);
  EXPECT_EQ(fm.out_of_range_sets(), 2u);  // In-range sets do not count.
}

TEST(FileMapTest, IsOnePageAsInPaper) {
  // "We maintain exactly one byte of metadata per FD, resulting in a page-sized
  // file map." (The default; fleet shards opt into more pages.)
  EXPECT_EQ(static_cast<uint64_t>(FileMap::kMaxFds), kPageSize);
  FileMap fm;
  EXPECT_EQ(fm.size_bytes(), kPageSize);
  EXPECT_EQ(fm.max_fds(), FileMap::kMaxFds);
}

TEST(FileMapTest, SharedPageVisibleThroughGuestMapping) {
  SimWorld w;
  Process* p = w.NewProcess("fm");
  FileMap fm;
  ASSERT_TRUE(p->mem().MapShared(0x7e00'0000'0000ULL, kPageSize, kProtRead, "ipmon-filemap",
                                 fm.frames(), 0));
  fm.Set(9, FdType::kSocket, true);
  uint8_t byte = 0;
  ASSERT_TRUE(p->mem().Read(0x7e00'0000'0000ULL + 9, &byte, 1).ok);
  EXPECT_EQ(byte & FileMap::kTypeMask, static_cast<uint8_t>(FdType::kSocket));
  EXPECT_TRUE(byte & FileMap::kNonblockBit);
  // The mapping is read-only: replicas cannot forge metadata.
  EXPECT_FALSE(p->mem().Write(0x7e00'0000'0000ULL + 9, &byte, 1).ok);
}

}  // namespace
}  // namespace remon
