// Steady-state allocation accounting for the coroutine runtime and event loop.
//
// This binary replaces the global operator new/delete with counting hooks, pins a
// single-rank workload into its steady state, and asserts the per-syscall path —
// trap event, dispatch, blocking retries, nested coroutine frames, completion
// bounce — performs ZERO heap allocations across a window of hundreds of further
// system calls. It also checks the FramePool actually recycles frames (nonzero
// hit rate) and that zero-delay events ride the ready lane, i.e. the machinery
// under test is the machinery actually exercised.
//
// The counters are plain (non-atomic): the simulation and the test both run on
// the one main thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "tests/test_util.h"

namespace {
uint64_t g_heap_allocs = 0;
std::size_t g_largest_alloc = 0;  // Largest single request since the last reset.
}  // namespace

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  g_largest_alloc = std::max(g_largest_alloc, n);
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) {
    std::abort();
  }
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  g_largest_alloc = std::max(g_largest_alloc, n);
  return std::malloc(n != 0 ? n : 1);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}

void* operator new(std::size_t n, std::align_val_t al) {
  ++g_heap_allocs;
  g_largest_alloc = std::max(g_largest_alloc, n);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n != 0 ? n : 1) != 0) {
    std::abort();
  }
  return p;
}

void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace remon {
namespace {

// One steady-state unit of work: a nested coroutine (its frame cycles through the
// FramePool every iteration) performing a read-modify-write at fixed offsets plus
// a couple of fast calls. All I/O overwrites pre-sized file bytes so the VFS never
// grows an inode.
GuestTask<void> WorkChunk(Guest& g, int fd, GuestAddr buf) {
  int64_t n = co_await g.Pread(fd, buf, 256, 0);
  REMON_CHECK(n == 256);
  n = co_await g.Pwrite(fd, buf, 256, 1024);
  REMON_CHECK(n == 256);
  co_await g.Getpid();
  co_await g.Fstat(fd, buf);
}

TEST(AllocTest, SteadyStateSyscallPathIsAllocationFree) {
  SimWorld w;
  w.fs.WriteWholeFile("/tmp/steady.bin", std::string(4096, 'x'));
  w.sim.frame_pool().ResetStats();

  Process* p = w.NewProcess("steady");
  bool finished = false;
  w.kernel.SpawnThread(p, [&finished](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/steady.bin", kO_RDWR);
    REMON_CHECK(fd >= 0);
    GuestAddr buf = g.Alloc(512);
    for (int i = 0; i < 4000; ++i) {
      co_await WorkChunk(g, static_cast<int>(fd), buf);
    }
    co_await g.Close(static_cast<int>(fd));
    finished = true;
  });

  // Warm up: run time slices until well past pool/queue/scratch growth.
  TimeNs t = 0;
  const TimeNs kStep = Millis(1);
  while (w.sim.stats().syscalls_total < 2000 && !finished) {
    t += kStep;
    w.Run(t);
  }
  ASSERT_FALSE(finished) << "workload too small to reach a steady-state window";

  // Measure: several hundred more syscalls must not touch the heap at all.
  const uint64_t syscalls_before = w.sim.stats().syscalls_total;
  const uint64_t allocs_before = g_heap_allocs;
  while (w.sim.stats().syscalls_total < syscalls_before + 500 && !finished) {
    t += kStep;
    w.Run(t);
  }
  const uint64_t syscalls_in_window = w.sim.stats().syscalls_total - syscalls_before;
  const uint64_t allocs_in_window = g_heap_allocs - allocs_before;
  ASSERT_GE(syscalls_in_window, 500u);
  EXPECT_EQ(allocs_in_window, 0u)
      << allocs_in_window << " heap allocations across " << syscalls_in_window
      << " steady-state syscalls";

  // The run must have exercised the machinery whose allocation-freedom is claimed.
  const FramePool::Stats fp = w.sim.frame_pool().stats();
  EXPECT_GT(fp.pool_hits, 0u);
  EXPECT_GT(fp.hit_rate(), 0.9);

  w.Run();
  EXPECT_TRUE(finished);
  // Zero-delay events (root-finish deferral, frame reaping) ride the ready lane.
  EXPECT_GT(w.sim.queue().lane_scheduled(), 0u);
}

// A futex queue lives only while a thread is parked on it, but a wait/wake cycle on
// the same word still allocates nothing once warm: the retired queue's node (and
// its vectors' capacity) is reused by the next wait.
TEST(AllocTest, FutexWaitWakeCycleIsAllocationFree) {
  SimWorld w;
  Process* p = w.NewProcess("futex-steady");
  bool stop = false;
  w.kernel.SpawnThread(p, [&stop](Guest& g) -> GuestTask<void> {
    GuestAddr word = g.Alloc(4);
    g.PokeU32(word, 0);
    uint64_t waker = g.RegisterThreadFn([word, &stop](Guest& wg) -> GuestTask<void> {
      while (!stop) {
        co_await wg.Compute(Micros(10));
        wg.PokeU32(word, 1);
        co_await wg.Futex(word, kFutexWake, 1);
      }
    });
    co_await g.SpawnThread(waker);
    while (!stop) {
      while (g.PeekU32(word) == 0) {
        co_await g.Futex(word, kFutexWait, 0);
      }
      g.PokeU32(word, 0);
    }
  });

  TimeNs t = Millis(5);
  w.Run(t);  // Warm up.
  const uint64_t waits_before = w.sim.stats().futex_waits;
  const uint64_t allocs_before = g_heap_allocs;
  t += Millis(5);
  w.Run(t);
  const uint64_t waits_in_window = w.sim.stats().futex_waits - waits_before;
  const uint64_t allocs_in_window = g_heap_allocs - allocs_before;
  EXPECT_GE(waits_in_window, 100u);
  EXPECT_EQ(allocs_in_window, 0u)
      << allocs_in_window << " heap allocations across " << waits_in_window
      << " futex wait/wake cycles";
  EXPECT_LE(w.kernel.futex().queue_count(), 1u);
  stop = true;
  w.Run();
  EXPECT_EQ(w.kernel.futex().queue_count(), 0u);
}

// A growing log lives in 4 KiB frames: appending 64-byte records allocates one
// frame per 4 KiB appended, plus the frame table's slot vector, which doubles. No
// allocation is ever the size of the file, and nothing already written is copied.
TEST(AllocTest, AppendedRecordsAllocateOneFramePerPage) {
  SimWorld w;
  Process* p = w.NewProcess("append");
  bool finished = false;
  w.kernel.SpawnThread(p, [&finished](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(
        co_await g.Open("/tmp/append.log", kO_CREAT | kO_WRONLY | kO_APPEND));
    GuestAddr record = g.Alloc(64);
    for (int i = 0; i < 8192; ++i) {
      co_await g.Write(fd, record, 64);
    }
    co_await g.Close(fd);
    finished = true;
  });

  // Warm up past the syscall path's first-use growth.
  TimeNs t = 0;
  const TimeNs kStep = Micros(100);
  while (w.sim.stats().syscalls_total < 200 && !finished) {
    t += kStep;
    w.Run(t);
  }
  std::shared_ptr<Inode> log = w.fs.Resolve("/tmp/append.log");
  ASSERT_NE(log, nullptr);

  const uint64_t syscalls_before = w.sim.stats().syscalls_total;
  const uint64_t frames_before = log->data.resident_pages();
  const uint64_t allocs_before = g_heap_allocs;
  g_largest_alloc = 0;
  while (w.sim.stats().syscalls_total < syscalls_before + 4096 && !finished) {
    t += kStep;
    w.Run(t);
  }
  ASSERT_FALSE(finished) << "workload too small to fill the window";
  const uint64_t frames = log->data.resident_pages();
  const uint64_t new_frames = frames - frames_before;
  const uint64_t allocs_in_window = g_heap_allocs - allocs_before;
  EXPECT_GE(new_frames, 60u);  // The window appended at least 256 KiB.
  EXPECT_EQ(frames, PageAlignUp(log->data.size()) / kPageSize);
  EXPECT_LE(allocs_in_window, new_frames + std::bit_width(frames))
      << allocs_in_window << " heap allocations for " << new_frames << " new frames";
  EXPECT_LE(g_largest_alloc, sizeof(Page) + 64);  // A frame and its control block.
  w.Run();
  EXPECT_TRUE(finished);
}

TEST(AllocTest, FramePoolRecyclesNestedFrames) {
  SimWorld w;
  w.fs.WriteWholeFile("/tmp/pool.bin", std::string(4096, 'y'));
  w.sim.frame_pool().ResetStats();

  Process* p = w.NewProcess("pool");
  w.kernel.SpawnThread(p, [](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/pool.bin", kO_RDWR);
    GuestAddr buf = g.Alloc(512);
    for (int i = 0; i < 100; ++i) {
      co_await WorkChunk(g, static_cast<int>(fd), buf);
    }
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();

  const FramePool::Stats fp = w.sim.frame_pool().stats();
  // 100 nested frames + 1 root; after the first WorkChunk frame is recycled,
  // every later one is a free-list hit of the same size class.
  EXPECT_GE(fp.allocs, 101u);
  EXPECT_GE(fp.pool_hits, 99u);
  EXPECT_EQ(fp.live, 0u);
  EXPECT_EQ(fp.allocs, fp.frees);
}

}  // namespace
}  // namespace remon
