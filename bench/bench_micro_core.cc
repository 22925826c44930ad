// Micro-benchmarks of the hot in-library operations, plus the allocation profile
// of the steady-state syscall path.
//
// Two kinds of output:
//  - Host-clock ns/op tables for the core primitives (RB commit, signature
//    serialization, policy classification, token issue/verify, event queue
//    schedule+run, guest memory writes). These are machine-dependent and go to
//    stdout only.
//  - Deterministic counters from a pinned-seed steady-state run — heap
//    allocations per syscall (counted by a global operator new hook below),
//    FramePool hit rate, ready-lane share, events per syscall. These are exact,
//    reproducible numbers and feed the remon-bench-v1 JSON gated by
//    tools/check_bench_regression.py against BENCH_micro.json.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/core/broker.h"
#include "src/core/file_map.h"
#include "src/core/policy.h"
#include "src/core/remon.h"
#include "src/core/replication_buffer.h"
#include "src/harness/bench_json.h"
#include "src/harness/table.h"
#include "src/kernel/guest.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall_meta.h"
#include "src/mem/address_space.h"
#include "src/mem/layout.h"
#include "src/mem/shm.h"
#include "src/net/network.h"
#include "src/sim/event_queue.h"
#include "src/vfs/fs.h"

namespace {
// Heap traffic counter for the steady-state metric. Plain (non-atomic): the
// simulation runs single-threaded.
uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) {
    std::abort();
  }
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(n != 0 ? n : 1);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}

void* operator new(std::size_t n, std::align_val_t al) {
  ++g_heap_allocs;
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

// Defeats dead-code elimination without a library dependency.
template <typename T>
inline void Keep(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// Host wall-clock ns/op for `op` run `iters` times (after one warmup pass).
template <typename Op>
double NsPerOp(uint64_t iters, Op&& op) {
  op();
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    op();
  }
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(iters);
}

// A tiny world providing a process with mapped memory for RB/signature benches.
struct MicroWorld {
  MicroWorld() : sim(1), net(&sim), kernel(&sim, &fs, &net, &shm) {
    Rng rng(7);
    LayoutPlanner planner(&rng);
    process = kernel.CreateProcess("micro", 0, planner.PlanFor(0));
    rb_base = 0x7000'0000'0000ULL;
    process->mem().MapFixed(rb_base, 1 << 20, kProtRead | kProtWrite, true, "rb");
    view = RbView(process, rb_base, 1 << 20, 4);
  }
  Simulator sim;
  Filesystem fs;
  Network net;
  ShmRegistry shm;
  Kernel kernel;
  Process* process;
  GuestAddr rb_base;
  RbView view;
};

void RunHostMicroTables() {
  std::printf("== Core primitives (host clock; machine-dependent, stdout only) ==\n");
  constexpr uint64_t kIters = 200000;
  Table table({"operation", "ns/op"});

  {
    MicroWorld w;
    for (size_t sig_bytes : {size_t{64}, size_t{1024}, size_t{16384}}) {
      std::vector<uint8_t> sig(sig_bytes, 0xab);
      uint64_t off = w.view.RankDataStart(0);
      double ns = NsPerOp(kIters / (sig_bytes > 1024 ? 16 : 1), [&] {
        RbEntryOps::CommitArgs(w.view, off, Sys::kRead, kRbFlagMasterCall, 1, 512, sig);
        Keep(w.view);
      });
      table.AddRow({"rb_commit_args/" + std::to_string(sig_bytes), Table::Num(ns, 1)});
    }
  }
  {
    MicroWorld w;
    std::vector<uint8_t> sig(64, 0xab);
    std::vector<uint8_t> payload(4096, 0xcd);
    uint64_t off = w.view.RankDataStart(0);
    RbEntryOps::CommitArgs(w.view, off, Sys::kRead, kRbFlagMasterCall, 1, 512, sig);
    double ns = NsPerOp(kIters, [&] { Keep(RbEntryOps::CommitResults(w.view, off, 42, payload)); });
    table.AddRow({"rb_commit_results/4096", Table::Num(ns, 1)});
  }
  {
    MicroWorld w;
    GuestAddr buf = w.rb_base + 4096;
    SyscallRequest req{Sys::kWrite, {3, buf, 1024, 0, 0, 0}};
    double ns = NsPerOp(kIters / 4, [&] { Keep(SerializeCallSignature(w.process, req)); });
    table.AddRow({"serialize_call_signature/1024", Table::Num(ns, 1)});
  }
  {
    RelaxationPolicy policy(PolicyLevel::kSocketRw);
    uint32_t i = 1;
    double ns = NsPerOp(kIters, [&] {
      Sys nr = static_cast<Sys>(1 + (i++ % (kNumSyscalls - 1)));
      Keep(policy.AllowsUnmonitored(nr, FdType::kSocket));
    });
    table.AddRow({"policy_classify", Table::Num(ns, 1)});
  }
  {
    MicroWorld w;
    IkBroker broker(&w.kernel, RelaxationPolicy(PolicyLevel::kSocketRw));
    Thread* t =
        w.kernel.SpawnThread(w.process, [](Guest& g) -> GuestTask<void> { co_return; });
    t->cur_req.nr = Sys::kRead;
    double ns = NsPerOp(kIters, [&] {
      uint64_t token = broker.IssueToken(t);
      Keep(broker.VerifyToken(t, token, Sys::kRead));
    });
    table.AddRow({"token_issue_verify", Table::Num(ns, 1)});
  }
  {
    EventQueue q;
    double ns = NsPerOp(kIters, [&] {
      q.ScheduleAfter(1, [] {});
      q.RunOne();
    });
    table.AddRow({"event_queue_schedule_run", Table::Num(ns, 1)});
    // Zero-delay events exercise the ready lane instead of the time heap.
    double lane_ns = NsPerOp(kIters, [&] {
      q.ScheduleAfter(0, [] {});
      q.RunOne();
    });
    table.AddRow({"event_queue_ready_lane_run", Table::Num(lane_ns, 1)});
  }
  {
    AddressSpace as;
    as.MapFixed(0x10000, 1 << 20, kProtRead | kProtWrite, false, "bench");
    std::vector<uint8_t> data(4096, 0x5a);
    double ns = NsPerOp(kIters, [&] { Keep(as.Write(0x10000, data.data(), data.size())); });
    table.AddRow({"address_space_write/4096", Table::Num(ns, 1)});
  }
  {
    FileMap fm;
    for (int fd = 0; fd < 64; ++fd) {
      fm.Set(fd, FdType::kSocket, false);
    }
    int fd = 0;
    double ns = NsPerOp(kIters, [&] { Keep(fm.TypeOf(fd++ % 64)); });
    table.AddRow({"file_map_lookup", Table::Num(ns, 1)});
  }
  table.Print();
}

// One steady-state unit of work: a nested coroutine frame (recycled through the
// FramePool each iteration) doing fixed-offset I/O plus fast calls — the same
// shape tests/alloc_test.cc pins to zero allocations.
GuestTask<void> WorkChunk(Guest& g, int fd, GuestAddr buf) {
  int64_t n = co_await g.Pread(fd, buf, 256, 0);
  REMON_CHECK(n == 256);
  n = co_await g.Pwrite(fd, buf, 256, 1024);
  REMON_CHECK(n == 256);
  co_await g.Getpid();
  co_await g.Fstat(fd, buf);
}

void RunSteadyStateAllocProfile(BenchJson* json) {
  std::printf("\n== Steady-state syscall path: allocation & scheduler profile ==\n");
  Simulator sim(42);
  Filesystem fs;
  Network net(&sim);
  ShmRegistry shm;
  Kernel kernel(&sim, &fs, &net, &shm);
  Rng rng(7);
  LayoutPlanner planner(&rng);
  Process* p = kernel.CreateProcess("steady", 0, planner.PlanFor(0));
  fs.WriteWholeFile("/tmp/steady.bin", std::string(4096, 'x'));
  sim.frame_pool().ResetStats();

  bool finished = false;
  kernel.SpawnThread(p, [&finished](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/steady.bin", kO_RDWR);
    REMON_CHECK(fd >= 0);
    GuestAddr buf = g.Alloc(512);
    for (int i = 0; i < 6000; ++i) {
      co_await WorkChunk(g, static_cast<int>(fd), buf);
    }
    co_await g.Close(static_cast<int>(fd));
    finished = true;
  });

  // Warm up past pool/queue/scratch growth, then measure a pinned window.
  TimeNs t = 0;
  const TimeNs kStep = Millis(1);
  uint64_t events_total = 0;
  while (sim.stats().syscalls_total < 2000 && !finished) {
    t += kStep;
    events_total += sim.Run(t);
  }
  const uint64_t syscalls_before = sim.stats().syscalls_total;
  const uint64_t allocs_before = g_heap_allocs;
  const uint64_t events_before = events_total;
  while (sim.stats().syscalls_total < syscalls_before + 2000 && !finished) {
    t += kStep;
    events_total += sim.Run(t);
  }
  const uint64_t syscalls_window = sim.stats().syscalls_total - syscalls_before;
  const uint64_t allocs_window = g_heap_allocs - allocs_before;
  const uint64_t events_window = events_total - events_before;
  sim.Run();

  const FramePool::Stats fp = sim.frame_pool().stats();
  const double allocs_per_100 =
      100.0 * static_cast<double>(allocs_window) / static_cast<double>(syscalls_window);
  const double events_per_syscall =
      static_cast<double>(events_window) / static_cast<double>(syscalls_window);

  Table table({"metric", "value"});
  table.AddRow({"syscalls in window", Table::Num(static_cast<double>(syscalls_window), 0)});
  table.AddRow({"heap allocs in window", Table::Num(static_cast<double>(allocs_window), 0)});
  table.AddRow({"frame pool hit rate", Table::Num(fp.hit_rate(), 4)});
  table.AddRow({"events per syscall", Table::Num(events_per_syscall, 3)});
  table.Print();
  std::printf(
      "\nThe window's heap traffic is the whole per-syscall story: trap event,\n"
      "dispatch, nested coroutine frames, blocking retries, completion bounce.\n"
      "Zero is the bar (tests/alloc_test.cc enforces it); the JSON metric is\n"
      "plus-one encoded so the regression gate can ratio against a 0 baseline.\n");

  // All deterministic (pinned seed, virtual time): exact across machines.
  json->Add("alloc/steady_allocs_per_100_syscalls_plus1", 1.0 + allocs_per_100, "count");
  json->Add("frame_pool/hit_rate", fp.hit_rate(), "ratio", /*higher_is_better=*/true);
  json->Add("event_queue/events_per_syscall", events_per_syscall, "count");
}

// Ready-lane share under MVEE lockstep, where zero-delay scheduling is pervasive:
// wake bounces, RB publication hops, monitored-round resumes, root-finish
// deferrals. (The single-rank native run above barely touches the lane — every
// trap/completion event carries a nonzero cost-model delay.)
void RunLockstepSchedulerProfile(BenchJson* json) {
  std::printf("\n== Lockstep scheduler profile (2 replicas, kRemon) ==\n");
  Simulator sim(42);
  Filesystem fs;
  Network net(&sim);
  ShmRegistry shm;
  Kernel kernel(&sim, &fs, &net, &shm);
  net.AddMachine("leader");
  fs.WriteWholeFile("/tmp/lockstep.bin", std::string(4096, 'x'));

  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_size = 256 * 1024;
  opts.max_ranks = 4;
  Remon mvee(&kernel, opts);
  mvee.Launch(
      [](Guest& g) -> GuestTask<void> {
        int64_t fd = co_await g.Open("/tmp/lockstep.bin", kO_RDWR);
        REMON_CHECK(fd >= 0);
        GuestAddr buf = g.Alloc(512);
        for (int i = 0; i < 2000; ++i) {
          co_await g.Pwrite(static_cast<int>(fd), buf, 256, (i % 8) * 256);
          if (i % 16 == 0) {
            co_await g.Fstat(static_cast<int>(fd), buf);
          }
        }
        co_await g.Close(static_cast<int>(fd));
      },
      "lockstep");
  uint64_t events = sim.Run();

  const uint64_t lane = sim.queue().lane_scheduled();
  const uint64_t heap = sim.queue().heap_scheduled();
  const uint64_t syscalls = sim.stats().syscalls_total;
  const double lane_fraction = static_cast<double>(lane) / static_cast<double>(lane + heap);
  const double events_per_syscall =
      static_cast<double>(events) / static_cast<double>(syscalls);
  // Each stop that finds its rank's monitor lane idle pays one waitpid wakeup.
  const double wakeups_per_round =
      static_cast<double>(sim.stats().ptrace_wakeups) /
      static_cast<double>(sim.stats().syscalls_monitored);

  Table table({"metric", "value"});
  table.AddRow({"syscalls (all ranks)", Table::Num(static_cast<double>(syscalls), 0)});
  table.AddRow({"events run", Table::Num(static_cast<double>(events), 0)});
  table.AddRow({"ready-lane share", Table::Num(lane_fraction, 4)});
  table.AddRow({"events per syscall", Table::Num(events_per_syscall, 3)});
  table.AddRow({"lockstep rounds",
                Table::Num(static_cast<double>(sim.stats().syscalls_monitored), 0)});
  table.AddRow({"ptrace wakeups per round", Table::Num(wakeups_per_round, 3)});
  table.Print();

  json->Add("event_queue/lockstep_ready_lane_fraction", lane_fraction, "ratio",
            /*higher_is_better=*/true);
  json->Add("event_queue/lockstep_events_per_syscall", events_per_syscall, "count");
  json->Add("ptrace/wakeups_per_lockstep_round", wakeups_per_round, "count");
}

}  // namespace
}  // namespace remon

int main(int argc, char** argv) {
  std::string json_path = remon::BenchJson::PathFromArgs(argc, argv);
  remon::BenchJson json("micro");
  remon::RunHostMicroTables();
  remon::RunSteadyStateAllocProfile(&json);
  remon::RunLockstepSchedulerProfile(&json);
  return json.WriteTo(json_path) ? 0 : 1;
}
