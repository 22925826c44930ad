// The per-machine CPU model: every simulated machine brings its own cores and its
// own memory-contention count, and every charge lands on the machine of the
// process (or monitor) that incurs it.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/remon.h"
#include "tests/test_util.h"

namespace remon {
namespace {

CostModel OneCorePerMachine() {
  CostModel costs = CostModel::Default();
  costs.num_cores = 1;
  return costs;
}

TEST(CpuModelTest, BusyMachineDoesNotDelayAnother) {
  SimWorld w(42, OneCorePerMachine());
  Process* busy = w.NewProcess("busy", -1, w.server_machine);
  Process* idle = w.NewProcess("idle", -1, w.client_machine);
  TimeNs busy_end = 0;
  TimeNs idle_end = 0;
  w.kernel.SpawnThread(busy, [&](Guest& g) -> GuestTask<void> {
    co_await g.Compute(Millis(1));
    busy_end = g.kernel()->now();
  });
  w.kernel.SpawnThread(idle, [&](Guest& g) -> GuestTask<void> {
    co_await g.Compute(Micros(10));
    idle_end = g.kernel()->now();
  });
  w.Run();
  EXPECT_GE(busy_end, Millis(1));
  // One context switch onto its own machine's idle core, then the burst.
  EXPECT_EQ(idle_end, w.sim.costs().context_switch_ns + Micros(10));
  EXPECT_EQ(w.sim.cpus().queue_wait_ns(), 0);
}

TEST(CpuModelTest, RemoteReplicaIsDilatedOnlyByItsOwnMachine) {
  SimWorld w;
  constexpr double kMemIntensity = 0.5;
  std::vector<Process*> replicas = {
      w.NewProcess("r0", 0, w.server_machine),
      w.NewProcess("r1", 1, w.server_machine),
      w.NewProcess("r2", 2, w.client_machine),
  };
  EXPECT_EQ(w.kernel.live_replicas_on(w.server_machine), 2);
  EXPECT_EQ(w.kernel.live_replicas_on(w.client_machine), 1);
  for (Process* p : replicas) {
    p->mem_intensity = kMemIntensity;
    w.kernel.SpawnThread(p, [](Guest& g) -> GuestTask<void> {
      co_await g.Compute(Micros(100));
    });
  }
  w.Run();
  DurationNs colocated = static_cast<DurationNs>(
      static_cast<double>(Micros(100)) * w.sim.costs().ComputeDilation(kMemIntensity, 2));
  EXPECT_GT(colocated, Micros(100));
  EXPECT_EQ(replicas[0]->TotalCpuNs(), colocated);
  EXPECT_EQ(replicas[1]->TotalCpuNs(), colocated);
  EXPECT_EQ(replicas[2]->TotalCpuNs(), Micros(100));
  // Exited replicas no longer contend.
  EXPECT_EQ(w.kernel.live_replicas_on(w.server_machine), 0);
  EXPECT_EQ(w.kernel.live_replicas_on(w.client_machine), 0);
}

TEST(CpuModelTest, MigrationMovesTheReplicaCount) {
  SimWorld w(7);
  uint32_t home = w.net.AddMachine("replica-host-1");
  uint32_t target = w.net.AddMachine("replica-host-2");
  for (uint32_t m : {home, target}) {
    w.net.SetLink(w.server_machine, m, LinkParams{50 * kMicrosecond, 0.125});
  }
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.machine = w.server_machine;
  opts.replica_machines = {w.server_machine, home};
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/migrate", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    for (int i = 0; i < 2000; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 64);
      co_await g.Compute(Micros(5));
    }
    co_await g.Close(static_cast<int>(fd));
  });
  auto counts = [&w, home, target] {
    return std::vector<int>{w.kernel.live_replicas_on(w.server_machine),
                            w.kernel.live_replicas_on(home),
                            w.kernel.live_replicas_on(target)};
  };
  std::vector<int> before;
  std::vector<int> after;
  bool migrated = false;
  w.sim.queue().ScheduleAt(Millis(4), [&] { before = counts(); });
  w.sim.queue().ScheduleAt(Millis(5), [&] {
    migrated = mvee.SpawnReplacement(1, static_cast<int>(target));
    after = counts();
  });
  w.Run(Seconds(30));
  ASSERT_TRUE(migrated);
  EXPECT_EQ(before, (std::vector<int>{1, 1, 0}));
  EXPECT_EQ(after, (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(mvee.replicas()[1]->machine(), target);
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.finished());
  EXPECT_EQ(counts(), (std::vector<int>{0, 0, 0}));
}

TEST(CpuModelTest, PoolAggregatesOverTheMachinesUsed) {
  SimWorld w;
  uint32_t third = w.net.AddMachine("third");
  EXPECT_EQ(w.sim.cpus().num_cores(), 0);
  for (uint32_t m : {w.server_machine, third}) {
    Process* p = w.NewProcess("p" + std::to_string(m), -1, m);
    w.kernel.SpawnThread(p, [](Guest& g) -> GuestTask<void> { co_await g.Compute(Micros(40)); });
  }
  w.Run();
  // The client machine ran nothing, so it brought no cores.
  EXPECT_EQ(w.sim.cpus().num_cores(), 2 * w.sim.costs().num_cores);
  // Each machine: one context switch onto an idle core, then the burst.
  EXPECT_EQ(w.sim.cpus().context_switches(), 2u);
  EXPECT_EQ(w.sim.cpus().total_busy(), 2 * (w.sim.costs().context_switch_ns + Micros(40)));
}

// Two replica sets on one machine: each GHUMVEE monitor has its own scheduling
// identity, so trading a core between them charges a context switch, and neither
// identity is a tid.
TEST(CpuModelTest, TwoMonitorsOnOneMachineSwitchContext) {
  SimWorld w(42, OneCorePerMachine());
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  opts.machine = w.server_machine;
  Remon first(&w.kernel, opts);
  Remon second(&w.kernel, opts);
  // Two ranks per replica set, so each monitor opens two lanes.
  std::vector<uint64_t> tids;
  auto body = [&tids](Guest& g) -> GuestTask<void> {
    tids.push_back(static_cast<uint64_t>(g.thread()->tid()));
    uint64_t helper = g.RegisterThreadFn([&tids](Guest& hg) -> GuestTask<void> {
      tids.push_back(static_cast<uint64_t>(hg.thread()->tid()));
      co_await hg.Getpid();
    });
    co_await g.SpawnThread(helper);
    co_await g.Getpid();
  };
  first.Launch(body, "first");
  second.Launch(body, "second");
  std::vector<PtraceHub*> hubs = {first.master()->tracer, second.master()->tracer};
  for (PtraceHub* hub : hubs) {
    EXPECT_EQ(hub->lane(0), nullptr);  // Lanes open on their rank's first event.
  }
  w.Run();
  ASSERT_TRUE(first.finished() && second.finished());
  ASSERT_EQ(tids.size(), 8u);
  std::vector<PtraceHub::Lane*> lanes;
  for (PtraceHub* hub : hubs) {
    EXPECT_EQ(hub->monitor_machine, w.server_machine);
    EXPECT_EQ(hub->lane(2), nullptr);
    for (int rank = 0; rank < 2; ++rank) {
      ASSERT_NE(hub->lane(rank), nullptr);
      lanes.push_back(hub->lane(rank));
    }
  }
  for (size_t i = 0; i < lanes.size(); ++i) {
    for (size_t j = i + 1; j < lanes.size(); ++j) {
      EXPECT_NE(lanes[i]->entity, lanes[j]->entity);
    }
    for (uint64_t tid : tids) {
      EXPECT_NE(lanes[i]->entity, tid);
    }
  }
  // Alternating lanes on the machine's one core: every charge switches context.
  uint64_t switches = w.sim.cpus().context_switches();
  for (PtraceHub::Lane* lane : {lanes[0], lanes[1], lanes[2], lanes[0]}) {
    w.kernel.RunOnEntity(w.server_machine, lane->entity, &lane->core, Micros(1), [] {});
  }
  w.Run();
  EXPECT_EQ(w.sim.cpus().context_switches(), switches + 4);
}

}  // namespace
}  // namespace remon
