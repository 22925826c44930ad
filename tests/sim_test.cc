// Unit tests for the discrete-event simulation core.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace remon {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, SameTimeEventsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  TimeNs seen = -1;
  q.ScheduleAt(100, [&] {
    q.ScheduleAfter(50, [&] { seen = q.now(); });
  });
  q.RunAll();
  EXPECT_EQ(seen, 150);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventQueue::EventId id = q.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  q.RunAll();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelledEventDoesNotAdvanceClock) {
  EventQueue q;
  EventQueue::EventId id = q.ScheduleAt(1000, [] {});
  q.ScheduleAt(10, [] {});
  q.Cancel(id);
  q.RunAll();
  EXPECT_EQ(q.now(), 10);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.ScheduleAt(10, [&] { ++count; });
  q.ScheduleAt(20, [&] { ++count; });
  q.ScheduleAt(30, [&] { ++count; });
  EXPECT_EQ(q.RunUntil(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      q.ScheduleAfter(1, chain);
    }
  };
  q.ScheduleAt(0, chain);
  q.RunAll();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), 99);
}

// The lockstep-watchdog pattern: a 2 s timer armed and cancelled microseconds
// later, 100k times, around at most 64 live events. Cancelled timers must not
// hold their nodes until the deadline, and compaction must not disturb the
// (when, seq) order the live events run in.
TEST(EventQueueTest, CancelledTimersAreCompactedAroundASmallLiveSet) {
  EventQueue q;
  Rng rng(17);
  struct Ran {
    TimeNs when;
    uint64_t seq;
  };
  std::vector<Ran> ran;
  uint64_t next_seq = 0;
  int short_live = 0;
  std::vector<EventQueue::EventId> armed;
  for (int i = 0; i < 100000; ++i) {
    armed.push_back(q.ScheduleAfter(2 * kSecond, [] { FAIL() << "a cancelled timer ran"; }));
    if (armed.size() > 8) {
      ASSERT_TRUE(q.Cancel(armed[armed.size() - 9]));
    }
    // Short events at now (ready lane) or up to 3 us out (heap); some cancelled.
    while (short_live < 48) {
      TimeNs when = q.now() + static_cast<TimeNs>(rng.NextBelow(4)) * kMicrosecond;
      uint64_t seq = next_seq++;
      EventQueue::EventId id = q.ScheduleAt(when, [&ran, &short_live, when, seq] {
        ran.push_back(Ran{when, seq});
        --short_live;
      });
      ++short_live;
      if (rng.NextBelow(8) == 0) {
        ASSERT_TRUE(q.Cancel(id));
        --short_live;
      }
    }
    q.RunUntil(q.now() + kMicrosecond);
    ASSERT_LE(q.live_events(), 64u);
    ASSERT_LE(q.cancelled_pending(), EventQueue::kCompactFloor);
  }
  for (size_t i = armed.size() - 8; i < armed.size(); ++i) {
    ASSERT_TRUE(q.Cancel(armed[i]));
  }
  q.RunAll();
  EXPECT_TRUE(q.empty());
  EXPECT_GT(q.compactions(), 1000u);
  // Without compaction every cancelled 2 s timer would still be queued: 100k
  // nodes, about 390 chunks of 256.
  EXPECT_LE(q.node_chunks_allocated(), 2u);
  ASSERT_GT(ran.size(), 100000u);
  for (size_t i = 1; i < ran.size(); ++i) {
    ASSERT_TRUE(ran[i - 1].when < ran[i].when ||
                (ran[i - 1].when == ran[i].when && ran[i - 1].seq < ran[i].seq))
        << "event " << i;
  }
}

TEST(ScopedEventsTest, FiredEventsForgetThemselvesAndTheRestCancelAtDestruction) {
  EventQueue q;
  std::vector<int> order;
  {
    ScopedEvents events(&q);
    events.ScheduleAfter(10, [&] { order.push_back(1); });
    events.ScheduleAfter(30, [&] { order.push_back(3); });
    q.RunUntil(20);
    EXPECT_EQ(order, (std::vector<int>{1}));
  }  // The 30 ns event must never call back into a destroyed owner.
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_TRUE(q.empty());
}

TEST(ScopedEventsTest, CancelAllLeavesTheOwnerReusable) {
  EventQueue q;
  ScopedEvents events(&q);
  int fired = 0;
  events.ScheduleAfter(5, [&] { ++fired; });
  events.CancelAll();
  events.ScheduleAfter(5, [&] { ++fired; });
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next64() != b.Next64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 10);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.25)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits, 2500, 200);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next64(), child.Next64());
}

TEST(CpuPoolTest, SingleEntityRunsBackToBack) {
  CpuPool pool(4, 1000);
  auto g1 = pool.Acquire(0, 1, 0, 500, -1);
  // First acquisition charges a context switch (core previously idle/other).
  EXPECT_EQ(g1.start, 1000);
  EXPECT_EQ(g1.end, 1500);
  auto g2 = pool.Acquire(0, 1, g1.end, 500, g1.core);
  EXPECT_FALSE(g2.context_switched);
  EXPECT_EQ(g2.start, 1500);
}

TEST(CpuPoolTest, DistinctEntitiesUseDistinctCores) {
  CpuPool pool(4, 100);
  auto g1 = pool.Acquire(0, 1, 0, 1000, -1);
  auto g2 = pool.Acquire(0, 2, 0, 1000, -1);
  EXPECT_NE(g1.core, g2.core);
  // Both start at the same (post-switch) time: true parallelism.
  EXPECT_EQ(g1.start, g2.start);
}

TEST(CpuPoolTest, OversubscriptionQueues) {
  CpuPool pool(1, 0);
  auto g1 = pool.Acquire(0, 1, 0, 1000, -1);
  auto g2 = pool.Acquire(0, 2, 0, 1000, -1);
  EXPECT_EQ(g2.start, g1.end);
}

TEST(CpuPoolTest, ContextSwitchCounted) {
  CpuPool pool(1, 50);
  pool.Acquire(0, 1, 0, 10, -1);
  pool.Acquire(0, 2, 0, 10, -1);
  pool.Acquire(0, 1, 0, 10, -1);
  EXPECT_EQ(pool.context_switches(), 3u);
}

TEST(CpuPoolTest, QueueWaitIsTheWaitForABusyCoreOnTheSameMachine) {
  CpuPool pool(1, 50);
  auto g1 = pool.Acquire(0, 1, 0, 100, -1);
  auto g2 = pool.Acquire(0, 2, 0, 100, -1);
  EXPECT_EQ(g2.start, g1.end + 50);
  // Another machine's core is free: no wait there.
  auto g3 = pool.Acquire(1, 3, 0, 100, -1);
  EXPECT_EQ(g3.start, 50);
  // Only entity 2's wait for the busy core counts, not the switch costs.
  EXPECT_EQ(pool.queue_wait_ns(), g1.end);
}

TEST(CostModelTest, DilationGrowsWithReplicas) {
  CostModel c;
  EXPECT_DOUBLE_EQ(c.ComputeDilation(1.0, 1), 1.0);
  EXPECT_GT(c.ComputeDilation(1.0, 2), 1.0);
  EXPECT_GT(c.ComputeDilation(1.0, 4), c.ComputeDilation(1.0, 2));
  EXPECT_DOUBLE_EQ(c.ComputeDilation(0.0, 4), 1.0);
}

TEST(CostModelTest, SmallerCacheDilatesMore) {
  CostModel big;
  big.llc_mb = 20;
  CostModel small = big;
  small.llc_mb = 8;
  EXPECT_GT(small.ComputeDilation(0.5, 2), big.ComputeDilation(0.5, 2));
}

TEST(SimulatorTest, RunDrainsQueue) {
  Simulator sim(1);
  int count = 0;
  sim.queue().ScheduleAt(10, [&] { ++count; });
  sim.queue().ScheduleAt(20, [&] { ++count; });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(sim.now(), 20);
}

}  // namespace
}  // namespace remon
