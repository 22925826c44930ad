// Property-based and parameterized sweeps over the full system:
//  * transparency — an MVEE run's externally observable effects equal a native
//    run's, for every mode, policy level, replica count, and seed swept here;
//  * liveness — every configuration finishes without divergence on benign programs;
//  * determinism — identical (seed, config) pairs produce identical virtual times.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/remon.h"
#include "src/harness/runner.h"
#include "src/sim/rng.h"
#include "tests/test_util.h"

namespace remon {
namespace {

// A benign program exercising files, pipes, time, memory, and (optionally) sockets;
// writes its observable output to /tmp/prop-out.
ProgramFn PropertyWorkload(int iterations) {
  return [iterations](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/prop-out", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(512);
    GuestAddr st = g.Alloc(sizeof(GuestStat));
    GuestAddr pipe_fds = g.Alloc(8);
    co_await g.Pipe(pipe_fds);
    int prd = static_cast<int>(g.PeekU32(pipe_fds));
    int pwr = static_cast<int>(g.PeekU32(pipe_fds + 4));
    for (int i = 0; i < iterations; ++i) {
      co_await g.Compute(Micros(10));
      std::string line = "iter-" + std::to_string(i) + ";";
      g.Poke(buf, line.data(), line.size());
      co_await g.Write(static_cast<int>(fd), buf, line.size());
      co_await g.Fstat(static_cast<int>(fd), st);
      if (i % 3 == 0) {
        g.Poke(buf, "p", 1);
        co_await g.Write(pwr, buf, 1);
        co_await g.Read(prd, buf, 1);
      }
      if (i % 5 == 0) {
        co_await g.Getpid();
        GuestAddr tv = g.Alloc(sizeof(GuestTimeval));
        co_await g.Gettimeofday(tv);
      }
    }
    co_await g.Close(prd);
    co_await g.Close(pwr);
    co_await g.Close(static_cast<int>(fd));
  };
}

std::string RunAndHarvest(uint64_t seed, MveeMode mode, int replicas, PolicyLevel level,
                          bool* ok) {
  SimWorld w(seed);
  RemonOptions opts;
  opts.mode = mode;
  opts.replicas = replicas;
  opts.level = level;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(PropertyWorkload(40), "prop");
  w.Run();
  *ok = mvee.finished() && !mvee.divergence_detected();
  return w.fs.ReadWholeFile("/tmp/prop-out").value_or("<missing>");
}

using TransparencyParam = std::tuple<MveeMode, int, PolicyLevel, uint64_t>;

class TransparencyTest : public ::testing::TestWithParam<TransparencyParam> {};

TEST_P(TransparencyTest, OutputsMatchNative) {
  auto [mode, replicas, level, seed] = GetParam();
  bool native_ok = false;
  std::string native =
      RunAndHarvest(seed, MveeMode::kNative, 1, PolicyLevel::kNoIpmon, &native_ok);
  ASSERT_TRUE(native_ok);
  bool mvee_ok = false;
  std::string monitored = RunAndHarvest(seed, mode, replicas, level, &mvee_ok);
  EXPECT_TRUE(mvee_ok);
  EXPECT_EQ(native, monitored);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndLevels, TransparencyTest,
    ::testing::Values(
        TransparencyParam{MveeMode::kGhumveeOnly, 2, PolicyLevel::kNoIpmon, 1},
        TransparencyParam{MveeMode::kGhumveeOnly, 3, PolicyLevel::kNoIpmon, 2},
        TransparencyParam{MveeMode::kGhumveeOnly, 4, PolicyLevel::kNoIpmon, 3},
        TransparencyParam{MveeMode::kRemon, 2, PolicyLevel::kBase, 4},
        TransparencyParam{MveeMode::kRemon, 2, PolicyLevel::kNonsocketRo, 5},
        TransparencyParam{MveeMode::kRemon, 2, PolicyLevel::kNonsocketRw, 6},
        TransparencyParam{MveeMode::kRemon, 2, PolicyLevel::kSocketRo, 7},
        TransparencyParam{MveeMode::kRemon, 2, PolicyLevel::kSocketRw, 8},
        TransparencyParam{MveeMode::kRemon, 3, PolicyLevel::kNonsocketRw, 9},
        TransparencyParam{MveeMode::kRemon, 5, PolicyLevel::kSocketRw, 10},
        TransparencyParam{MveeMode::kRemon, 7, PolicyLevel::kSocketRw, 11},
        TransparencyParam{MveeMode::kVaranLike, 2, PolicyLevel::kSocketRw, 12},
        TransparencyParam{MveeMode::kVaranLike, 4, PolicyLevel::kSocketRw, 13}));

class ReplicaCountTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplicaCountTest, ServerTransparentForAnyReplicaCount) {
  int replicas = GetParam();
  ServerSpec server = ServerByName("lighttpd");
  ClientSpec client;
  client.connections = 4;
  client.total_requests = 40;
  client.request_bytes = 1024;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  ServerResult base = RunServerBench(server, client, native, link);
  ASSERT_EQ(base.requests, 40);

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = replicas;
  config.mvee.level = PolicyLevel::kSocketRw;
  ServerResult run = RunServerBench(server, client, config, link);
  EXPECT_FALSE(run.diverged);
  EXPECT_EQ(run.requests, 40);  // Every request served exactly once.
}

INSTANTIATE_TEST_SUITE_P(TwoThroughSeven, ReplicaCountTest, ::testing::Range(2, 8));

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, DeterministicAndTransparent) {
  uint64_t seed = GetParam();
  bool ok1 = false;
  bool ok2 = false;
  std::string out1 =
      RunAndHarvest(seed, MveeMode::kRemon, 2, PolicyLevel::kNonsocketRw, &ok1);
  std::string out2 =
      RunAndHarvest(seed, MveeMode::kRemon, 2, PolicyLevel::kNonsocketRw, &ok2);
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_EQ(out1, out2);  // Bit-for-bit reproducible.

  // Virtual durations also reproduce exactly.
  SimWorld wa(seed);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  {
    Remon mvee(&wa.kernel, opts);
    mvee.Launch(PropertyWorkload(20), "d");
    wa.Run();
  }
  SimWorld wb(seed);
  {
    Remon mvee(&wb.kernel, opts);
    mvee.Launch(PropertyWorkload(20), "d");
    wb.Run();
  }
  EXPECT_EQ(wa.sim.now(), wb.sim.now());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(17, 99, 12345, 777777, 31337));

class RbSizeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RbSizeTest, CorrectUnderAnyBufferSize) {
  uint64_t rb_kb = GetParam();
  SimWorld w(55);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_size = rb_kb * 1024;
  opts.max_ranks = 4;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(PropertyWorkload(60), "rb");
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  std::string out = w.fs.ReadWholeFile("/tmp/prop-out").value_or("");
  EXPECT_NE(out.find("iter-59;"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RbSizeTest, ::testing::Values(128, 256, 1024, 16384));

class SuiteSpecTest : public ::testing::TestWithParam<int> {};

TEST_P(SuiteSpecTest, PhoronixSpecsRunCleanlyUnderRemon) {
  std::vector<WorkloadSpec> suite = PhoronixSuite();
  WorkloadSpec spec = suite[static_cast<size_t>(GetParam()) % suite.size()];
  // Shrink for test runtime.
  spec.iterations = std::min(spec.iterations, 100);
  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 2;
  config.mvee.level = PolicyLevel::kSocketRw;
  SuiteResult result = RunSuiteWorkload(spec, config);
  EXPECT_TRUE(result.finished) << spec.name;
  EXPECT_FALSE(result.diverged) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllPhoronix, SuiteSpecTest, ::testing::Range(0, 7));

// --- Randomized lockstep under fuzzed interleavings --------------------------------

// One fuzzed multi-rank program. A seeded xoshiro RNG (identical in every replica:
// the stream depends only on seed and rank) drives each rank through a random mix
// of non-blocking calls (regular-file writes/reads, fstat, base queries),
// blocking calls (shared-pipe pings, nanosleep), and skewed compute
// bursts that shuffle the cross-rank interleaving. Every rank logs each op's result
// into its own transcript file — rank-private, so the bytes depend only on the
// rank's own deterministic op stream, never on cross-rank races.
struct FuzzShape {
  int ranks = 2;
  int ops = 10;
};

FuzzShape ShapeFor(uint64_t seed) {
  Rng rng(seed * 0x9e37 + 17);
  FuzzShape shape;
  shape.ranks = static_cast<int>(2 + rng.NextBelow(3));  // 2..4 ranks.
  shape.ops = static_cast<int>(6 + rng.NextBelow(6));    // 6..11 ops per rank.
  return shape;
}

// Replica count per seed: mostly the common 2-replica setup (keeps 1000 seeds
// affordable), with regular 3- and 4-replica excursions for the N-way waits.
int ReplicasFor(uint64_t seed) {
  if (seed % 11 == 0) {
    return 4;
  }
  if (seed % 5 == 0) {
    return 3;
  }
  return 2;
}

ProgramFn FuzzWorkload(uint64_t seed, FuzzShape shape) {
  return [seed, shape](Guest& g) -> GuestTask<void> {
    GuestAddr pipe_fds = g.Alloc(8);
    co_await g.Pipe(pipe_fds);
    int prd = static_cast<int>(g.PeekU32(pipe_fds));
    int pwr = static_cast<int>(g.PeekU32(pipe_fds + 4));

    auto rank_body = [seed, shape, prd, pwr](int rank) -> ProgramFn {
      return [seed, shape, prd, pwr, rank](Guest& wg) -> GuestTask<void> {
        Rng rng(seed * 1000003 + static_cast<uint64_t>(rank));
        int64_t fd = co_await wg.Open("/tmp/fuzz-" + std::to_string(rank),
                                      kO_CREAT | kO_RDWR);
        GuestAddr buf = wg.Alloc(512);
        GuestAddr st = wg.Alloc(sizeof(GuestStat));
        for (int i = 0; i < shape.ops; ++i) {
          uint64_t op = rng.NextBelow(100);
          int64_t r = 0;
          if (op < 40) {  // Small regular-file append.
            uint64_t len = 16 + rng.NextBelow(200);
            r = co_await wg.Write(static_cast<int>(fd), buf, len);
          } else if (op < 55) {  // Metadata query.
            r = co_await wg.Fstat(static_cast<int>(fd), st);
          } else if (op < 65) {  // Base query (different policy class).
            r = co_await wg.Getpid();
          } else if (op < 80) {  // Blocking call: shared-pipe ping.
            // Each rank writes before it reads, so total reads never outrun total
            // writes and the cross-rank ping order is free to fuzz itself.
            wg.Poke(buf, "p", 1);
            co_await wg.Write(pwr, buf, 1);
            r = co_await wg.Read(prd, buf, 1);
          } else if (op < 90) {  // Local call: explicit sleep.
            r = co_await wg.SleepNs(Micros(1 + rng.NextBelow(20)));
          } else {  // Read-back.
            r = co_await wg.Read(static_cast<int>(fd), buf, 64);
          }
          // Skewed compute shuffles which rank reaches the RB first.
          co_await wg.Compute(Micros(rng.NextBelow(25)));
          std::string line = "r" + std::to_string(rank) + "-op" + std::to_string(i) +
                             "=" + std::to_string(r) + ";";
          wg.Poke(buf, line.data(), line.size());
          co_await wg.Write(static_cast<int>(fd), buf, line.size());
        }
        co_await wg.Close(static_cast<int>(fd));
      };
    };

    GuestAddr join = g.Alloc(8);
    co_await g.Pipe(join);
    int join_rd = static_cast<int>(g.PeekU32(join));
    int join_wr = static_cast<int>(g.PeekU32(join + 4));
    for (int rank = 1; rank < shape.ranks; ++rank) {
      auto body = rank_body(rank);
      uint64_t fn = g.RegisterThreadFn([body, join_wr](Guest& wg) -> GuestTask<void> {
        co_await body(wg);
        GuestAddr d = wg.Alloc(1);
        wg.Poke(d, "D", 1);
        co_await wg.Write(join_wr, d, 1);
      });
      co_await g.SpawnThread(fn);
    }
    auto self = rank_body(0);
    co_await self(g);
    // Join with exactly one 1-byte read per worker: a variable-size read here
    // would make the main rank's syscall count depend on worker completion
    // timing, and the whole point is that placement may only change timing.
    GuestAddr sink = g.Alloc(4);
    for (int i = 0; i < shape.ranks - 1; ++i) {
      int64_t n = co_await g.Read(join_rd, sink, 1);
      REMON_CHECK(n == 1);
    }
  };
}

struct FuzzOutcome {
  bool ok = false;
  std::string transcript;     // Concatenated per-rank transcript files.
  uint64_t rb_entries = 0;    // RB stream shape: entry count ...
  uint64_t rb_bytes = 0;      // ... and total bytes must not depend on placement.
  uint64_t remote_deaths = 0;  // Links torn down (kill injection observed).
  uint64_t rejoins = 0;        // Snapshot joins completed (re-seed observed).
  uint64_t lockstep_rounds = 0;       // Monitored rounds over the whole run.
  uint64_t delta_captures = 0;        // Re-seeds cut against an ack-folded basis.
  uint64_t full_fallbacks = 0;        // Delta requested, empty basis used.
  uint64_t migrations = 0;            // Replacements placed on a new machine.
  uint64_t snapshot_bytes = 0;        // Checkpoint bytes shipped over the wire.
  uint64_t snapshot_rejects = 0;      // Joins the replacement refused.
  uint64_t frames_sealed = 0;         // MAC-sealed frames, both flows.
  uint64_t attested_joins = 0;        // Join attestations the leader accepted.
  TimeNs end_time = 0;                // Virtual time at quiescence.
  uint64_t compactions = 0;           // Event-queue rebuilds without cancelled entries.
};

// Cancel-heavy timer churn beside a fuzzed MVEE run: every 1-3 us a 2 s
// watchdog is armed and the oldest of five cancelled (the lockstep-watchdog
// pattern), and a zero-delay no-op lands on the ready lane, half of them
// cancelled, so the event queue compacts heap and lane repeatedly mid-run. It
// draws from its own RNG and touches no MVEE state; it stops, cancelling what it
// armed, once the replica set is done.
class TimerChurn {
 public:
  TimerChurn(EventQueue* q, const Remon* mvee, uint64_t seed)
      : q_(q), mvee_(mvee), rng_(seed) {}

  void Tick() {
    if (mvee_->finished() || mvee_->divergence_detected()) {
      for (EventQueue::EventId id : armed_) {
        q_->Cancel(id);
      }
      armed_.clear();
      return;
    }
    armed_.push_back(q_->ScheduleAfter(2 * kSecond, [] {}));
    if (armed_.size() > 4) {
      q_->Cancel(armed_.front());
      armed_.erase(armed_.begin());
    }
    EventQueue::EventId noop = q_->ScheduleAfter(0, [] {});
    if (rng_.NextBelow(2) == 0) {
      q_->Cancel(noop);
    }
    q_->ScheduleAfter(Micros(1 + static_cast<int64_t>(rng_.NextBelow(3))),
                      [this] { Tick(); });
  }

 private:
  EventQueue* q_;
  const Remon* mvee_;
  Rng rng_;
  std::vector<EventQueue::EventId> armed_;
};

FuzzOutcome RunFuzz(uint64_t seed, FuzzShape shape, int replicas,
                    bool remote_last_replica = false,
                    TimeNs kill_remote_at = 0, bool disable_ready_lane = false,
                    ReseedMode reseed_mode = ReseedMode::kDelta,
                    bool migrate_respawn = false, bool timer_churn = false) {
  SimWorld w(seed);
  if (disable_ready_lane) {
    // Forces zero-delay events onto the time heap (the pre-lane code shape); see
    // the ReadyLane determinism test below.
    w.sim.queue().set_ready_lane_enabled(false);
  }
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = replicas;
  opts.level = PolicyLevel::kNonsocketRw;
  // A small RB (vs. the 16 MiB default) keeps 3000 hermetic worlds affordable and
  // lets long op streams wrap, folding reset rounds into the fuzzed interleavings.
  opts.rb_size = 256 * 1024;
  opts.max_ranks = 4;
  if (remote_last_replica) {
    // Cross-machine variant: the last replica runs on its own machine, fed by the
    // RB transport instead of shared frames — the transcript must not notice.
    uint32_t host = w.net.AddMachine("replica-host-1");
    w.net.SetLink(w.server_machine, host, LinkParams{50 * kMicrosecond, 0.125});
    opts.machine = w.server_machine;
    opts.replica_machines.assign(static_cast<size_t>(replicas), w.server_machine);
    opts.replica_machines.back() = host;
  }
  if (kill_remote_at > 0) {
    // Kill-one-replica-mid-fuzz: the remote replica's link dies at the given
    // virtual time and a replacement is checkpoint-seeded back into the set.
    opts.respawn_dead_replicas = true;
    opts.reseed_mode = reseed_mode;
    if (migrate_respawn) {
      // Respawn-as-migration: the replacement lands on a fresh machine and its
      // join carries the new placement.
      uint32_t target = w.net.AddMachine("replica-host-2");
      w.net.SetLink(w.server_machine, target, LinkParams{50 * kMicrosecond, 0.125});
      opts.respawn_target_machine = static_cast<int>(target);
    }
  }
  Remon mvee(&w.kernel, opts);
  mvee.Launch(FuzzWorkload(seed, shape), "fuzz");
  TimerChurn churn(&w.sim.queue(), &mvee, seed * 31 + 1);
  if (timer_churn) {
    w.sim.queue().ScheduleAfter(Micros(1), [&churn] { churn.Tick(); });
  }
  if (kill_remote_at > 0) {
    int idx = replicas - 1;
    w.sim.queue().ScheduleAt(kill_remote_at, [&mvee, idx] {
      RemoteSyncAgent* agent = mvee.remote_agent(idx);
      if (agent != nullptr) {
        agent->Shutdown();
      }
    });
  }
  w.Run();
  FuzzOutcome out;
  out.ok = mvee.finished() && !mvee.divergence_detected();
  for (int rank = 0; rank < shape.ranks; ++rank) {
    out.transcript +=
        w.fs.ReadWholeFile("/tmp/fuzz-" + std::to_string(rank)).value_or("<missing>");
    out.transcript += "|";
  }
  out.rb_entries = w.sim.stats().rb_entries;
  out.rb_bytes = w.sim.stats().rb_bytes;
  out.remote_deaths = w.sim.stats().rb_remote_deaths;
  out.rejoins = w.sim.stats().rb_replica_joins;
  out.delta_captures = w.sim.stats().rb_snapshot_delta_captures;
  out.full_fallbacks = w.sim.stats().rb_snapshot_full_fallbacks;
  out.migrations = w.sim.stats().rb_replica_migrations;
  out.snapshot_bytes = w.sim.stats().rb_snapshot_bytes_sent;
  out.snapshot_rejects = w.sim.stats().rb_snapshot_rejects;
  out.frames_sealed = w.sim.stats().rb_auth_frames_sealed;
  out.attested_joins = w.sim.stats().rb_auth_joins;
  if (mvee.ghumvee() != nullptr) {
    out.lockstep_rounds = mvee.ghumvee()->lockstep_rounds();
  }
  out.end_time = w.sim.now();
  out.compactions = w.sim.queue().compactions();
  return out;
}

// 1000 seeded interleavings (8 shards x 125 seeds) under per-entry publication:
// every one finishes without divergence and every rank's transcript is complete.
class RandomizedLockstepTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedLockstepTest, PerEntryPublicationFinishesUnderFuzzedInterleavings) {
  constexpr int kSeedsPerShard = 125;
  int shard = GetParam();
  for (int i = 0; i < kSeedsPerShard; ++i) {
    uint64_t seed = static_cast<uint64_t>(shard) * kSeedsPerShard + i + 1;
    FuzzOutcome run = RunFuzz(seed, ShapeFor(seed), ReplicasFor(seed));
    ASSERT_TRUE(run.ok) << "seed " << seed;
    ASSERT_EQ(run.transcript.find("<missing>"), std::string::npos) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(ThousandSeeds, RandomizedLockstepTest, ::testing::Range(0, 8));

// Cross-machine lockstep: the same fuzzed multi-rank interleavings, with the last
// replica moved to its own machine behind the RB transport. The transport may only
// change *where* slaves read the stream from — the slave-visible results
// (transcripts) and the RB stream shape must stay byte-identical to the SHM
// placement, across RB wraps and blocking calls.
TEST(RandomizedLockstepTest, RemoteRankMatchesShmUnderFuzzedInterleavings) {
  for (uint64_t seed : {3, 11, 25, 40, 77, 123, 200, 305, 404, 512, 700, 999}) {
    FuzzShape shape = ShapeFor(seed);

    FuzzOutcome shm = RunFuzz(seed, shape, 3);
    ASSERT_TRUE(shm.ok) << "seed " << seed;
    ASSERT_EQ(shm.transcript.find("<missing>"), std::string::npos) << "seed " << seed;

    FuzzOutcome remote = RunFuzz(seed, shape, 3,
                                 /*remote_last_replica=*/true);
    ASSERT_TRUE(remote.ok) << "seed " << seed;
    ASSERT_EQ(shm.transcript, remote.transcript) << "seed " << seed;
    ASSERT_EQ(shm.rb_entries, remote.rb_entries) << "seed " << seed;
    ASSERT_EQ(shm.rb_bytes, remote.rb_bytes) << "seed " << seed;
  }
}

// Every cross-machine stream is sealed, and sealing is a pure transport-layer
// concern: MAC trailers and stream encryption may only alter the bytes on the
// simulated socket, never what the replicas compute. A sealed remote placement
// must be byte-identical to the SHM placement — transcripts and the RB stream
// shape — with frames sealed and the first join attested; a mid-run kill +
// attested re-seed must match the never-died run.
TEST(RandomizedLockstepTest, SealedRemoteMatchesShmPlacementAndNeverDiedRun) {
  for (uint64_t seed : {3, 25, 77, 200, 404, 700}) {
    FuzzShape shape = ShapeFor(seed);

    FuzzOutcome shm = RunFuzz(seed, shape, 3);
    ASSERT_TRUE(shm.ok) << "seed " << seed;
    ASSERT_EQ(shm.transcript.find("<missing>"), std::string::npos) << "seed " << seed;
    ASSERT_EQ(shm.frames_sealed, 0u) << "seed " << seed;  // No link, nothing sealed.

    FuzzOutcome sealed = RunFuzz(seed, shape, 3,
                                 /*remote_last_replica=*/true);
    ASSERT_TRUE(sealed.ok) << "seed " << seed;
    ASSERT_EQ(shm.transcript, sealed.transcript) << "seed " << seed;
    ASSERT_EQ(shm.rb_entries, sealed.rb_entries) << "seed " << seed;
    ASSERT_EQ(shm.rb_bytes, sealed.rb_bytes) << "seed " << seed;
    ASSERT_GT(sealed.frames_sealed, 0u) << "seed " << seed;
    ASSERT_EQ(sealed.attested_joins, 1u) << "seed " << seed;
  }
  // Kill + attested re-seed: epoch bump rotates the session keys mid-run and the
  // replacement joins through the attest handshake — still byte-identical to the
  // run whose replica never died.
  int exercised = 0;
  for (uint64_t seed : {19, 131, 333}) {
    FuzzShape shape = ShapeFor(seed);
    shape.ops += 24;
    FuzzOutcome never_died = RunFuzz(seed, shape, 3,
                                     /*remote_last_replica=*/true);
    ASSERT_TRUE(never_died.ok) << "seed " << seed;
    FuzzOutcome reseeded = RunFuzz(seed, shape, 3,
                                   /*remote_last_replica=*/true,
                                   /*kill_remote_at=*/Micros(120));
    ASSERT_TRUE(reseeded.ok) << "seed " << seed;
    ASSERT_EQ(never_died.transcript, reseeded.transcript) << "seed " << seed;
    ASSERT_EQ(never_died.rb_entries, reseeded.rb_entries) << "seed " << seed;
    if (reseeded.remote_deaths > 0 && reseeded.rejoins > 0) {
      ++exercised;
      ASSERT_GE(reseeded.attested_joins, 2u) << "seed " << seed;
    }
  }
  EXPECT_GE(exercised, 2);  // The attested re-seed path must actually run.
}

// Scheduler fast-path determinism: the event queue's zero-delay ready lane is a
// pure mechanism change. Draining ready-lane events merge-popped against the time
// heap must reproduce the exact (when, seq) tie-break order the pure-heap path
// produces — so a fuzzed multi-rank lockstep run (zero-delay events everywhere:
// wake bounces, root-finish deferral, RB publication hops) must be byte-identical
// with the lane disabled, down to the virtual clock at quiescence.
// event_queue.h points at this test by name; keep it in sync.
TEST(RandomizedLockstepTest, ReadyLaneMatchesPureHeapUnderFuzzedInterleavings) {
  for (uint64_t seed : {2, 7, 13, 29, 58, 101, 222, 350, 480, 640, 808, 997}) {
    FuzzShape shape = ShapeFor(seed);
    int replicas = ReplicasFor(seed);

    FuzzOutcome lane = RunFuzz(seed, shape, replicas);
    ASSERT_TRUE(lane.ok) << "seed " << seed;
    ASSERT_EQ(lane.transcript.find("<missing>"), std::string::npos)
        << "seed " << seed;

    FuzzOutcome heap = RunFuzz(seed, shape, replicas,
                               /*remote_last_replica=*/false, /*kill_remote_at=*/0,
                               /*disable_ready_lane=*/true);
    ASSERT_TRUE(heap.ok) << "seed " << seed;
    ASSERT_EQ(lane.transcript, heap.transcript) << "seed " << seed;
    ASSERT_EQ(lane.rb_entries, heap.rb_entries) << "seed " << seed;
    ASSERT_EQ(lane.rb_bytes, heap.rb_bytes) << "seed " << seed;
    ASSERT_EQ(lane.lockstep_rounds, heap.lockstep_rounds) << "seed " << seed;
    ASSERT_EQ(lane.end_time, heap.end_time) << "seed " << seed;

    // Cancel-heavy: with timer churn compacting the queue mid-run, lane-on and
    // lane-off still agree, and the MVEE's transcript is the churn-free one.
    FuzzOutcome lane_churn = RunFuzz(seed, shape, replicas,
                                     false, 0, /*disable_ready_lane=*/false,
                                     ReseedMode::kDelta, false, /*timer_churn=*/true);
    FuzzOutcome heap_churn = RunFuzz(seed, shape, replicas,
                                     false, 0, /*disable_ready_lane=*/true,
                                     ReseedMode::kDelta, false, /*timer_churn=*/true);
    ASSERT_TRUE(lane_churn.ok) << "seed " << seed;
    ASSERT_TRUE(heap_churn.ok) << "seed " << seed;
    ASSERT_GT(lane_churn.compactions, 0u) << "seed " << seed;
    ASSERT_GT(heap_churn.compactions, 0u) << "seed " << seed;
    ASSERT_EQ(lane_churn.transcript, heap_churn.transcript) << "seed " << seed;
    ASSERT_EQ(lane_churn.transcript, lane.transcript) << "seed " << seed;
    ASSERT_EQ(lane_churn.rb_entries, heap_churn.rb_entries) << "seed " << seed;
    ASSERT_EQ(lane_churn.rb_bytes, heap_churn.rb_bytes) << "seed " << seed;
    ASSERT_EQ(lane_churn.lockstep_rounds, heap_churn.lockstep_rounds) << "seed " << seed;
    ASSERT_EQ(lane_churn.end_time, heap_churn.end_time) << "seed " << seed;
  }
}

// Kill-one-replica-mid-fuzz re-seed: tearing the remote replica's link down
// mid-run and checkpoint-seeding a replacement back into the set must yield a
// transcript byte-identical to the uninterrupted run — the replica set survives
// replica loss with no observable effect (acceptance bar for the recovery path).
TEST(RandomizedLockstepTest, ReseedAfterMidRunReplicaDeathMatchesUninterrupted) {
  int exercised = 0;
  for (uint64_t seed : {5, 19, 33, 47, 88, 131, 212, 333, 421, 555, 777, 901}) {
    FuzzShape shape = ShapeFor(seed);
    shape.ops += 24;  // Long enough that the kill always lands mid-run.

    FuzzOutcome uninterrupted = RunFuzz(seed, shape, 3,
                                        /*remote_last_replica=*/true);
    ASSERT_TRUE(uninterrupted.ok) << "seed " << seed;
    ASSERT_EQ(uninterrupted.transcript.find("<missing>"), std::string::npos)
        << "seed " << seed;

    FuzzOutcome reseeded = RunFuzz(seed, shape, 3,
                                   /*remote_last_replica=*/true,
                                   /*kill_remote_at=*/Micros(120));
    ASSERT_TRUE(reseeded.ok) << "seed " << seed;
    ASSERT_EQ(uninterrupted.transcript, reseeded.transcript) << "seed " << seed;
    ASSERT_EQ(uninterrupted.rb_entries, reseeded.rb_entries) << "seed " << seed;
    ASSERT_EQ(uninterrupted.rb_bytes, reseeded.rb_bytes) << "seed " << seed;

    if (reseeded.remote_deaths > 0) {
      ++exercised;
      ASSERT_GE(reseeded.rejoins, 1u) << "seed " << seed;
    }
  }
  // The kill must actually have landed mid-run for (at least) 10 of the 12 seeds —
  // a kill after the workload finished would make this test vacuous.
  EXPECT_GE(exercised, 10);
}

// Re-seed mode matrix: the same kill-one fuzz run under --reseed=delta,
// --reseed=full (always the empty basis), and delta with the replacement migrated
// to a brand-new machine. The basis (and the placement) may only change what
// travels in the checkpoint — every variant's transcript and RB stream must be
// byte-identical to the never-died run, and no replacement may refuse its join.
TEST(RandomizedLockstepTest, ReseedDeltaFullAndMigrationMatchUninterrupted) {
  int exercised = 0;
  uint64_t delta_used = 0;
  for (uint64_t seed : {5, 47, 131, 333, 777, 901}) {
    FuzzShape shape = ShapeFor(seed);
    shape.ops += 24;

    FuzzOutcome uninterrupted = RunFuzz(seed, shape, 3,
                                        /*remote_last_replica=*/true);
    ASSERT_TRUE(uninterrupted.ok) << "seed " << seed;
    ASSERT_EQ(uninterrupted.transcript.find("<missing>"), std::string::npos)
        << "seed " << seed;

    FuzzOutcome delta = RunFuzz(seed, shape, 3,
                                /*remote_last_replica=*/true,
                                /*kill_remote_at=*/Micros(120),
                                /*disable_ready_lane=*/false,
                                ReseedMode::kDelta);
    ASSERT_TRUE(delta.ok) << "seed " << seed;
    ASSERT_EQ(uninterrupted.transcript, delta.transcript) << "seed " << seed;
    ASSERT_EQ(uninterrupted.rb_entries, delta.rb_entries) << "seed " << seed;
    ASSERT_EQ(delta.snapshot_rejects, 0u) << "seed " << seed;

    FuzzOutcome full = RunFuzz(seed, shape, 3,
                               /*remote_last_replica=*/true,
                               /*kill_remote_at=*/Micros(120),
                               /*disable_ready_lane=*/false,
                               ReseedMode::kFull);
    ASSERT_TRUE(full.ok) << "seed " << seed;
    ASSERT_EQ(uninterrupted.transcript, full.transcript) << "seed " << seed;
    ASSERT_EQ(uninterrupted.rb_entries, full.rb_entries) << "seed " << seed;
    ASSERT_EQ(full.snapshot_rejects, 0u) << "seed " << seed;
    // kFull must never cut against an ack-folded basis (the ablation contract).
    ASSERT_EQ(full.delta_captures, 0u) << "seed " << seed;

    FuzzOutcome migrated = RunFuzz(seed, shape, 3,
                                   /*remote_last_replica=*/true,
                                   /*kill_remote_at=*/Micros(120),
                                   /*disable_ready_lane=*/false,
                                   ReseedMode::kDelta, /*migrate_respawn=*/true);
    ASSERT_TRUE(migrated.ok) << "seed " << seed;
    ASSERT_EQ(uninterrupted.transcript, migrated.transcript) << "seed " << seed;
    ASSERT_EQ(uninterrupted.rb_entries, migrated.rb_entries) << "seed " << seed;
    ASSERT_EQ(migrated.snapshot_rejects, 0u) << "seed " << seed;

    if (delta.remote_deaths > 0 && delta.rejoins > 0) {
      ++exercised;
      // Every re-seed decided delta-vs-fallback explicitly.
      ASSERT_GE(delta.delta_captures + delta.full_fallbacks, 1u) << "seed " << seed;
      delta_used += delta.delta_captures;
      // A folded-basis checkpoint never costs meaningfully more wire than the
      // empty-basis one: in the worst case (nothing acked yet) the two coincide.
      // The flat-vs-linear curve across RB sizes is the bench suite's claim
      // (bench_abl_rb reseed_delta).
      if (delta.delta_captures > 0 && delta.full_fallbacks == 0) {
        EXPECT_LE(delta.snapshot_bytes, full.snapshot_bytes + 1024)
            << "seed " << seed;
      }
    }
    if (migrated.remote_deaths > 0 && migrated.rejoins > 0) {
      // The replacement landed on the new machine, counted as a migration.
      ASSERT_GE(migrated.migrations, 1u) << "seed " << seed;
    }
  }
  EXPECT_GE(exercised, 5);    // The kill must land mid-run for most seeds.
  EXPECT_GE(delta_used, 1u);  // And the O(delta) path must actually run.
}

// Attested migration: the replacement's kJoinAttest carries the new placement,
// and the leader only seeds it after verifying the attested machine against the
// one it commanded.
TEST(RandomizedLockstepTest, AttestedMigrationMatchesUninterrupted) {
  int exercised = 0;
  for (uint64_t seed : {19, 131, 333}) {
    FuzzShape shape = ShapeFor(seed);
    shape.ops += 24;
    FuzzOutcome uninterrupted = RunFuzz(seed, shape, 3,
                                        /*remote_last_replica=*/true);
    ASSERT_TRUE(uninterrupted.ok) << "seed " << seed;
    FuzzOutcome migrated = RunFuzz(seed, shape, 3,
                                   /*remote_last_replica=*/true,
                                   /*kill_remote_at=*/Micros(120),
                                   /*disable_ready_lane=*/false,
                                   ReseedMode::kDelta, /*migrate_respawn=*/true);
    ASSERT_TRUE(migrated.ok) << "seed " << seed;
    ASSERT_EQ(uninterrupted.transcript, migrated.transcript) << "seed " << seed;
    ASSERT_EQ(uninterrupted.rb_entries, migrated.rb_entries) << "seed " << seed;
    ASSERT_EQ(migrated.snapshot_rejects, 0u) << "seed " << seed;
    if (migrated.remote_deaths > 0 && migrated.rejoins > 0) {
      ++exercised;
      ASSERT_GE(migrated.migrations, 1u) << "seed " << seed;
    }
  }
  EXPECT_GE(exercised, 2);
}

// Respawn-budget decay: deaths spaced farther apart than the decay interval
// refund their attempts, so a long-lived set survives any number of sporadic
// recoverable deaths; with decay disabled the same kill schedule exhausts the
// lifetime cap and ends in a divergence report. This is the regression test for
// the lifetime-cap bug.
struct BudgetOutcome {
  bool finished = false;
  bool diverged = false;
  uint64_t deaths = 0;
  uint64_t respawns = 0;
};

BudgetOutcome RunRespawnBudget(uint64_t seed, DurationNs decay,
                               const std::vector<TimeNs>& kill_times) {
  SimWorld w(seed);
  FuzzShape shape = ShapeFor(seed);
  shape.ops += 150;  // Long enough that every scheduled kill lands mid-run.
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 3;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_size = 256 * 1024;
  opts.max_ranks = 4;
  uint32_t host = w.net.AddMachine("replica-host-1");
  w.net.SetLink(w.server_machine, host, LinkParams{50 * kMicrosecond, 0.125});
  opts.machine = w.server_machine;
  opts.replica_machines.assign(3, w.server_machine);
  opts.replica_machines.back() = host;
  opts.respawn_dead_replicas = true;
  opts.max_respawns_per_replica = 1;  // One death per decay interval allowed.
  opts.respawn_budget_decay = decay;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(FuzzWorkload(seed, shape), "fuzz");
  for (TimeNs t : kill_times) {
    w.sim.queue().ScheduleAt(t, [&mvee] {
      RemoteSyncAgent* agent = mvee.remote_agent(2);
      if (agent != nullptr) {
        agent->Shutdown();
      }
    });
  }
  w.Run();
  BudgetOutcome out;
  out.finished = mvee.finished();
  out.diverged = mvee.divergence_detected();
  out.deaths = w.sim.stats().rb_remote_deaths;
  out.respawns = mvee.respawns();
  return out;
}

TEST(RandomizedLockstepTest, RespawnBudgetDecaysOverHealthyIntervals) {
  // Three kills, each spaced well past the decay interval: every attempt has
  // been refunded by the time the next death arrives, so a cap of 1 survives
  // all three.
  const std::vector<TimeNs> kills = {Micros(120), Micros(620), Micros(1120)};
  BudgetOutcome decayed = RunRespawnBudget(5, /*decay=*/Micros(300), kills);
  EXPECT_TRUE(decayed.finished);
  EXPECT_FALSE(decayed.diverged);
  ASSERT_GE(decayed.deaths, 3u);  // All kills must land while the set is live.
  EXPECT_GE(decayed.respawns, 3u);

  // Same schedule with decay disabled: the cap is a lifetime cap again, the
  // second death exceeds it, and the run ends in a divergence report.
  BudgetOutcome capped = RunRespawnBudget(5, /*decay=*/0, kills);
  EXPECT_TRUE(capped.diverged);
  EXPECT_LE(capped.respawns, 1u);
}

// Reset/re-seed interlock: an RB reset round that fires while a replacement
// checkpoint is still in flight would rebase every offset the image was cut
// against — the replacement then refuses the stale-generation checkpoint, the
// link tears, and the leader's own reset ends up charged to the respawn budget
// (the 1 MiB divergence cliff). GHUMVEE now parks the flush round until the
// checkpoint acks, so a kill loop riding across reset rounds must recover every
// time with a byte-identical transcript.
struct ResetRaceOutcome {
  bool finished = false;
  bool diverged = false;
  std::string transcript;
  uint64_t deaths = 0;
  uint64_t rejoins = 0;
  uint64_t stalls = 0;  // Reset rounds the gate parked (reseed_gate_stalls).
};

ResetRaceOutcome RunResetJoinRace(uint64_t seed,
                                  const std::vector<TimeNs>& kill_times) {
  SimWorld w(seed);
  FuzzShape shape = ShapeFor(seed);
  shape.ops += 300;  // Long op streams wrap the RB: reset rounds under the kills.
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 3;
  opts.level = PolicyLevel::kNonsocketRw;
  // A quarter of the fuzz default: sub-buffers wrap every few hundred ops, so
  // reset rounds land inside the checkpoint-transfer windows the kills open.
  opts.rb_size = 64 * 1024;
  opts.max_ranks = 4;
  uint32_t host = w.net.AddMachine("replica-host-1");
  w.net.SetLink(w.server_machine, host, LinkParams{50 * kMicrosecond, 0.125});
  opts.machine = w.server_machine;
  opts.replica_machines.assign(3, w.server_machine);
  opts.replica_machines.back() = host;
  opts.respawn_dead_replicas = true;
  opts.reseed_mode = ReseedMode::kDelta;
  // Deaths arrive faster than recoveries complete; a fast refund keeps the
  // budget solvent so every divergence the test could see is a join failure.
  opts.respawn_budget_decay = Micros(100);
  Remon mvee(&w.kernel, opts);
  mvee.Launch(FuzzWorkload(seed, shape), "fuzz");
  for (TimeNs t : kill_times) {
    w.sim.queue().ScheduleAt(t, [&mvee] {
      RemoteSyncAgent* agent = mvee.remote_agent(2);
      if (agent != nullptr) {
        agent->Shutdown();
      }
    });
  }
  w.Run();
  ResetRaceOutcome out;
  out.finished = mvee.finished();
  out.diverged = mvee.divergence_detected();
  for (int rank = 0; rank < shape.ranks; ++rank) {
    out.transcript +=
        w.fs.ReadWholeFile("/tmp/fuzz-" + std::to_string(rank)).value_or("<missing>");
    out.transcript += "|";
  }
  out.deaths = w.sim.stats().rb_remote_deaths;
  out.rejoins = w.sim.stats().rb_replica_joins;
  out.stalls = w.sim.stats().reseed_gate_stalls;
  return out;
}

TEST(RandomizedLockstepTest, ResetRoundParksOnInflightReseed) {
  uint64_t total_stalls = 0;
  int exercised = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ResetRaceOutcome plain = RunResetJoinRace(seed, {});
    ASSERT_TRUE(plain.finished) << "seed " << seed;
    ASSERT_FALSE(plain.diverged) << "seed " << seed;
    // Spaced so each join completes before the next kill (recovery is ~300 us),
    // and dense across the run so transfer windows ride over reset rounds.
    std::vector<TimeNs> kills;
    for (int k = 0; k < 16; ++k) {
      kills.push_back(Micros(100) + k * Micros(750));
    }
    ResetRaceOutcome raced = RunResetJoinRace(seed, kills);
    EXPECT_TRUE(raced.finished) << "seed " << seed;
    EXPECT_FALSE(raced.diverged) << "seed " << seed;
    EXPECT_EQ(plain.transcript, raced.transcript) << "seed " << seed;
    total_stalls += raced.stalls;
    if (raced.deaths > 0 && raced.rejoins > 0) {
      ++exercised;
    }
  }
  EXPECT_GE(exercised, 3);
  // The race itself must have been exercised: at least one flush round parked
  // on an in-flight checkpoint somewhere across the seed sweep.
  EXPECT_GE(total_stalls, 1u);
}

// --- Cross-machine multi-threaded lockstep: sync-agent log transport ----------------

// One fuzzed multi-threaded sync workload. A deterministic global schedule fixes
// which (rank, object) acquires synchronization op k — the workload gates each
// acquisition on a shared turn word, so the master's acquisition order is pinned
// by construction and byte-comparisons across placements are meaningful — while
// everything else fuzzes: filler writes, metadata queries, sleep-poll intervals,
// and compute bursts shuffle the publication, streaming, and wrap timing. The
// guarded shared-counter pop feeds each transcript line (and the line's write
// length), so a replica replaying the log wrongly diverges immediately; the tiny
// 16-slot log wraps several times per run, exercising the circular-log gate over
// the network. Note the turn gate serializes ops but not their replication: a
// remote slave's BeforeAcquire still blocks until the master's kSyncLog frames
// reach its mirror — liveness across the link is exactly what is under test.
struct SyncOp {
  int rank = 0;
  uint32_t object = 0;
};

std::vector<SyncOp> SyncScheduleFor(uint64_t seed, FuzzShape shape) {
  Rng rng(seed * 0x51ab3 + 7);
  std::vector<SyncOp> schedule;
  for (int r = 0; r < shape.ranks; ++r) {
    for (int i = 0; i < shape.ops; ++i) {
      schedule.push_back(SyncOp{r, static_cast<uint32_t>(1 + rng.NextBelow(40))});
    }
  }
  for (size_t i = schedule.size(); i > 1; --i) {  // Fisher-Yates.
    std::swap(schedule[i - 1], schedule[rng.NextBelow(i)]);
  }
  return schedule;
}

ProgramFn SyncFuzzWorkload(uint64_t seed, FuzzShape shape, std::vector<SyncOp> schedule) {
  return [seed, shape, schedule](Guest& g) -> GuestTask<void> {
    GuestAddr turn = g.Alloc(4);
    GuestAddr pool = g.Alloc(4);
    g.PokeU32(turn, 0);
    g.PokeU32(pool, 0);

    auto rank_body = [seed, schedule, turn, pool](int rank) -> ProgramFn {
      return [seed, schedule, turn, pool, rank](Guest& wg) -> GuestTask<void> {
        SyncAgent* agent = wg.process()->sync_agent;
        REMON_CHECK(agent != nullptr);
        Rng rng(seed * 777 + static_cast<uint64_t>(rank));
        // Sleep-poll intervals come from their own stream: the number of poll
        // iterations is timing-dependent and differs across replicas, and a
        // divergent draw count must never leak into replicated syscall arguments
        // (nanosleep itself is a local call, so the durations may differ freely).
        Rng poll_rng(seed * 13577 + static_cast<uint64_t>(rank) * 31 + 1);
        int64_t fd = co_await wg.Open("/tmp/syncfuzz-" + std::to_string(rank),
                                      kO_CREAT | kO_RDWR);
        GuestAddr buf = wg.Alloc(2048);
        GuestAddr st = wg.Alloc(sizeof(GuestStat));
        // The middle third of the schedule is a syscall-free burst window: lines
        // defer into a local buffer and no filler runs, so sync ops stream with
        // no RB traffic between them. Replicated calls throttle the master to
        // the link's ack pace; only such a burst can outrun a slow remote by a
        // full lap of the circular log and land the master on the wraparound
        // gate. The window is k-based, hence identical in every replica.
        size_t burst_lo = schedule.size() / 3;
        size_t burst_hi = 2 * schedule.size() / 3;
        std::string deferred;
        for (size_t k = 0; k < schedule.size(); ++k) {
          if (schedule[k].rank != rank) {
            continue;
          }
          bool burst = k >= burst_lo && k < burst_hi;
          // Fuzzed rank-private filler (small unmonitored calls). The draws
          // happen unconditionally so the op-rng stream stays aligned across
          // burst boundaries.
          uint64_t filler_len = 16 + rng.NextBelow(150);
          bool filler_write = rng.NextBelow(100) < 40;
          bool filler_stat = rng.NextBelow(100) < 20;
          if (!burst && filler_write) {
            co_await wg.Write(static_cast<int>(fd), buf, filler_len);
          }
          if (!burst && filler_stat) {
            co_await wg.Fstat(static_cast<int>(fd), st);
          }
          // Wait for the pinned global turn, then pop under the agent's order.
          while (wg.PeekU32(turn) != static_cast<uint32_t>(k)) {
            co_await wg.SleepNs(Micros(5 + poll_rng.NextBelow(40)));
          }
          co_await agent->BeforeAcquire(wg, schedule[k].object);
          uint32_t v = wg.PeekU32(pool);  // The racy shared pop.
          wg.PokeU32(pool, v + 1);
          REMON_CHECK(v == static_cast<uint32_t>(k));
          wg.PokeU32(turn, static_cast<uint32_t>(k + 1));
          deferred += "r" + std::to_string(rank) + "k" + std::to_string(k) + "o" +
                      std::to_string(schedule[k].object) + "v" + std::to_string(v) +
                      ";";
          if (!burst || deferred.size() > 1800) {
            wg.Poke(buf, deferred.data(), deferred.size());
            co_await wg.Write(static_cast<int>(fd), buf, deferred.size());
            deferred.clear();
          }
          co_await wg.Compute(Micros(rng.NextBelow(30)));
        }
        if (!deferred.empty()) {
          wg.Poke(buf, deferred.data(), deferred.size());
          co_await wg.Write(static_cast<int>(fd), buf, deferred.size());
        }
        co_await wg.Close(static_cast<int>(fd));
      };
    };

    GuestAddr join = g.Alloc(8);
    co_await g.Pipe(join);
    int join_rd = static_cast<int>(g.PeekU32(join));
    int join_wr = static_cast<int>(g.PeekU32(join + 4));
    for (int rank = 1; rank < shape.ranks; ++rank) {
      auto body = rank_body(rank);
      uint64_t fn = g.RegisterThreadFn([body, join_wr](Guest& wg) -> GuestTask<void> {
        co_await body(wg);
        GuestAddr d = wg.Alloc(1);
        wg.Poke(d, "D", 1);
        co_await wg.Write(join_wr, d, 1);
      });
      co_await g.SpawnThread(fn);
    }
    auto self = rank_body(0);
    co_await self(g);
    GuestAddr sink = g.Alloc(4);
    for (int i = 0; i < shape.ranks - 1; ++i) {
      int64_t n = co_await g.Read(join_rd, sink, 1);
      REMON_CHECK(n == 1);
    }
  };
}

struct SyncFuzzOutcome {
  bool ok = false;
  std::string transcript;        // Concatenated per-rank transcript files.
  uint64_t rb_entries = 0;
  uint64_t rb_bytes = 0;
  uint64_t ops_recorded = 0;     // Master log appends.
  uint64_t ops_replayed = 0;     // Sum over slaves.
  uint64_t wrap_stalls = 0;      // Master appends parked on the full circular log.
  uint64_t transport_stalls = 0;  // Leader publications parked on a full link window.
  uint64_t sync_frames_applied = 0;  // kSyncLog frames replayed into mirrors.
  uint64_t remote_deaths = 0;
  uint64_t rejoins = 0;
  uint64_t master_tail = 0;      // Absolute sync ops published by the master.
  uint64_t remote_tail = 0;      // The remote replica's mirror tail at run end.
  std::vector<uint8_t> master_log;   // Occupied-slot image of the master's log.
  std::vector<uint8_t> remote_log;   // Same for the remote replica's mirror.
};

// A 16-slot sync log: every fuzzed schedule wraps it several times.
constexpr uint64_t kSyncFuzzLogSize = kSyncLogOffEntries + 16 * kSyncLogEntrySize;

SyncFuzzOutcome RunSyncFuzz(
    uint64_t seed, FuzzShape shape, int replicas, bool remote_last_replica = false, TimeNs kill_remote_at = 0,
    const std::function<void(Remon&, SimWorld&)>& post_run = nullptr,
    DurationNs link_latency = 50 * kMicrosecond, double link_bytes_per_ns = 0.125,
    const std::function<void(RemonOptions&)>& tune = nullptr) {
  SimWorld w(seed);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = replicas;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_size = 256 * 1024;
  opts.max_ranks = 4;
  opts.use_sync_agent = true;
  opts.sync_log_size = kSyncFuzzLogSize;
  if (remote_last_replica) {
    uint32_t host = w.net.AddMachine("replica-host-1");
    w.net.SetLink(w.server_machine, host, LinkParams{link_latency, link_bytes_per_ns});
    opts.machine = w.server_machine;
    opts.replica_machines.assign(static_cast<size_t>(replicas), w.server_machine);
    opts.replica_machines.back() = host;
  }
  if (kill_remote_at > 0) {
    opts.respawn_dead_replicas = true;
  }
  if (tune) {
    tune(opts);
  }
  Remon mvee(&w.kernel, opts);
  mvee.Launch(SyncFuzzWorkload(seed, shape, SyncScheduleFor(seed, shape)), "syncfuzz");
  if (kill_remote_at > 0) {
    int idx = replicas - 1;
    w.sim.queue().ScheduleAt(kill_remote_at, [&mvee, idx] {
      RemoteSyncAgent* agent = mvee.remote_agent(idx);
      if (agent != nullptr) {
        agent->Shutdown();
      }
    });
  }
  w.Run();
  SyncFuzzOutcome out;
  out.ok = mvee.finished() && !mvee.divergence_detected();
  for (int rank = 0; rank < shape.ranks; ++rank) {
    out.transcript +=
        w.fs.ReadWholeFile("/tmp/syncfuzz-" + std::to_string(rank)).value_or("<missing>");
    out.transcript += "|";
  }
  const SimStats& stats = w.sim.stats();
  out.rb_entries = stats.rb_entries;
  out.rb_bytes = stats.rb_bytes;
  out.ops_recorded = stats.sync_ops_recorded;
  out.ops_replayed = stats.sync_ops_replayed;
  out.wrap_stalls = stats.sync_log_wrap_stalls;
  out.transport_stalls = stats.rb_transport_stalls;
  out.sync_frames_applied = stats.sync_log_frames_applied;
  out.remote_deaths = stats.rb_remote_deaths;
  out.rejoins = stats.rb_replica_joins;
  if (mvee.sync_agent(0) != nullptr && mvee.sync_agent(0)->log_valid()) {
    out.master_tail = mvee.sync_agent(0)->tail();
    out.master_log = mvee.sync_agent(0)->CaptureLogImage();
  }
  if (remote_last_replica) {
    SyncAgent* remote = mvee.sync_agent(replicas - 1);
    if (remote != nullptr && remote->log_valid()) {
      out.remote_tail = remote->tail();
      out.remote_log = remote->CaptureLogImage();
    }
  }
  if (post_run) {
    post_run(mvee, w);
  }
  return out;
}

// 12-seed multi-threaded cross-machine lockstep fuzz: moving a replica behind the
// RB transport may change only *where* it reads the replication and sync-log
// streams from. Transcripts, the RB stream shape, and the sync log itself must be
// byte-identical to the all-local placement — and within the remote run, the
// remote mirror must be a byte-identical copy of the master's log.
TEST(SyncLockstepTest, RemoteMultithreadedMatchesShmUnderFuzzedSchedules) {
  uint64_t total_wrap_stalls = 0;
  int wrapped_seeds = 0;
  for (uint64_t seed : {3, 11, 25, 40, 77, 123, 200, 305, 404, 512, 700, 999}) {
    FuzzShape shape = ShapeFor(seed);

    SyncFuzzOutcome local =
        RunSyncFuzz(seed, shape, ReplicasFor(seed));
    ASSERT_TRUE(local.ok) << "seed " << seed;
    ASSERT_EQ(local.transcript.find("<missing>"), std::string::npos) << "seed " << seed;
    ASSERT_EQ(local.ops_recorded, static_cast<uint64_t>(shape.ranks) * shape.ops)
        << "seed " << seed;

    SyncFuzzOutcome remote = RunSyncFuzz(seed, shape, ReplicasFor(seed),
                                         /*remote_last_replica=*/true);
    ASSERT_TRUE(remote.ok) << "seed " << seed;
    ASSERT_EQ(local.transcript, remote.transcript) << "seed " << seed;
    ASSERT_EQ(local.rb_entries, remote.rb_entries) << "seed " << seed;
    ASSERT_EQ(local.rb_bytes, remote.rb_bytes) << "seed " << seed;
    ASSERT_EQ(local.master_tail, remote.master_tail) << "seed " << seed;
    ASSERT_EQ(local.master_log, remote.master_log) << "seed " << seed;

    // Transport correctness within the remote run: the mirror IS the log.
    ASSERT_EQ(remote.remote_tail, remote.master_tail) << "seed " << seed;
    ASSERT_EQ(remote.remote_log, remote.master_log) << "seed " << seed;
    ASSERT_GT(remote.sync_frames_applied, 0u) << "seed " << seed;
    // Every slave replayed the full schedule.
    ASSERT_EQ(remote.ops_replayed,
              static_cast<uint64_t>(ReplicasFor(seed) - 1) * remote.ops_recorded)
        << "seed " << seed;

    // The 16-slot log wrapped whenever the schedule outgrew it (slot reuse is
    // verified by the slave-side seq check on every consume); whether the master
    // additionally had to park on the gate is timing-dependent per seed, so the
    // stall counter is asserted over the whole sweep below.
    if (static_cast<uint64_t>(shape.ranks) * shape.ops > 16) {
      ++wrapped_seeds;
      ASSERT_GT(remote.master_tail, 16u) << "seed " << seed;
    }
    total_wrap_stalls += remote.wrap_stalls;
  }
  EXPECT_GT(wrapped_seeds, 6);  // Most fuzzed schedules outgrow the 16-slot log.
  (void)total_wrap_stalls;  // On the fast link the slave lag stays under one lap.
}

// On a slow link the remote replica's replay lag exceeds a full lap of the
// 16-slot log, so the master MUST park on the wraparound gate (overwriting an
// unconsumed slot would corrupt the remote's replay) — and the run must still
// finish byte-identically: every append streamed before the master parked, so the
// stream stays live while the master sleeps. (On a link whose bandwidth binds, the transport's
// stream window throttles the master instead — also asserted, as the two gates
// must compose rather than fight.)
TEST(SyncLockstepTest, SlowLinkForcesWrapGateWithoutCorruption) {
  uint64_t seed = 77;
  FuzzShape shape = ShapeFor(seed);
  shape.ops += 20;

  SyncFuzzOutcome local = RunSyncFuzz(seed, shape, 3);
  ASSERT_TRUE(local.ok);

  // Latency-bound link: the wraparound gate is the binding constraint.
  SyncFuzzOutcome slow = RunSyncFuzz(seed, shape, 3,
                                     /*remote_last_replica=*/true,
                                     /*kill_remote_at=*/0, /*post_run=*/nullptr,
                                     /*link_latency=*/Millis(2));
  ASSERT_TRUE(slow.ok);
  EXPECT_GT(slow.wrap_stalls, 0u);  // The master actually parked on the gate.
  EXPECT_EQ(local.transcript, slow.transcript);
  EXPECT_EQ(local.master_log, slow.master_log);
  EXPECT_EQ(slow.remote_log, slow.master_log);
  EXPECT_EQ(slow.remote_tail, slow.master_tail);

  // Bandwidth-bound link: a lap of the 16-slot log, and the whole 256 KiB RB,
  // hold less than one 256 KiB stream window of this stream, so the throttled
  // run streams a long schedule through a log it never laps and an RB that
  // never fills; at 20 Mbit/s the window fills first and transport backpressure
  // throttles the master. Still byte-identical.
  FuzzShape long_shape = shape;
  long_shape.ops = 1000;
  SyncFuzzOutcome long_local =
      RunSyncFuzz(seed, long_shape, 3);
  ASSERT_TRUE(long_local.ok);
  SyncFuzzOutcome throttled =
      RunSyncFuzz(seed, long_shape, 3,
                  /*remote_last_replica=*/true, /*kill_remote_at=*/0, /*post_run=*/nullptr,
                  /*link_latency=*/Millis(2), /*link_bytes_per_ns=*/0.0025,
                  [](RemonOptions& o) {
                    o.rb_size = 4 * 1024 * 1024;
                    o.sync_log_size = kSyncLogOffEntries + 8192 * kSyncLogEntrySize;
                  });
  ASSERT_TRUE(throttled.ok);
  EXPECT_GT(throttled.transport_stalls, 0u);  // The window bound, not the log.
  EXPECT_EQ(throttled.wrap_stalls, 0u);
  EXPECT_EQ(long_local.transcript, throttled.transcript);
  EXPECT_EQ(throttled.remote_tail, throttled.master_tail);
  EXPECT_EQ(throttled.remote_log, throttled.master_log);
}

// Sealed multi-threaded cross-machine runs: the sealed kSyncLog/kEntries streams
// and MAC-verified acks must reproduce the all-local (SHM placement) results
// byte-for-byte — transcripts, sync log — with the mirror equal to the log, and
// through a kill + attested re-seed match the never-died run. (The wrap gate on
// a sealed slow link is SlowLinkForcesWrapGateWithoutCorruption.)
TEST(SyncLockstepTest, SealedSyncStreamMatchesShmPlacementAndNeverDiedRun) {
  for (uint64_t seed : {11, 77, 305, 999}) {
    FuzzShape shape = ShapeFor(seed);

    SyncFuzzOutcome shm = RunSyncFuzz(seed, shape, 3);
    ASSERT_TRUE(shm.ok) << "seed " << seed;
    ASSERT_EQ(shm.transcript.find("<missing>"), std::string::npos) << "seed " << seed;

    SyncFuzzOutcome sealed = RunSyncFuzz(seed, shape, 3,
                                         /*remote_last_replica=*/true);
    ASSERT_TRUE(sealed.ok) << "seed " << seed;
    ASSERT_EQ(shm.transcript, sealed.transcript) << "seed " << seed;
    ASSERT_EQ(shm.rb_entries, sealed.rb_entries) << "seed " << seed;
    ASSERT_EQ(shm.master_log, sealed.master_log) << "seed " << seed;
    ASSERT_EQ(sealed.remote_tail, sealed.master_tail) << "seed " << seed;
    ASSERT_EQ(sealed.remote_log, sealed.master_log) << "seed " << seed;
  }

  // Kill + attested re-seed with the sync-log image in the snapshot: still
  // byte-identical to the never-died run.
  int exercised = 0;
  for (uint64_t rs : {19ull, 131ull, 333ull}) {
    FuzzShape rshape = ShapeFor(rs);
    rshape.ops += 12;
    SyncFuzzOutcome never_died = RunSyncFuzz(rs, rshape, 3,
                                             /*remote_last_replica=*/true);
    ASSERT_TRUE(never_died.ok) << "seed " << rs;
    SyncFuzzOutcome reseeded = RunSyncFuzz(rs, rshape, 3,
                                           /*remote_last_replica=*/true,
                                           /*kill_remote_at=*/Micros(200));
    ASSERT_TRUE(reseeded.ok) << "seed " << rs;
    ASSERT_EQ(never_died.transcript, reseeded.transcript) << "seed " << rs;
    ASSERT_EQ(never_died.master_log, reseeded.master_log) << "seed " << rs;
    ASSERT_EQ(reseeded.remote_log, reseeded.master_log) << "seed " << rs;
    if (reseeded.remote_deaths > 0 && reseeded.rejoins > 0) {
      ++exercised;
    }
  }
  EXPECT_GE(exercised, 2);
}

// Kill-one-replica-mid-fuzz re-seed variant: tearing the remote multi-threaded
// replica's link down mid-run and checkpoint-seeding a replacement (snapshot now
// carrying the sync-log image + replay cursor) must be invisible — transcripts,
// RB stream, and sync log byte-identical to the never-died run.
TEST(SyncLockstepTest, ReseedMidFuzzCarriesSyncLog) {
  int exercised = 0;
  for (uint64_t seed : {5, 19, 33, 47, 88, 131, 212, 333, 421, 555, 777, 901}) {
    FuzzShape shape = ShapeFor(seed);
    shape.ops += 12;  // Long enough that the kill lands mid-run.

    SyncFuzzOutcome base = RunSyncFuzz(seed, shape, 3,
                                       /*remote_last_replica=*/true);
    ASSERT_TRUE(base.ok) << "seed " << seed;
    ASSERT_EQ(base.transcript.find("<missing>"), std::string::npos) << "seed " << seed;

    SyncFuzzOutcome reseeded = RunSyncFuzz(seed, shape, 3,
                                           /*remote_last_replica=*/true,
                                           /*kill_remote_at=*/Micros(200));
    ASSERT_TRUE(reseeded.ok) << "seed " << seed;
    ASSERT_EQ(base.transcript, reseeded.transcript) << "seed " << seed;
    ASSERT_EQ(base.rb_entries, reseeded.rb_entries) << "seed " << seed;
    ASSERT_EQ(base.master_log, reseeded.master_log) << "seed " << seed;
    ASSERT_EQ(reseeded.remote_tail, reseeded.master_tail) << "seed " << seed;
    ASSERT_EQ(reseeded.remote_log, reseeded.master_log) << "seed " << seed;
    if (reseeded.remote_deaths > 0) {
      ++exercised;
      ASSERT_GE(reseeded.rejoins, 1u) << "seed " << seed;
    }
  }
  // The kill must actually land mid-run for most seeds or the variant is vacuous.
  EXPECT_GE(exercised, 10);
}

// Epoch regression on data frames: after a re-seed, a frame stamped with a
// pre-join epoch is a replay by definition — it is rejected, the mirror stays
// untouched, and the link is torn down (a peer re-sending old epochs is
// compromised or hopelessly diverged, never merely slow). Post-tear frames are
// no-ops. A current-epoch frame starting anywhere but the mirror tail is a
// diverged stream and also tears the link.
TEST(SyncLockstepTest, SyncLogEpochRegressionTearsLink) {
  bool exercised_stale = false;
  bool exercised_gap = false;
  for (uint64_t seed : {19, 131, 333}) {
    FuzzShape shape = ShapeFor(seed);
    shape.ops += 12;
    bool gap_probe = seed == 131;
    RunSyncFuzz(seed, shape, 3,
                /*remote_last_replica=*/true, /*kill_remote_at=*/Micros(200),
                [&exercised_stale, &exercised_gap, gap_probe](Remon& mvee,
                                                              SimWorld& w) {
                  RemoteSyncAgent* agent = mvee.remote_agent(2);
                  SyncAgent* mirror = mvee.sync_agent(2);
                  ASSERT_TRUE(agent != nullptr && mirror != nullptr);
                  if (agent->join_epoch() < 2) {
                    return;  // The kill landed after the run; nothing to probe.
                  }
                  uint64_t tail = mirror->tail();
                  uint64_t rejects = agent->frames_rejected();

                  // At the current epoch with the correct start a frame applies.
                  RbWireFrame live;
                  live.type = RbFrameType::kSyncLog;
                  live.epoch = agent->join_epoch();
                  live.sync_start = tail;
                  live.sync_records = {RbSyncLogRecord{99, 0}};
                  EXPECT_TRUE(agent->InjectFrameForTest(live));
                  EXPECT_EQ(mirror->tail(), tail + 1);
                  ASSERT_FALSE(agent->link_torn());

                  if (gap_probe) {
                    // A gap after the tail is a diverged stream: rejected, torn.
                    exercised_gap = true;
                    RbWireFrame gap;
                    gap.type = RbFrameType::kSyncLog;
                    gap.epoch = agent->join_epoch();
                    gap.sync_start = tail + 5;
                    gap.sync_records = {RbSyncLogRecord{7, 1}};
                    EXPECT_FALSE(agent->InjectFrameForTest(gap));
                    EXPECT_EQ(mirror->tail(), tail + 1);
                    EXPECT_TRUE(agent->link_torn());
                    return;
                  }
                  exercised_stale = true;
                  uint64_t regressions = w.sim.stats().rb_epoch_regressions;

                  RbWireFrame stale;
                  stale.type = RbFrameType::kSyncLog;
                  stale.epoch = agent->join_epoch() - 1;
                  stale.sync_start = tail + 1;
                  stale.sync_records = {RbSyncLogRecord{99, 0}};
                  EXPECT_FALSE(agent->InjectFrameForTest(stale));
                  EXPECT_EQ(agent->frames_rejected(), rejects + 1);
                  EXPECT_EQ(mirror->tail(), tail + 1);  // The mirror never saw it.
                  EXPECT_TRUE(agent->link_torn());
                  EXPECT_EQ(w.sim.stats().rb_epoch_regressions, regressions + 1);

                  // The torn link is dead, not wedged: further frames — even
                  // well-formed current-epoch ones — are ignored outright.
                  RbWireFrame after;
                  after.type = RbFrameType::kSyncLog;
                  after.epoch = agent->join_epoch();
                  after.sync_start = tail + 1;
                  after.sync_records = {RbSyncLogRecord{42, 1}};
                  EXPECT_FALSE(agent->InjectFrameForTest(after));
                  EXPECT_EQ(mirror->tail(), tail + 1);
                });
  }
  EXPECT_TRUE(exercised_stale);
  EXPECT_TRUE(exercised_gap);
}

// --- Compute-shaped lockstep fuzz: PARSEC-style barrier/lock suite programs --------
//
// The SyncFuzz workloads above are adversarially shaped (bursts, fuzzed filler);
// this section runs the *actual* Figure-3 suite programs — barrier-rotated
// SyncVariant specs straight off the PARSEC/SPLASH rosters, 4–8 worker threads —
// through the same cross-placement byte-equality bar: per-worker data and
// acquisition transcripts, sync-log image, and mirror must be identical whether
// the replica set is all-local or split across the RB transport, with a tiny
// log forcing many wrap laps.

struct SuiteSyncOutcome {
  bool ok = false;
  std::string transcript;       // /tmp/suite-<name>-t<k>, all workers, in order.
  std::string sync_transcript;  // /tmp/suite-sync-<name>-t<k>, all workers.
  uint64_t ops_recorded = 0;
  uint64_t ops_replayed = 0;
  uint64_t wrap_stalls = 0;
  uint64_t sync_frames_applied = 0;
  uint64_t remote_deaths = 0;
  uint64_t rejoins = 0;
  uint64_t master_tail = 0;
  uint64_t remote_tail = 0;
  std::vector<uint8_t> master_log;
  std::vector<uint8_t> remote_log;
};

// An 8-slot log: every suite schedule laps it dozens of times.
constexpr uint64_t kSuiteSyncLogSize = kSyncLogOffEntries + 8 * kSyncLogEntrySize;

SuiteSyncOutcome RunSuiteSync(const WorkloadSpec& spec, uint64_t seed,
                              bool remote_last_replica, TimeNs kill_remote_at = 0) {
  constexpr int kReplicas = 3;  // Master + one local slave + one (maybe remote) slave.
  SimWorld w(seed);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = kReplicas;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.use_sync_agent = true;
  opts.sync_log_size = kSuiteSyncLogSize;
  opts.machine = w.server_machine;
  if (remote_last_replica) {
    uint32_t host = w.net.AddMachine("replica-host-1");
    w.net.SetLink(w.server_machine, host, LinkParams{60 * kMicrosecond, 0.125});
    opts.replica_machines.assign(kReplicas, w.server_machine);
    opts.replica_machines.back() = host;
  }
  if (kill_remote_at > 0) {
    opts.respawn_dead_replicas = true;
  }
  Remon mvee(&w.kernel, opts);
  mvee.Launch(SuiteProgram(spec), spec.name);
  if (kill_remote_at > 0) {
    w.sim.queue().ScheduleAt(kill_remote_at, [&mvee] {
      RemoteSyncAgent* agent = mvee.remote_agent(kReplicas - 1);
      if (agent != nullptr) {
        agent->Shutdown();
      }
    });
  }
  w.Run();
  SuiteSyncOutcome out;
  out.ok = mvee.finished() && !mvee.divergence_detected();
  for (int t = 0; t < spec.threads; ++t) {
    out.transcript +=
        w.fs.ReadWholeFile("/tmp/suite-" + spec.name + "-t" + std::to_string(t))
            .value_or("<missing>") +
        "|";
    out.sync_transcript +=
        w.fs.ReadWholeFile("/tmp/suite-sync-" + spec.name + "-t" + std::to_string(t))
            .value_or("<missing>") +
        "|";
  }
  const SimStats& stats = w.sim.stats();
  out.ops_recorded = stats.sync_ops_recorded;
  out.ops_replayed = stats.sync_ops_replayed;
  out.wrap_stalls = stats.sync_log_wrap_stalls;
  out.sync_frames_applied = stats.sync_log_frames_applied;
  out.remote_deaths = stats.rb_remote_deaths;
  out.rejoins = stats.rb_replica_joins;
  if (mvee.sync_agent(0) != nullptr && mvee.sync_agent(0)->log_valid()) {
    out.master_tail = mvee.sync_agent(0)->tail();
    out.master_log = mvee.sync_agent(0)->CaptureLogImage();
  }
  if (remote_last_replica) {
    SyncAgent* remote = mvee.sync_agent(kReplicas - 1);
    if (remote != nullptr && remote->log_valid()) {
      out.remote_tail = remote->tail();
      out.remote_log = remote->CaptureLogImage();
    }
  }
  return out;
}

// The fuzzed roster: real Figure-3 specs as barrier-rotated sync variants at 4,
// 6, and 8 worker threads. dedup is the paper's syscall-dense PARSEC outlier,
// fluidanimate its lock-heaviest member; fmm and water_spatial are the SPLASH
// specs whose sync_remote bench columns this section backstops.
std::vector<WorkloadSpec> SuiteSyncRoster() {
  std::vector<WorkloadSpec> roster;
  auto pick = [&roster](const std::vector<WorkloadSpec>& suite,
                        const std::string& name, int threads) {
    for (const WorkloadSpec& s : suite) {
      if (s.name == name) {
        roster.push_back(SyncVariant(s, /*sync_ops=*/2, /*max_iterations=*/30,
                                     /*min_threads=*/threads));
      }
    }
  };
  pick(ParsecSuite(), "dedup", 4);
  pick(ParsecSuite(), "fluidanimate", 6);
  pick(SplashSuite(), "fmm", 8);
  pick(SplashSuite(), "water_spatial", 4);
  REMON_CHECK(roster.size() == 4);
  return roster;
}

TEST(SuiteSyncLockstepTest, RemotePlacementMatchesShmOnParsecShapedPrograms) {
  for (const WorkloadSpec& spec : SuiteSyncRoster()) {
    uint64_t expected_records = static_cast<uint64_t>(spec.threads) *
                                static_cast<uint64_t>(spec.sync_ops) *
                                static_cast<uint64_t>(spec.iterations);
    ASSERT_GT(expected_records, 8u * 20) << spec.name;  // Many laps of the 8-slot log.

    SuiteSyncOutcome local = RunSuiteSync(spec, /*seed=*/spec.threads, false);
    ASSERT_TRUE(local.ok) << spec.name;
    ASSERT_EQ(local.transcript.find("<missing>"), std::string::npos) << spec.name;
    ASSERT_EQ(local.ops_recorded, expected_records) << spec.name;
    ASSERT_EQ(local.ops_replayed, 2 * expected_records) << spec.name;
    ASSERT_GT(local.master_tail, 8u) << spec.name;  // The circular log wrapped.

    SuiteSyncOutcome remote = RunSuiteSync(spec, /*seed=*/spec.threads, true);
    ASSERT_TRUE(remote.ok) << spec.name;
    // Byte-equality across placements: worker data files, acquisition
    // transcripts, the master's log image, and the remote's mirror of it.
    ASSERT_EQ(local.transcript, remote.transcript) << spec.name;
    ASSERT_EQ(local.sync_transcript, remote.sync_transcript) << spec.name;
    ASSERT_EQ(local.master_tail, remote.master_tail) << spec.name;
    ASSERT_EQ(local.master_log, remote.master_log) << spec.name;
    ASSERT_EQ(remote.remote_tail, remote.master_tail) << spec.name;
    ASSERT_EQ(remote.remote_log, remote.master_log) << spec.name;
    ASSERT_GT(remote.sync_frames_applied, 0u) << spec.name;
    ASSERT_EQ(remote.ops_replayed, 2 * expected_records) << spec.name;
  }
}

TEST(SuiteSyncLockstepTest, ReseedMidSuiteRunCarriesSyncLog) {
  // Kill-one-replica variant on the compute shape: tearing the remote replica's
  // link mid-rotation and checkpoint-seeding a replacement must leave every
  // transcript and the sync log byte-identical to the never-died run.
  // The replacement's attestation raises the leader's copy of its replay
  // cursor; that raise must wake a master parked on the sync log's wrap gate,
  // since every later ack repeats the same cursor (dedup parks there).
  int exercised = 0;
  for (const WorkloadSpec& spec : SuiteSyncRoster()) {
    SuiteSyncOutcome base = RunSuiteSync(spec, /*seed=*/7, true);
    ASSERT_TRUE(base.ok) << spec.name;

    SuiteSyncOutcome reseeded =
        RunSuiteSync(spec, /*seed=*/7, true, /*kill_remote_at=*/Millis(2));
    ASSERT_TRUE(reseeded.ok) << spec.name;
    ASSERT_EQ(base.transcript, reseeded.transcript) << spec.name;
    ASSERT_EQ(base.sync_transcript, reseeded.sync_transcript) << spec.name;
    ASSERT_EQ(base.master_log, reseeded.master_log) << spec.name;
    ASSERT_EQ(reseeded.remote_tail, reseeded.master_tail) << spec.name;
    ASSERT_EQ(reseeded.remote_log, reseeded.master_log) << spec.name;
    if (reseeded.remote_deaths > 0) {
      ++exercised;
      ASSERT_GE(reseeded.rejoins, 1u) << spec.name;
    }
  }
  EXPECT_GE(exercised, 3);  // The kill must land mid-run on most rosters.
}

TEST(PropertyTest, MonitoredPlusUnmonitoredCoversEverything) {
  // Under ReMon, every replica system call is either monitored or unmonitored;
  // none bypass both monitors.
  SimWorld w(66);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(PropertyWorkload(30), "cover");
  w.Run();
  const SimStats& stats = w.sim.stats();
  // Total calls counted by the kernel == monitored (lockstep rounds cover all
  // replicas) * replicas + unmonitored + the handful of pre-registration calls.
  EXPECT_GT(stats.syscalls_monitored, 0u);
  EXPECT_GT(stats.syscalls_unmonitored, 0u);
  EXPECT_GE(stats.syscalls_total,
            stats.syscalls_monitored + stats.syscalls_unmonitored);
}

TEST(PropertyTest, StressManyIterationsNoDrift) {
  // Long-running ReMon session: cursors, sequence numbers, RB resets, and the file
  // map stay consistent over thousands of unmonitored calls.
  SimWorld w(77);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_size = 512 * 1024;
  opts.max_ranks = 4;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(PropertyWorkload(1500), "stress");
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_GT(w.sim.stats().rb_resets, 0u);  // The linear buffer wrapped many times.
}

}  // namespace
}  // namespace remon
