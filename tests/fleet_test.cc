// Tests for the scale-out stack: load-balancer routing determinism, autoscale
// policy decisions, the multi-page file map, swarm statistics, and end-to-end
// fleet runs (deterministic transcripts, multi-tier chains, autoscale spikes).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/file_map.h"
#include "src/core/fleet.h"
#include "src/harness/runner.h"
#include "src/net/load_balancer.h"
#include "tests/test_util.h"

namespace remon {
namespace {

// --- LoadBalancer routing ---------------------------------------------------------

// Routes one connect through the network's virtual-endpoint resolution, exactly
// as StreamSocket::ConnectTo does at SYN time.
SockAddr ResolveOnce(Network* net, const SockAddr& vip, const SockAddr& client) {
  SockAddr out = vip;
  EXPECT_TRUE(net->ResolveVirtual(vip, client, &out));
  return out;
}

TEST(LoadBalancerTest, RoundRobinRotatesOverBackendsInOrder) {
  SimWorld w;
  uint32_t vm = w.net.AddMachine("vip");
  SockAddr vip{vm, 80};
  LoadBalancer lb(&w.net, vip, LoadBalancer::Policy::kRoundRobin);
  std::vector<SockAddr> backends;
  for (uint64_t i = 0; i < 3; ++i) {
    backends.push_back({w.net.AddMachine("b" + std::to_string(i)), 80});
    lb.AddBackend(i, backends.back());
  }
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 3; ++i) {
      SockAddr got = ResolveOnce(&w.net, vip, {w.client_machine, uint16_t(40000 + round)});
      EXPECT_EQ(got.machine, backends[static_cast<size_t>(i)].machine);
    }
  }
  EXPECT_EQ(lb.total_routed(), 12u);
  EXPECT_EQ(lb.routed_to(0), 4u);
  EXPECT_EQ(lb.routed_to(1), 4u);
  EXPECT_EQ(lb.routed_to(2), 4u);
}

TEST(LoadBalancerTest, SameSeedSameRouteDigest) {
  // Two identically constructed balancers fed the same connect sequence agree
  // on every decision (and therefore the digest); this is the property the
  // fleet's transcript determinism rests on.
  uint64_t digests[2];
  for (int rep = 0; rep < 2; ++rep) {
    SimWorld w;
    uint32_t vm = w.net.AddMachine("vip");
    SockAddr vip{vm, 80};
    LoadBalancer lb(&w.net, vip, LoadBalancer::Policy::kConsistentHash);
    for (uint64_t i = 0; i < 4; ++i) {
      lb.AddBackend(i, {w.net.AddMachine("b" + std::to_string(i)), 80});
    }
    for (uint16_t port = 30000; port < 30200; ++port) {
      ResolveOnce(&w.net, vip, {w.client_machine, port});
    }
    digests[rep] = lb.route_digest();
    EXPECT_EQ(lb.total_routed(), 200u);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(LoadBalancerTest, ConsistentHashKeepsClientAffinity) {
  SimWorld w;
  uint32_t vm = w.net.AddMachine("vip");
  SockAddr vip{vm, 80};
  LoadBalancer lb(&w.net, vip, LoadBalancer::Policy::kConsistentHash);
  for (uint64_t i = 0; i < 4; ++i) {
    lb.AddBackend(i, {w.net.AddMachine("b" + std::to_string(i)), 80});
  }
  for (uint16_t port = 20000; port < 20050; ++port) {
    SockAddr client{w.client_machine, port};
    SockAddr first = ResolveOnce(&w.net, vip, client);
    for (int again = 0; again < 3; ++again) {
      EXPECT_EQ(ResolveOnce(&w.net, vip, client).machine, first.machine);
    }
  }
}

TEST(LoadBalancerTest, ConsistentHashRemappingIsLocalOnRemoval) {
  SimWorld w;
  uint32_t vm = w.net.AddMachine("vip");
  SockAddr vip{vm, 80};
  LoadBalancer lb(&w.net, vip, LoadBalancer::Policy::kConsistentHash);
  std::map<uint32_t, uint64_t> machine_to_id;
  for (uint64_t i = 0; i < 4; ++i) {
    SockAddr addr{w.net.AddMachine("b" + std::to_string(i)), 80};
    lb.AddBackend(i, addr);
    machine_to_id[addr.machine] = i;
  }
  std::map<uint16_t, SockAddr> before;
  for (uint16_t port = 10000; port < 10400; ++port) {
    before[port] = ResolveOnce(&w.net, vip, {w.client_machine, port});
  }
  lb.RemoveBackend(2);
  EXPECT_FALSE(lb.has_backend(2));
  EXPECT_EQ(lb.backend_count(), 3);
  // Clients that weren't on the removed backend keep their assignment — the
  // ~1/N remap property autoscale retirement leans on.
  for (const auto& [port, addr] : before) {
    SockAddr after = ResolveOnce(&w.net, vip, {w.client_machine, port});
    if (machine_to_id[addr.machine] != 2) {
      EXPECT_EQ(after.machine, addr.machine) << "client port " << port;
    } else {
      EXPECT_NE(after.machine, addr.machine) << "client port " << port;
    }
  }
}

TEST(LoadBalancerTest, NoBackendsMeansConnectTargetsUnservedVip) {
  SimWorld w;
  uint32_t vm = w.net.AddMachine("vip");
  SockAddr vip{vm, 80};
  LoadBalancer lb(&w.net, vip, LoadBalancer::Policy::kRoundRobin);
  SockAddr out = vip;
  ASSERT_TRUE(w.net.ResolveVirtual(vip, {w.client_machine, 40000}, &out));
  EXPECT_EQ(out.machine, vip.machine);
  EXPECT_EQ(out.port, vip.port);
}

TEST(LoadBalancerTest, TakeArrivalsResetsTheWindow) {
  SimWorld w;
  uint32_t vm = w.net.AddMachine("vip");
  SockAddr vip{vm, 80};
  LoadBalancer lb(&w.net, vip, LoadBalancer::Policy::kRoundRobin);
  lb.AddBackend(0, {w.net.AddMachine("b0"), 80});
  for (uint16_t port = 0; port < 7; ++port) {
    ResolveOnce(&w.net, vip, {w.client_machine, uint16_t(50000 + port)});
  }
  EXPECT_EQ(lb.TakeArrivals(), 7u);
  EXPECT_EQ(lb.TakeArrivals(), 0u);
  ResolveOnce(&w.net, vip, {w.client_machine, 50100});
  EXPECT_EQ(lb.TakeArrivals(), 1u);
}

// --- Autoscale policy -------------------------------------------------------------

TEST(AutoscalePolicyTest, SpikeSpawnsUpToTheCeiling) {
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.up_threshold = 200;
  cfg.down_threshold = 20;
  cfg.max_spawns = 8;
  AutoscalePolicy policy(cfg, 1, 3);
  EXPECT_EQ(policy.Evaluate(1000, 1, 0), ScaleDecision::kSpawn);
  // Warming shard counts toward capacity: 1000 / (1 live + 1 pending) = 500.
  EXPECT_EQ(policy.Evaluate(1000, 1, 1), ScaleDecision::kSpawn);
  // At the ceiling (1 live + 2 pending == max 3): hold, however hot.
  EXPECT_EQ(policy.Evaluate(5000, 1, 2), ScaleDecision::kHold);
  EXPECT_EQ(policy.spawns(), 2);
}

TEST(AutoscalePolicyTest, IdleRetiresDownToTheFloor) {
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.up_threshold = 200;
  cfg.down_threshold = 20;
  AutoscalePolicy policy(cfg, 1, 4);
  EXPECT_EQ(policy.Evaluate(10, 3, 0), ScaleDecision::kRetire);
  EXPECT_EQ(policy.Evaluate(10, 2, 0), ScaleDecision::kRetire);
  // At the floor: hold, however idle.
  EXPECT_EQ(policy.Evaluate(0, 1, 0), ScaleDecision::kHold);
  // A warming shard blocks retirement (don't thrash mid-provision).
  EXPECT_EQ(policy.Evaluate(10, 2, 1), ScaleDecision::kHold);
}

TEST(AutoscalePolicyTest, SpawnBudgetCapsTotalScaleUps) {
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.up_threshold = 100;
  cfg.max_spawns = 2;
  AutoscalePolicy policy(cfg, 1, 8);
  EXPECT_EQ(policy.Evaluate(1000, 1, 0), ScaleDecision::kSpawn);
  EXPECT_EQ(policy.Evaluate(1000, 2, 0), ScaleDecision::kSpawn);
  // Budget exhausted (mirrors max_respawns_per_replica): hold forever after.
  EXPECT_EQ(policy.Evaluate(9000, 3, 0), ScaleDecision::kHold);
  EXPECT_EQ(policy.spawns(), 2);
}

TEST(AutoscalePolicyTest, SteadyLoadHolds) {
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.up_threshold = 200;
  cfg.down_threshold = 20;
  AutoscalePolicy policy(cfg, 1, 4);
  EXPECT_EQ(policy.Evaluate(100, 2, 0), ScaleDecision::kHold);
  EXPECT_EQ(policy.spawns(), 0);
}

// --- Multi-page file map ----------------------------------------------------------

TEST(FleetFileMapTest, MultiPageMapTracksFdsPastTheClassicPage) {
  FileMap fm;
  fm.Configure(2, "fe-s0");
  EXPECT_EQ(fm.max_fds(), 2 * FileMap::kMaxFds);
  EXPECT_EQ(fm.size_bytes(), 2 * kPageSize);
  ASSERT_EQ(fm.page_count(), 2);

  // The exact boundary: last FD of page 0, first FD of page 1.
  fm.Set(FileMap::kMaxFds - 1, FdType::kSocket, true);
  fm.Set(FileMap::kMaxFds, FdType::kPipe, false);
  EXPECT_TRUE(fm.IsValid(FileMap::kMaxFds - 1));
  EXPECT_EQ(fm.TypeOf(FileMap::kMaxFds), FdType::kPipe);
  EXPECT_TRUE(fm.IsNonblocking(FileMap::kMaxFds - 1));
  EXPECT_FALSE(fm.IsNonblocking(FileMap::kMaxFds));
  // Bytes land on the right backing frames (replicas map these read-only).
  EXPECT_NE(fm.page(0).bytes[kPageSize - 1], 0);
  EXPECT_NE(fm.page(1).bytes[0], 0);
  EXPECT_EQ(fm.out_of_range_sets(), 0u);

  // One past the end: dropped and counted, map untouched.
  fm.Set(2 * FileMap::kMaxFds, FdType::kSocket, false);
  EXPECT_EQ(fm.out_of_range_sets(), 1u);
  EXPECT_FALSE(fm.IsValid(2 * FileMap::kMaxFds));
}

TEST(FleetFileMapTest, ReconfigureResetsDropAccounting) {
  FileMap fm;
  fm.Set(FileMap::kMaxFds + 5, FdType::kSocket, false);
  EXPECT_EQ(fm.out_of_range_sets(), 1u);
  fm.Configure(4, "cache-s1");
  EXPECT_EQ(fm.out_of_range_sets(), 0u);
  fm.Set(FileMap::kMaxFds + 5, FdType::kSocket, false);  // Now in range.
  EXPECT_EQ(fm.out_of_range_sets(), 0u);
  EXPECT_TRUE(fm.IsValid(FileMap::kMaxFds + 5));
}

TEST(FleetFileMapTest, FdTableCapacityRaiseIsGrowOnly) {
  FdTable fds;
  EXPECT_EQ(fds.max_fds(), 1024);
  fds.RaiseMaxFds(8192);
  EXPECT_EQ(fds.max_fds(), 8192);
  fds.RaiseMaxFds(2048);  // Never shrinks.
  EXPECT_EQ(fds.max_fds(), 8192);
}

// A raised limit costs no slots: storage follows the highest open fd, and
// allocation is still lowest-free.
TEST(FleetFileMapTest, FdTableStorageFollowsTheHighestOpenFd) {
  FdTable fds;
  fds.RaiseMaxFds(16384);
  EXPECT_EQ(fds.storage_slots(), 0u);
  auto desc = [] { return std::make_shared<FileDescription>(nullptr, 0); };
  EXPECT_EQ(fds.Install(desc()), 0);
  EXPECT_EQ(fds.Install(desc()), 1);
  EXPECT_EQ(fds.Install(desc()), 2);
  EXPECT_EQ(fds.storage_slots(), 3u);
  EXPECT_EQ(fds.Close(1), 0);
  EXPECT_EQ(fds.storage_slots(), 3u);
  EXPECT_EQ(fds.Install(desc()), 1);  // Lowest free.
  EXPECT_EQ(fds.InstallAt(9000, desc()), 9000);
  EXPECT_EQ(fds.storage_slots(), 9001u);
  EXPECT_EQ(fds.Install(desc(), 100), 100);
  EXPECT_EQ(fds.Close(9000), 0);
  EXPECT_EQ(fds.storage_slots(), 101u);  // Trimmed to the new highest open fd.
  EXPECT_EQ(fds.InstallAt(16384, desc()), -kEBADF);
  EXPECT_EQ(fds.Install(desc(), 16384), -kEMFILE);
  for (int fd : fds.LiveFds()) {
    fds.Close(fd);
  }
  EXPECT_EQ(fds.storage_slots(), 0u);
}

// --- Swarm statistics -------------------------------------------------------------

TEST(SwarmStatsTest, PercentilesAndMerge) {
  SwarmStats a;
  for (int i = 1; i <= 100; ++i) {
    a.latencies.push_back(Millis(i));
  }
  EXPECT_EQ(a.Percentile(0), Millis(1));
  EXPECT_EQ(a.Percentile(100), Millis(100));
  EXPECT_NEAR(static_cast<double>(a.Percentile(50)), static_cast<double>(Millis(50)),
              static_cast<double>(Millis(1)));

  SwarmStats b;
  b.completed = 3;
  b.latencies = {Millis(500)};
  b.started = Millis(1);
  b.finished = Millis(2);
  a.started = Millis(0);
  a.finished = Millis(5);
  a.completed = 100;
  a.Merge(b);
  EXPECT_EQ(a.completed, 103);
  EXPECT_EQ(a.latencies.size(), 101u);
  EXPECT_EQ(a.started, Millis(0));
  EXPECT_EQ(a.finished, Millis(5));
}

// --- End-to-end fleets ------------------------------------------------------------

ScaleoutSpec SmallFleetSpec(int shards, int connections) {
  ScaleoutSpec spec;
  ScaleoutTierSpec tier;
  tier.server = ServerByName("nginx");
  tier.fleet.name = "fe";
  tier.fleet.port = 9000;
  tier.fleet.initial_shards = shards;
  tier.fleet.min_shards = shards;
  tier.fleet.max_shards = shards;
  spec.tiers.push_back(tier);
  spec.swarm.connections = connections;
  spec.swarm.arrival_rate = 50000;
  spec.swarm.seed = 7;
  spec.client_processes = 2;
  spec.collect_transcripts = true;
  return spec;
}

TEST(ScaleoutTest, SameSeedSameRoutingAndByteIdenticalTranscripts) {
  ScaleoutSpec spec = SmallFleetSpec(3, 600);
  RunConfig config;
  config.mvee.mode = MveeMode::kNative;
  ScaleoutResult r1 = RunScaleout(spec, config);
  ScaleoutResult r2 = RunScaleout(spec, config);

  EXPECT_TRUE(r1.finished);
  EXPECT_EQ(r1.arrived, 600);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.route_digests, r2.route_digests);
  EXPECT_EQ(r1.routed, r2.routed);
  // Load actually spread: every shard saw traffic.
  ASSERT_EQ(r1.routed.size(), 1u);
  for (uint64_t per_shard : r1.routed[0]) {
    EXPECT_GT(per_shard, 0u);
  }
  // Per-shard access logs are byte-identical across reruns.
  ASSERT_FALSE(r1.transcripts.empty());
  EXPECT_EQ(r1.transcripts, r2.transcripts);
}

// Sums access-log bytes per shard: which *worker* within a shard serves a
// connection is scheduling (the MVEE legitimately shifts it), but the per-shard
// request stream — and so the per-shard log volume — is behavior.
std::map<std::string, size_t> ShardLogBytes(
    const std::map<std::string, std::string>& transcripts) {
  std::map<std::string, size_t> out;
  for (const auto& [path, bytes] : transcripts) {
    out[path.substr(0, path.find("-access-"))] += bytes.size();
  }
  return out;
}

TEST(ScaleoutTest, RemonShardsMatchNativeTranscripts) {
  // The MVEE changes timing, never visible behavior: a 2-replica ReMon fleet
  // routes and serves the same request stream as the native fleet.
  ScaleoutSpec spec = SmallFleetSpec(2, 200);
  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  RunConfig remon;
  remon.mvee.mode = MveeMode::kRemon;
  remon.mvee.replicas = 2;
  remon.mvee.level = PolicyLevel::kSocketRw;
  ScaleoutResult rn = RunScaleout(spec, native);
  ScaleoutResult rr = RunScaleout(spec, remon);
  EXPECT_TRUE(rn.finished);
  EXPECT_TRUE(rr.finished);
  EXPECT_FALSE(rr.diverged);
  EXPECT_EQ(rn.completed, rr.completed);
  // Not route_digest: the MVEE shifts the *interleaving* of connects across
  // client processes (order-sensitive), but consistent hashing pins each client
  // to its shard regardless of order, so per-shard counts must agree.
  EXPECT_EQ(rn.routed, rr.routed);
  EXPECT_EQ(ShardLogBytes(rn.transcripts), ShardLogBytes(rr.transcripts));
}

TEST(ScaleoutTest, MultiTierChainReachesTheBackend) {
  ScaleoutSpec spec;
  ScaleoutTierSpec fe;
  fe.server = ServerByName("nginx");
  fe.fleet.name = "fe";
  fe.fleet.port = 9000;
  fe.fleet.initial_shards = 2;
  fe.fleet.min_shards = 2;
  fe.fleet.max_shards = 2;
  fe.hit_ratio = 0.0;  // Every request consults the cache tier.
  spec.tiers.push_back(fe);
  ScaleoutTierSpec be;
  be.server = ServerByName("redis");
  be.fleet.name = "be";
  be.fleet.port = 9001;
  be.fleet.initial_shards = 1;
  be.fleet.min_shards = 1;
  be.fleet.max_shards = 1;
  spec.tiers.push_back(be);
  spec.swarm.connections = 300;
  spec.swarm.arrival_rate = 30000;
  spec.swarm.seed = 9;
  spec.client_processes = 2;

  RunConfig config;
  config.mvee.mode = MveeMode::kNative;
  ScaleoutResult r = RunScaleout(spec, config);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.completed, 0);
  EXPECT_EQ(r.errors, 0);
  ASSERT_EQ(r.routed.size(), 2u);
  // The backend tier's balancer saw the frontends' upstream connects.
  uint64_t be_routed = 0;
  for (uint64_t n : r.routed[1]) {
    be_routed += n;
  }
  EXPECT_GT(be_routed, 0u);
}

TEST(ScaleoutTest, AutoscaleSpikeSpawnsThenIdleRetires) {
  ScaleoutSpec spec;
  ScaleoutTierSpec tier;
  tier.server = ServerByName("nginx");
  tier.fleet.name = "fe";
  tier.fleet.port = 9000;
  tier.fleet.initial_shards = 1;
  tier.fleet.min_shards = 1;
  tier.fleet.max_shards = 3;
  spec.tiers.push_back(tier);
  spec.swarm.connections = 3000;
  spec.swarm.arrival_rate = 500;
  // Calm -> spike (well past up_threshold per 20ms window) -> a long, still-
  // trickling tail: the swarm must outlive both the tick that sees the spike
  // window and the tick that sees the idle window, since the autoscale timer
  // stops when the swarm drains.
  spec.swarm.phases = {{500, Millis(40)}, {30000, Millis(40)}, {300, Millis(1500)}};
  spec.swarm.seed = 13;
  spec.client_processes = 2;
  spec.collect_transcripts = true;
  spec.autoscale.enabled = true;

  RunConfig config;
  config.mvee.mode = MveeMode::kNative;
  ScaleoutResult r1 = RunScaleout(spec, config);
  EXPECT_TRUE(r1.finished);
  EXPECT_GE(r1.shards_spawned, 1u) << "spike never tripped the up-threshold";
  EXPECT_GE(r1.shards_retired, 1u) << "idle tail never tripped the down-threshold";
  ASSERT_EQ(r1.final_in_rotation.size(), 1u);
  EXPECT_EQ(r1.final_in_rotation[0], 1) << "rotation should settle back at the floor";
  EXPECT_LE(r1.shard_counts[0], 3);

  // The whole elastic episode is deterministic: rerun, same spawns/retires,
  // byte-identical per-shard transcripts (including the autoscaled shard's).
  ScaleoutResult r2 = RunScaleout(spec, config);
  EXPECT_EQ(r1.shards_spawned, r2.shards_spawned);
  EXPECT_EQ(r1.shards_retired, r2.shards_retired);
  EXPECT_EQ(r1.route_digests, r2.route_digests);
  EXPECT_EQ(r1.transcripts, r2.transcripts);
}

TEST(ScaleoutTest, RebalanceMigratesRemoteReplicasUnderLoad) {
  // Drain-and-migrate every shard's remote replica onto a fresh machine mid-run
  // (respawn-as-migration). Service must not notice: same per-shard request
  // stream and log volume as the run that never rebalanced, no divergence.
  ScaleoutSpec spec = SmallFleetSpec(2, 200);
  spec.tiers[0].fleet.remote_replicas = true;
  RunConfig remon;
  remon.mvee.mode = MveeMode::kRemon;
  remon.mvee.replicas = 2;
  remon.mvee.level = PolicyLevel::kSocketRw;

  ScaleoutResult steady = RunScaleout(spec, remon);
  ASSERT_TRUE(steady.finished);
  ASSERT_FALSE(steady.diverged);
  EXPECT_EQ(steady.stats.rb_replica_migrations, 0u);

  spec.rebalance_at = Millis(2);  // Mid-arrival: 200 conns at 50k/s span ~4ms.
  ScaleoutResult moved = RunScaleout(spec, remon);
  EXPECT_TRUE(moved.finished);
  EXPECT_FALSE(moved.diverged);
  // One remote replica per shard actually moved, re-seeded off the ack-latched
  // delta basis rather than a full checkpoint.
  EXPECT_GE(moved.stats.rb_replica_migrations, 2u);
  EXPECT_GE(moved.stats.rb_snapshot_delta_captures +
                moved.stats.rb_snapshot_full_fallbacks,
            2u);
  EXPECT_EQ(moved.completed, steady.completed);
  EXPECT_EQ(moved.routed, steady.routed);
  EXPECT_EQ(ShardLogBytes(moved.transcripts), ShardLogBytes(steady.transcripts));

  // And the migration episode itself is deterministic.
  ScaleoutResult again = RunScaleout(spec, remon);
  EXPECT_EQ(again.stats.rb_replica_migrations, moved.stats.rb_replica_migrations);
  EXPECT_EQ(again.transcripts, moved.transcripts);
}

TEST(ScaleoutTest, RebalanceUnderConnectionChurnJoinsEveryTime) {
  // Every swarm connection is an accept and a close on the shard: master calls
  // whose FD-map updates land at the master's exit stop, and a blocking accept
  // keeps such a round executing for as long as it waits. The checkpoint does
  // not carry the file map (GHUMVEE's one map is every replica's), so those
  // updates run on while a checkpoint is in flight. Sweep the migration instant
  // across the swarm: every move must join, and service must match the run that
  // never moved.
  ScaleoutSpec spec = SmallFleetSpec(2, 600);
  spec.tiers[0].fleet.remote_replicas = true;
  RunConfig remon;
  remon.mvee.mode = MveeMode::kRemon;
  remon.mvee.replicas = 2;
  remon.mvee.level = PolicyLevel::kSocketRw;
  ScaleoutResult steady = RunScaleout(spec, remon);
  ASSERT_TRUE(steady.finished);
  ASSERT_FALSE(steady.diverged);

  for (int k = 0; k < 12; ++k) {
    spec.rebalance_at = Millis(1) + k * Micros(750);
    SCOPED_TRACE("rebalance at " + std::to_string(spec.rebalance_at) + " ns");
    ScaleoutResult moved = RunScaleout(spec, remon);
    EXPECT_TRUE(moved.finished);
    EXPECT_FALSE(moved.diverged);
    EXPECT_EQ(moved.stats.rb_replica_migrations, 2u);
    EXPECT_EQ(moved.stats.rb_snapshot_rejects, 0u);
    EXPECT_EQ(moved.completed, steady.completed);
    EXPECT_EQ(ShardLogBytes(moved.transcripts), ShardLogBytes(steady.transcripts));
  }
}

}  // namespace
}  // namespace remon
