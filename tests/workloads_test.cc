// Tests for the workload library: servers (all three concurrency models), clients,
// suite-spec derivation, and the sync agent.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/core/sync_agent.h"
#include "src/harness/bench_main.h"
#include "src/harness/runner.h"
#include "tests/test_util.h"

namespace remon {
namespace {

// --- Servers ----------------------------------------------------------------------

class ServerKindTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ServerKindTest, ServesKeepAliveRequestsNatively) {
  ServerSpec server = ServerByName(GetParam());
  ClientSpec client;
  client.connections = 4;
  client.total_requests = 60;
  client.request_bytes = 1024;
  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  ServerResult r = RunServerBench(server, client, native,
                                  LinkParams{60 * kMicrosecond, 0.125});
  EXPECT_EQ(r.requests, 60) << server.name;
  EXPECT_GT(r.throughput, 0) << server.name;
  EXPECT_GT(r.mean_latency_us, 0) << server.name;
}

INSTANTIATE_TEST_SUITE_P(AllServers, ServerKindTest,
                         ::testing::Values("nginx", "lighttpd", "thttpd", "apache",
                                           "redis", "memcached", "beanstalkd"));

TEST(ServerTest, PaperServerSetIsComplete) {
  std::vector<ServerSpec> servers = PaperServers();
  EXPECT_EQ(servers.size(), 7u);
  // The three concurrency models the paper's server fleet spans.
  bool has_epoll = false;
  bool has_select = false;
  bool has_pool = false;
  for (const ServerSpec& s : servers) {
    has_epoll |= s.kind == ServerKind::kEpollLoop;
    has_select |= s.kind == ServerKind::kSelectLoop;
    has_pool |= s.kind == ServerKind::kThreadPool;
  }
  EXPECT_TRUE(has_epoll);
  EXPECT_TRUE(has_select);
  EXPECT_TRUE(has_pool);
}

TEST(ServerTest, MalformedRequestClosesConnection) {
  SimWorld w(3);
  ServerSpec spec = ServerByName("lighttpd");
  RemonOptions opts;
  opts.mode = MveeMode::kNative;
  opts.machine = w.server_machine;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(ServerProgram(spec), "srv");

  Process* cp = w.NewProcess("client", -1, w.client_machine);
  bool got_eof = false;
  w.kernel.SpawnThread(cp, [&](Guest& g) -> GuestTask<void> {
    co_await g.SleepNs(Millis(1));
    int64_t s = co_await g.Socket(kAfInet, kSockStream);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = spec.port;
    addr.sin_addr = 0;
    g.Poke(sa, &addr, sizeof(addr));
    EXPECT_EQ(co_await g.Connect(static_cast<int>(s), sa, sizeof(addr)), 0);
    GuestAddr buf = g.Alloc(16);
    g.Poke(buf, "GARBAGE!!\n", 10);  // Not "R<8 digits>\n".
    co_await g.Write(static_cast<int>(s), buf, 10);
    int64_t n = co_await g.Read(static_cast<int>(s), buf, 16);
    got_eof = n == 0;  // Server closes on protocol error.
    co_await g.Close(static_cast<int>(s));
  });
  w.Run();
  EXPECT_TRUE(got_eof);
}

// The connections share one ab-style budget: together they send exactly that many
// requests, and each one gets its whole response.
TEST(ClientTest, RequestBudgetIsSharedByTheConnections) {
  ServerSpec server = ServerByName("redis");
  ClientSpec client;
  client.connections = 4;
  client.total_requests = 37;
  client.request_bytes = 256;
  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  ServerResult r = RunServerBench(server, client, native,
                                  LinkParams{60 * kMicrosecond, 0.125});
  EXPECT_EQ(r.requests, 37);
  EXPECT_EQ(r.bytes_received, 37u * 256u);
}

// --- Cross-machine replica sets (RB transport over the simulated network) ----------

// Acceptance bar for the transport: a 3-rank replica set with one remote rank must
// serve the exact transcript the all-local SHM configuration serves — for both the
// epoll event-loop and the thread-pool concurrency model — while actually moving
// the replication stream as wire frames.
class RemotePlacementServerTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RemotePlacementServerTest, TranscriptMatchesShmPlacement) {
  ServerSpec server = ServerByName(GetParam());
  server.log_writes = 4;
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 80;
  client.request_bytes = 1024;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig local;
  local.mvee.mode = MveeMode::kRemon;
  local.mvee.replicas = 3;
  local.mvee.level = PolicyLevel::kSocketRw;
  ServerResult shm = RunServerBench(server, client, local, link);
  ASSERT_FALSE(shm.diverged) << server.name;
  ASSERT_EQ(shm.requests, 80) << server.name;
  EXPECT_EQ(shm.stats.rb_frames_sent, 0u) << server.name;  // All-local: no frames.

  RunConfig remote = local;
  remote.placement = {1};  // Replica 1 on its own machine; replica 2 stays local.
  remote.rb_link_latency = 50 * kMicrosecond;
  ServerResult net = RunServerBench(server, client, remote, link);

  EXPECT_FALSE(net.diverged) << server.name;
  // Byte-identical client-observed transcript across placements. (The *count* of
  // replicated entries legitimately differs between placements for an event-loop
  // server — wakeup coalescing and accept retries are timing-dependent — so exact
  // RB-stream equality is asserted by the deterministic cross-machine fuzz in
  // property_test.cc, not here.)
  EXPECT_EQ(net.requests, shm.requests) << server.name;
  EXPECT_EQ(net.bytes_received, shm.bytes_received) << server.name;
  // The stream really traveled as frames and was applied remotely.
  EXPECT_GT(net.stats.rb_frames_sent, 0u) << server.name;
  EXPECT_EQ(net.stats.rb_frames_applied, net.stats.rb_frames_sent) << server.name;
  EXPECT_GT(net.stats.rb_entries_applied, 0u) << server.name;
}

INSTANTIATE_TEST_SUITE_P(EpollAndPool, RemotePlacementServerTest,
                         ::testing::Values("nginx", "memcached"));

TEST(RemotePlacementTest, TwoRemoteRanksOnDistinctHosts) {
  // placement=machine:1,2 — both slaves remote, on different machines, each with
  // its own mirror + agent. The leader broadcasts each flush to both.
  ServerSpec server = ServerByName("nginx");
  ClientSpec client;
  client.connections = 4;
  client.total_requests = 40;
  client.request_bytes = 512;
  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 3;
  config.mvee.level = PolicyLevel::kSocketRw;
  config.placement = {1, 2};
  ServerResult r = RunServerBench(server, client, config,
                                  LinkParams{60 * kMicrosecond, 0.125});
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.requests, 40);
  // Two remotes: every sent frame is applied, once per remote.
  EXPECT_GT(r.stats.rb_frames_sent, 0u);
  EXPECT_EQ(r.stats.rb_frames_applied, r.stats.rb_frames_sent);
}

TEST(RemotePlacementTest, KilledReplicaReseedsAndServesIdenticalTranscript) {
  // The recovery story end to end at the server level: a remote replica's link is
  // torn down mid-benchmark, a replacement is checkpoint-seeded back in, and the
  // client-observed transcript matches the uninterrupted run — no divergence, no
  // lost or duplicated requests.
  ServerSpec server = ServerByName("nginx");
  server.log_writes = 4;
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 80;
  client.request_bytes = 1024;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 3;
  config.mvee.level = PolicyLevel::kSocketRw;
  config.placement = {1};
  ServerResult uninterrupted = RunServerBench(server, client, config, link);
  ASSERT_FALSE(uninterrupted.diverged);
  ASSERT_EQ(uninterrupted.requests, 80);

  RunConfig faulted = config;
  faulted.mvee.respawn_dead_replicas = true;
  faulted.kill_remote_replica_at = Millis(2);
  ServerResult reseeded = RunServerBench(server, client, faulted, link);

  EXPECT_FALSE(reseeded.diverged);
  EXPECT_EQ(reseeded.requests, uninterrupted.requests);
  EXPECT_EQ(reseeded.bytes_received, uninterrupted.bytes_received);
  // The death and the re-seed actually happened.
  EXPECT_GE(reseeded.stats.rb_remote_deaths, 1u);
  EXPECT_GE(reseeded.stats.rb_replica_respawns, 1u);
  EXPECT_EQ(reseeded.stats.rb_replica_joins, reseeded.stats.rb_replica_respawns);
  EXPECT_GT(reseeded.stats.rb_snapshot_frames_sent, 0u);
  EXPECT_EQ(reseeded.stats.rb_snapshot_rejects, 0u);
  // Epoch breakdown: traffic is attributed across (at least) two epochs and the
  // cumulative counters kept the pre-death history.
  EXPECT_GE(reseeded.stats.rb_epochs.size(), 2u);
  uint64_t per_epoch_sent = 0;
  for (const RbEpochStats& row : reseeded.stats.rb_epochs) {
    per_epoch_sent += row.frames_sent;
  }
  EXPECT_EQ(per_epoch_sent, reseeded.stats.rb_frames_sent);
}

TEST(RemotePlacementTest, MultithreadedPoolServerReseedsWithSyncLog) {
  // The multi-threaded recovery story end to end: a thread-pool server whose
  // workers serialize racy accept-side bookkeeping through the record/replay
  // agent, with one replica on its own machine. Mid-benchmark the remote's link
  // is torn down and a replacement is checkpoint-seeded back in — the snapshot
  // now carrying the sync-log image + replay cursor — and the client-observed
  // transcript must match the uninterrupted run exactly.
  ServerSpec server = ServerByName("memcached");  // 4 pool workers.
  server.log_writes = 2;
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 120;
  client.request_bytes = 512;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 3;
  config.mvee.level = PolicyLevel::kSocketRw;
  config.placement = {0, 1};  // Replica 2 on its own machine.
  config.mvee.use_sync_agent = true;

  // Placement transparency first: the agent-guarded pool serves identically
  // whether the replica set is all-local or split across machines.
  RunConfig all_local = config;
  all_local.placement.clear();
  ServerResult local = RunServerBench(server, client, all_local, link);
  ASSERT_FALSE(local.diverged);
  ASSERT_EQ(local.requests, 120);
  EXPECT_GT(local.stats.sync_ops_recorded, 0u);
  EXPECT_EQ(local.stats.sync_log_frames_sent, 0u);  // All-local: no stream.

  ServerResult remote = RunServerBench(server, client, config, link);
  ASSERT_FALSE(remote.diverged);
  EXPECT_EQ(remote.requests, local.requests);
  EXPECT_EQ(remote.bytes_received, local.bytes_received);
  // The sync log really traveled: appends streamed as kSyncLog frames and every
  // one was replayed into the remote mirror.
  EXPECT_GT(remote.stats.sync_log_frames_sent, 0u);
  EXPECT_EQ(remote.stats.sync_log_records_applied,
            remote.stats.sync_log_records_streamed);
  // Both slaves replayed the master's full acquisition history.
  EXPECT_EQ(remote.stats.sync_ops_replayed, 2 * remote.stats.sync_ops_recorded);

  RunConfig faulted = config;
  faulted.mvee.respawn_dead_replicas = true;
  faulted.kill_remote_replica_at = Millis(3);
  ServerResult reseeded = RunServerBench(server, client, faulted, link);

  EXPECT_FALSE(reseeded.diverged);
  EXPECT_EQ(reseeded.requests, remote.requests);
  EXPECT_EQ(reseeded.bytes_received, remote.bytes_received);
  EXPECT_GE(reseeded.stats.rb_remote_deaths, 1u);
  EXPECT_GE(reseeded.stats.rb_replica_joins, 1u);
  EXPECT_EQ(reseeded.stats.rb_snapshot_rejects, 0u);
  // The recovered run still replicated the whole sync history to both slaves.
  EXPECT_EQ(reseeded.stats.sync_ops_replayed, 2 * reseeded.stats.sync_ops_recorded);
}

TEST(RemotePlacementTest, RepeatingKillOnServerRunReturnsOnceClientIsDone) {
  // A server never exits, so a kill loop that re-armed until the replicas finished
  // bumped epochs forever. The loop must stop with the client, every kill but the
  // last must be followed by a join, and the client must see the never-killed
  // transcript. The client runs long enough for several 3 ms kill intervals.
  ServerSpec server = ServerByName("memcached");  // 4 pool workers.
  server.log_writes = 2;
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 240;
  client.request_bytes = 512;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 3;
  config.mvee.level = PolicyLevel::kSocketRw;
  config.placement = {0, 1};  // Replica 2 on its own machine.
  config.mvee.use_sync_agent = true;
  ServerResult intact = RunServerBench(server, client, config, link);
  ASSERT_FALSE(intact.diverged);
  ASSERT_EQ(intact.requests, 240);

  RunConfig faulted = config;
  faulted.mvee.respawn_dead_replicas = true;
  faulted.kill_remote_replica_at = Millis(3);
  faulted.kill_remote_replica_every = Millis(3);
  faulted.mvee.respawn_budget_decay = Millis(2);  // Sporadic deaths never exhaust it.
  ServerResult killed = RunServerBench(server, client, faulted, link);
  EXPECT_FALSE(killed.diverged);
  EXPECT_EQ(killed.requests, intact.requests);
  EXPECT_EQ(killed.bytes_received, intact.bytes_received);
  EXPECT_GE(killed.stats.rb_remote_deaths, 3u);  // The loop really repeated.
  EXPECT_GE(killed.stats.rb_replica_joins + 1, killed.stats.rb_remote_deaths);
  EXPECT_EQ(killed.stats.rb_snapshot_rejects, 0u);
}

TEST(RemotePlacementTest, SealedPlacementServesShmTranscript) {
  // Sealing at the server level: the cross-machine multi-threaded benchmark,
  // whose link is sealed like every link, must serve the exact transcript of the
  // all-local (SHM placement) run — MAC trailers and stream encryption change
  // only the bytes on the link — and the attested-join re-seed must stay
  // transparent too.
  ServerSpec server = ServerByName("memcached");
  server.log_writes = 2;
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 120;
  client.request_bytes = 512;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 3;
  config.mvee.level = PolicyLevel::kSocketRw;
  config.mvee.use_sync_agent = true;
  ServerResult shm = RunServerBench(server, client, config, link);
  ASSERT_FALSE(shm.diverged);
  ASSERT_EQ(shm.requests, 120);

  RunConfig sealed = config;
  sealed.placement = {0, 1};  // Replica 2 on its own machine.
  ServerResult remote = RunServerBench(server, client, sealed, link);
  ASSERT_FALSE(remote.diverged);
  EXPECT_EQ(remote.requests, shm.requests);
  EXPECT_EQ(remote.bytes_received, shm.bytes_received);
  // Every frame on the link was sealed (leader data + replica acks), the initial
  // join ran through the attest handshake, and nothing was rejected.
  EXPECT_GT(remote.stats.rb_auth_frames_sealed, remote.stats.rb_frames_sent);
  EXPECT_EQ(remote.stats.rb_auth_frames_rejected, 0u);
  EXPECT_GE(remote.stats.rb_auth_joins, 1u);
  EXPECT_EQ(remote.stats.rb_auth_join_rejects, 0u);

  RunConfig faulted = sealed;
  faulted.mvee.respawn_dead_replicas = true;
  faulted.kill_remote_replica_at = Millis(3);
  ServerResult reseeded = RunServerBench(server, client, faulted, link);
  EXPECT_FALSE(reseeded.diverged);
  EXPECT_EQ(reseeded.requests, shm.requests);
  EXPECT_EQ(reseeded.bytes_received, shm.bytes_received);
  EXPECT_GE(reseeded.stats.rb_remote_deaths, 1u);
  EXPECT_GE(reseeded.stats.rb_replica_joins, 1u);
  // Initial join + replacement join, each attested under its epoch's keys.
  EXPECT_GE(reseeded.stats.rb_auth_joins, 2u);
  EXPECT_EQ(reseeded.stats.rb_snapshot_rejects, 0u);
}

TEST(RemotePlacementTest, RemoteLinkDownReportsDivergenceNotHang) {
  // Tearing the remote agent's link mid-run must end the run with a divergence
  // report (epoch bump included), never a hang on unacked frames or RB waits.
  SimWorld w(99);
  uint32_t remote_machine = w.net.AddMachine("replica-host-1");
  w.net.SetLink(w.server_machine, remote_machine, LinkParams{50 * kMicrosecond, 0.125});

  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 3;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.machine = w.server_machine;
  opts.replica_machines = {w.server_machine, w.server_machine, remote_machine};
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/remote-death", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    for (int i = 0; i < 5000; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 64);
      co_await g.Compute(Micros(5));
    }
    co_await g.Close(static_cast<int>(fd));
  });

  ASSERT_NE(mvee.remote_agent(2), nullptr);
  w.sim.queue().ScheduleAt(Millis(3), [&mvee] { mvee.remote_agent(2)->Shutdown(); });
  w.Run(Seconds(30));  // A hang would blow through the deadline.

  EXPECT_TRUE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.transport()->any_remote_dead());
  EXPECT_GE(mvee.transport()->epoch(), 2u);
  EXPECT_LT(w.sim.now(), Seconds(29));
}

TEST(RemotePlacementTest, SlowRbLinkIsNotMistakenForADeadOne) {
  // A remote replica 30 ms away answers the leader's SYN after a 60 ms round
  // trip. A connect resolves within one round trip either way (accepted, or
  // refused by RST), so a slow link is only slow: the run must serve the native
  // transcript with no link declared dead.
  ServerSpec server = ServerByName("nginx");
  ClientSpec client;
  client.connections = 4;
  client.total_requests = 50;
  client.request_bytes = 512;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  ServerResult base = RunServerBench(server, client, native, link);
  ASSERT_EQ(base.requests, 50);

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 3;
  config.mvee.level = PolicyLevel::kSocketRw;
  config.placement = {1};
  config.rb_link_latency = 30 * kMillisecond;
  ServerResult slow = RunServerBench(server, client, config, link);
  EXPECT_FALSE(slow.diverged);
  EXPECT_EQ(slow.requests, base.requests);
  EXPECT_EQ(slow.bytes_received, base.bytes_received);
  EXPECT_EQ(slow.stats.rb_remote_deaths, 0u);
  EXPECT_GT(slow.stats.rb_frames_sent, 0u);
  EXPECT_EQ(slow.stats.rb_frames_applied, slow.stats.rb_frames_sent);
}

// A link whose bandwidth binds: at 20 Mbit/s the stream window fills and the
// transport's backpressure really parks the leader.
constexpr double kStarvedLinkBytesPerNs = 0.0025;

TEST(RemotePlacementTest, StarvedRbLinkParksLeaderAndServesNativeTranscript) {
  // The RB transport's only backpressure is the stream window. On a 20 Mbit/s
  // link the leader parks at its flush points until the agent's reads reopen
  // the window; no ack needs to arrive for that, so a pump that woke the stall
  // queue only around ack parsing would leave the leader parked forever. The run
  // must finish with the native transcript (remon_cli_starved_link runs the same
  // configuration from the command line).
  ServerSpec server = ServerByName("memcached");
  ClientSpec client;
  client.connections = 16;
  client.total_requests = 400;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  ServerResult base = RunServerBench(server, client, native, link);
  ASSERT_EQ(base.requests, 400);

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 3;
  config.mvee.level = PolicyLevel::kSocketRw;
  config.placement = {1};
  config.rb_link_bytes_per_ns = kStarvedLinkBytesPerNs;
  ServerResult starved = RunServerBench(server, client, config, link);
  EXPECT_FALSE(starved.diverged);
  EXPECT_EQ(starved.requests, base.requests);
  EXPECT_EQ(starved.bytes_received, base.bytes_received);
  EXPECT_GT(starved.stats.rb_transport_stalls, 0u);
  EXPECT_EQ(starved.stats.rb_remote_deaths, 0u);
  EXPECT_EQ(starved.stats.rb_frames_applied, starved.stats.rb_frames_sent);
}

// One remote replica through its whole link lifecycle: first join, a kill
// answered by a respawn, then a migration of the live replacement to a fresh
// machine (Remon::SpawnReplacement on a live link).
struct LifecycleRun {
  bool diverged = false;
  bool finished = false;
  bool migrated = false;            // SpawnReplacement accepted the migration.
  uint32_t final_machine = 0;       // Where replica 1 ended up.
  uint64_t final_agent_joins = 0;   // Joins through the last agent.
  std::string file;                 // What the replicated program wrote.
  SimStats stats;
};

// With `faults`, replica 1's link is killed at 3 ms and the respawned replica is
// migrated at 10 ms; without, the same program runs with its replica never
// dying.
LifecycleRun RunRemoteLifecycle(bool faults) {
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
  opts.respawn_dead_replicas = true;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/lifecycle", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    for (int i = 0; i < 4000; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 64);
      co_await g.Compute(Micros(5));
    }
    co_await g.Close(static_cast<int>(fd));
  });

  LifecycleRun run;
  if (faults) {
    w.sim.queue().ScheduleAt(Millis(3), [&mvee] { mvee.remote_agent(1)->Shutdown(); });
    w.sim.queue().ScheduleAt(Millis(10), [&mvee, &run, target] {
      run.migrated = mvee.SpawnReplacement(1, static_cast<int>(target));
    });
  }
  w.Run(Seconds(30));
  run.diverged = mvee.divergence_detected();
  run.finished = mvee.finished();
  run.final_machine = mvee.options().replica_machines[1];
  run.final_agent_joins = mvee.remote_agent(1)->joins();
  run.file = w.fs.ReadWholeFile("/tmp/lifecycle").value_or("<missing>");
  run.stats = w.sim.stats();
  return run;
}

TEST(RemotePlacementTest, LinkLifecycleEpochRowsAndFileMatchNeverDiedRun) {
  LifecycleRun never_died = RunRemoteLifecycle(/*faults=*/false);
  LifecycleRun faulted = RunRemoteLifecycle(/*faults=*/true);
  for (const LifecycleRun* run : {&never_died, &faulted}) {
    SCOPED_TRACE(run == &never_died ? "never died" : "faulted");
    EXPECT_FALSE(run->diverged);
    EXPECT_TRUE(run->finished);
    EXPECT_EQ(run->stats.rb_snapshot_rejects, 0u);
    EXPECT_EQ(run->stats.rb_auth_frames_rejected, 0u);
  }
  // The untouched link: one epoch, the first join attested, nothing re-seeded.
  EXPECT_FALSE(never_died.migrated);
  EXPECT_EQ(never_died.stats.rb_remote_deaths, 0u);
  EXPECT_EQ(never_died.stats.rb_auth_joins, 1u);
  EXPECT_EQ(never_died.final_agent_joins, 0u);
  ASSERT_EQ(never_died.stats.rb_epochs.size(), 1u);
  EXPECT_EQ(never_died.stats.rb_epochs[0].deaths, 0u);
  EXPECT_EQ(never_died.stats.rb_epochs[0].joins, 0u);

  EXPECT_TRUE(faulted.migrated);
  EXPECT_EQ(faulted.stats.rb_remote_deaths, 1u);
  EXPECT_EQ(faulted.stats.rb_replica_migrations, 1u);
  EXPECT_EQ(faulted.final_agent_joins, 1u);
  EXPECT_NE(faulted.final_machine, never_died.final_machine);
  // First join, respawn and migration each attested.
  EXPECT_EQ(faulted.stats.rb_auth_joins, 3u);
  // Epoch 1 is the first join and ends in the kill; the respawn joins epoch 2;
  // the migration retires that link quietly and its replacement joins epoch 3.
  const std::vector<RbEpochStats>& rows = faulted.stats.rb_epochs;
  ASSERT_EQ(rows.size(), 3u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].epoch, i + 1);
    EXPECT_EQ(rows[i].deaths, i == 0 ? 1u : 0u) << "epoch " << rows[i].epoch;
    EXPECT_EQ(rows[i].joins, i == 0 ? 0u : 1u) << "epoch " << rows[i].epoch;
    if (i == 0) {
      EXPECT_EQ(rows[i].snapshot_frames, 0u);
    } else {
      EXPECT_GT(rows[i].snapshot_frames, 0u) << "epoch " << rows[i].epoch;
    }
  }
  // Neither the death nor the move changed what the program wrote.
  EXPECT_EQ(faulted.file, never_died.file);
  EXPECT_EQ(faulted.file.size(), 4000u * 64);
}

// --- Suite specs -------------------------------------------------------------------

TEST(SuiteSpecTest, DerivationProducesSaneFootprints) {
  for (const auto& suite : {ParsecSuite(), SplashSuite(), PhoronixSuite()}) {
    for (const WorkloadSpec& spec : suite) {
      EXPECT_GE(spec.iterations, 10) << spec.name;
      EXPECT_LE(spec.CallsPerIter(), 24) << spec.name;
      EXPECT_GE(spec.compute_per_iter, 100) << spec.name;
      EXPECT_GE(spec.mem_intensity, 0.0) << spec.name;
      // Per-extra-replica slowdown fraction; syscall-saturated benchmarks
      // (network-loopback) legitimately exceed 1.0.
      EXPECT_LE(spec.mem_intensity, 2.5) << spec.name;
      EXPECT_GT(spec.paper_ghumvee, 0.5) << spec.name;
    }
  }
}

TEST(SuiteSpecTest, SuitesMatchPaperRosters) {
  EXPECT_EQ(ParsecSuite().size(), 12u);   // canneal excluded, as in the paper.
  EXPECT_EQ(SplashSuite().size(), 13u);   // cholesky excluded, as in the paper.
  EXPECT_EQ(PhoronixSuite().size(), 7u);  // + the nginx server column in the bench.
  EXPECT_EQ(SpecCpuSuite().size(), 12u);  // SPECint 2006 roster.
}

TEST(SuiteSpecTest, SuiteProgramIsDeterministicAcrossRuns) {
  WorkloadSpec spec = PhoronixSuite()[0];
  spec.iterations = 50;
  RunConfig config;
  config.mvee.mode = MveeMode::kNative;
  SuiteResult a = RunSuiteWorkload(spec, config);
  SuiteResult b = RunSuiteWorkload(spec, config);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.stats.syscalls_total, b.stats.syscalls_total);
}

// --- Suite tables under monitoring (the Figure 3/4 bench surface) ------------------

// Every spec of every tracked suite must run to completion — finished, not
// diverged, really issuing syscalls — under both the GHUMVEE-only baseline and
// ReMon, with a sane normalized time. This is the cheap structural guarantee
// behind the committed BENCH_fig{3,4}.json baselines: a spec that hangs, trips
// divergence, or goes off the rails by 100x shows up here before it poisons a
// baseline refresh.
class SuiteTableTest : public ::testing::TestWithParam<const char*> {
 protected:
  static std::vector<WorkloadSpec> SuiteByName(const std::string& name) {
    if (name == "parsec") return ParsecSuite();
    if (name == "splash") return SplashSuite();
    if (name == "phoronix") return PhoronixSuite();
    return SpecCpuSuite();
  }
};

TEST_P(SuiteTableTest, RunsToCompletionUnderGhumveeAndRemon) {
  for (WorkloadSpec spec : SuiteByName(GetParam())) {
    spec.iterations = std::min(spec.iterations, 30);  // Shape, not duration.
    RunConfig native;
    native.mvee.mode = MveeMode::kNative;
    SuiteResult base = RunSuiteWorkload(spec, native);
    ASSERT_TRUE(base.finished) << spec.name;
    ASSERT_FALSE(base.diverged) << spec.name;
    ASSERT_GT(base.seconds, 0.0) << spec.name;
    ASSERT_GT(base.stats.syscalls_total, 0u) << spec.name;

    for (MveeMode mode : {MveeMode::kGhumveeOnly, MveeMode::kRemon}) {
      RunConfig config;
      config.mvee.mode = mode;
      config.mvee.replicas = 2;
      config.mvee.level = PolicyLevel::kNonsocketRw;
      SuiteResult run = RunSuiteWorkload(spec, config);
      const char* label = mode == MveeMode::kRemon ? "remon" : "ghumvee";
      EXPECT_TRUE(run.finished) << spec.name << " " << label;
      EXPECT_FALSE(run.diverged) << spec.name << " " << label;
      EXPECT_GT(run.stats.syscalls_total, base.stats.syscalls_total)
          << spec.name << " " << label;  // Two replicas: more calls than native.
      double norm = run.seconds / base.seconds;
      // Monitoring never speeds a workload up, and even the syscall-saturated
      // outliers (network-loopback under lockstep) stay well inside 64x.
      EXPECT_GE(norm, 1.0) << spec.name << " " << label;
      EXPECT_LT(norm, 64.0) << spec.name << " " << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuites, SuiteTableTest,
                         ::testing::Values("parsec", "splash", "phoronix", "spec"));

// --- Sync suite columns (fig3/fig4 sync_local/sync_remote) -------------------------

RunConfig SyncColumnConfig() {
  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 2;
  config.mvee.level = PolicyLevel::kNonsocketRw;
  config.mvee.use_sync_agent = true;
  config.mvee.sync_log_size = kSyncLogOffEntries + 64 * kSyncLogEntrySize;
  return config;
}

// The sync columns' 64-slot log would bind before a starved link's window (a lap
// of this stream is under one window), so starved runs use a log deep enough to
// leave the window as the binding gate.
constexpr uint64_t kStarvedSyncLogSize = kSyncLogOffEntries + 4096 * kSyncLogEntrySize;

TEST(SyncSuiteTest, RemoteSyncColumnStallsOnlyWhenBandwidthBinds) {
  // Regression lock for the fig3/fig4 remote sync columns. The barrier rotation
  // emits a sync-log record and then immediately hits a liveness flush point, so
  // the stream travels as near-singleton frames; any bound that counts frames
  // rather than bytes parks the master on ack round-trips. Bounded by the link's
  // byte window, the default remote column must not stall at all and must run
  // at parity with local (the residual cost is wire bandwidth, which fmm's duty
  // cycle absorbs); only a link whose bandwidth binds may stall.
  WorkloadSpec spec;
  for (const WorkloadSpec& s : SplashSuite()) {
    if (s.name == "fmm") spec = s;
  }
  ASSERT_EQ(spec.name, "fmm");
  spec = SyncVariant(spec, /*sync_ops=*/2, /*max_iterations=*/80);

  SuiteResult local = RunSuiteWorkload(spec, SyncColumnConfig());
  ASSERT_TRUE(local.finished);
  ASSERT_FALSE(local.diverged);
  EXPECT_EQ(local.stats.sync_log_append_stalls, 0u);

  RunConfig remote = SyncColumnConfig();
  remote.placement = {1};  // What the bench columns run with.
  SuiteResult fast = RunSuiteWorkload(spec, remote);
  ASSERT_TRUE(fast.finished);
  ASSERT_FALSE(fast.diverged);
  EXPECT_EQ(fast.stats.sync_log_append_stalls, 0u);
  EXPECT_EQ(fast.stats.rb_transport_stalls, 0u);
  // Parity with the all-local placement (deterministic: margin covers only the
  // stream's residual wire time, measured at ~1% of the run).
  EXPECT_LT(fast.seconds, local.seconds * 1.10);
  // The sync stream really traveled and was fully replayed.
  EXPECT_GT(fast.stats.sync_log_frames_sent, 0u);
  EXPECT_EQ(fast.stats.sync_log_records_applied,
            fast.stats.sync_log_records_streamed);
  EXPECT_EQ(fast.stats.sync_ops_replayed, fast.stats.sync_ops_recorded);

  RunConfig starved = remote;
  starved.rb_link_bytes_per_ns = kStarvedLinkBytesPerNs;
  starved.mvee.sync_log_size = kStarvedSyncLogSize;
  SuiteResult slow = RunSuiteWorkload(spec, starved);
  ASSERT_TRUE(slow.finished);
  ASSERT_FALSE(slow.diverged);
  EXPECT_GT(slow.stats.rb_transport_stalls, 0u);
  EXPECT_GT(slow.seconds, fast.seconds);
  EXPECT_EQ(slow.stats.sync_log_records_applied,
            slow.stats.sync_log_records_streamed);
  EXPECT_EQ(slow.stats.sync_ops_replayed, slow.stats.sync_ops_recorded);
}

TEST(SyncSuiteTest, SyncVariantTranscriptsIdenticalAcrossPlacements) {
  // The per-worker acquisition transcripts (/tmp/suite-sync-<name>-t<k>) must be
  // byte-identical whether the slave replica shares the leader's machine or sits
  // behind the RB transport, on a fast link or on one whose bandwidth binds —
  // the rotation's turn gate pins the global order, and the agent replays it, so
  // placement and backpressure timing must never leak into the bytes.
  WorkloadSpec spec;
  for (const WorkloadSpec& s : ParsecSuite()) {
    if (s.name == "dedup") spec = s;
  }
  ASSERT_EQ(spec.name, "dedup");
  spec = SyncVariant(spec, /*sync_ops=*/2, /*max_iterations=*/40);

  std::vector<std::string> local_logs;
  // remote = 1: a 1 Gbit/s link; remote = 2: the starved link.
  std::vector<std::string> remote_logs[2];
  for (int remote = 0; remote <= 2; ++remote) {
    SimWorld w(7);
    RunConfig config = SyncColumnConfig();
    RemonOptions opts;
    opts.mode = config.mvee.mode;
    opts.replicas = config.mvee.replicas;
    opts.level = config.mvee.level;
    opts.use_sync_agent = true;
    opts.sync_log_size = remote == 2 ? kStarvedSyncLogSize : config.mvee.sync_log_size;
    opts.machine = w.server_machine;
    if (remote != 0) {
      uint32_t host = w.net.AddMachine("replica-host-1");
      w.net.SetLink(w.server_machine, host,
                    LinkParams{60 * kMicrosecond,
                               remote == 1 ? 0.125 : kStarvedLinkBytesPerNs});
      opts.replica_machines = {w.server_machine, host};
    }
    Remon mvee(&w.kernel, opts);
    mvee.Launch(SuiteProgram(spec), spec.name);
    w.Run();
    ASSERT_TRUE(mvee.finished()) << "remote=" << remote;
    ASSERT_FALSE(mvee.divergence_detected()) << "remote=" << remote;
    if (remote == 2) {
      EXPECT_GT(w.sim.stats().rb_transport_stalls, 0u);  // The window really bound.
    }
    for (int t = 0; t < spec.threads; ++t) {
      auto log = w.fs.ReadWholeFile("/tmp/suite-sync-" + spec.name + "-t" +
                                    std::to_string(t));
      ASSERT_TRUE(log.has_value()) << "remote=" << remote << " t" << t;
      ASSERT_FALSE(log->empty()) << "remote=" << remote << " t" << t;
      (remote != 0 ? remote_logs[remote - 1] : local_logs).push_back(*log);
    }
  }
  for (const std::vector<std::string>& logs : remote_logs) {
    ASSERT_EQ(local_logs.size(), logs.size());
    for (size_t i = 0; i < local_logs.size(); ++i) {
      EXPECT_EQ(local_logs[i], logs[i]) << "worker " << i;
    }
  }
}

// --- Sync agent (paper §2.3) -----------------------------------------------------

TEST(SyncAgentTest, MasterRecordsSlaveReplays) {
  SimWorld w(21);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.use_sync_agent = true;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([&mvee](Guest& g) -> GuestTask<void> {
    SyncAgent* agent = mvee.sync_agent(g.process()->replica_index);
    for (int i = 0; i < 5; ++i) {
      co_await agent->BeforeAcquire(g, /*object_id=*/42);
      co_await g.Compute(Micros(5));
    }
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_EQ(mvee.sync_agent(0)->ops_recorded(), 5u);
  EXPECT_EQ(mvee.sync_agent(1)->ops_replayed(), 5u);
}

TEST(SyncAgentTest, RacyWorkQueueStaysInLockstepWithAgent) {
  // Two threads race to pop work items; the item each thread gets determines its
  // syscall arguments. Without ordering this diverges across replicas; the agent
  // serializes the acquisitions identically everywhere.
  SimWorld w(22);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;  // Strictest: every call in lockstep.
  opts.replicas = 2;
  opts.use_sync_agent = true;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([&mvee](Guest& g) -> GuestTask<void> {
    SyncAgent* agent = mvee.sync_agent(g.process()->replica_index);
    GuestAddr next_item = g.Alloc(4);
    g.PokeU32(next_item, 0);
    GuestAddr join = g.Alloc(8);
    co_await g.Pipe(join);
    int join_rd = static_cast<int>(g.PeekU32(join));
    int join_wr = static_cast<int>(g.PeekU32(join + 4));

    auto worker = [agent, next_item, join_wr](int id) -> ProgramFn {
      return [agent, next_item, join_wr, id](Guest& wg) -> GuestTask<void> {
        int64_t fd = co_await wg.Open("/tmp/work-" + std::to_string(id),
                                      kO_CREAT | kO_RDWR);
        GuestAddr buf = wg.Alloc(32);
        for (int i = 0; i < 4; ++i) {
          co_await wg.Compute(Micros(10 + id * 7));  // Skewed timing.
          co_await agent->BeforeAcquire(wg, /*object_id=*/1);
          uint32_t item = wg.PeekU32(next_item);  // The racy shared pop.
          wg.PokeU32(next_item, item + 1);
          std::string line = "item" + std::to_string(item) + ";";
          wg.Poke(buf, line.data(), line.size());
          co_await wg.Write(static_cast<int>(fd), buf, line.size());
        }
        co_await wg.Close(static_cast<int>(fd));
        wg.Poke(buf, "D", 1);
        co_await wg.Write(join_wr, buf, 1);
      };
    };
    co_await g.SpawnThread(g.RegisterThreadFn(worker(0)));
    co_await g.SpawnThread(g.RegisterThreadFn(worker(1)));
    GuestAddr sink = g.Alloc(2);
    int done = 0;
    while (done < 2) {
      int64_t n = co_await g.Read(join_rd, sink, static_cast<uint64_t>(2 - done));
      REMON_CHECK(n > 0);
      done += static_cast<int>(n);
    }
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  // All 8 items popped exactly once, across both files.
  std::string all = w.fs.ReadWholeFile("/tmp/work-0").value_or("") +
                    w.fs.ReadWholeFile("/tmp/work-1").value_or("");
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(all.find("item" + std::to_string(i) + ";"), std::string::npos) << i;
  }
}

// --- Cross-cutting: getrandom must replicate -------------------------------------

TEST(WorkloadTest, GetrandomReplicatedAcrossReplicas) {
  // Random bytes are inherently divergent state: they must be monitored and the
  // master's draw copied to the slaves, or replicas drift apart.
  SimWorld w(23);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kSocketRw;
  Remon mvee(&w.kernel, opts);
  std::string seen[2];
  mvee.Launch([&seen](Guest& g) -> GuestTask<void> {
    GuestAddr buf = g.Alloc(32);
    int64_t n = co_await g.Getrandom(buf, 32);
    EXPECT_EQ(n, 32);
    seen[g.process()->replica_index] = g.PeekString(buf, 32);
    // Behavior then depends on the random bytes — identical across replicas or the
    // next call diverges.
    if (static_cast<uint8_t>(seen[g.process()->replica_index][0]) % 2 == 0) {
      co_await g.Getpid();
    } else {
      co_await g.Gettid();
    }
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_FALSE(seen[0].empty());
}

// --- Host-memory budget -------------------------------------------------------------
//
// Host RSS is noisy, but the counts behind it are exact: the SysV frames the
// guests touched, the file frames, the futex queues, the cancelled events still
// queued and every descriptor table's slots. Each must follow live simulated
// state, not run length; they are checked after every 1 ms of virtual time against
// bounds derived from the replica sets' RB state, the file sizes, the blocked
// threads and the open descriptors. A test can add its own per-slice bounds
// (threads, VMAs).

// Pages one rank of a replica set holds. A rank no replica has claimed an entry
// on holds none: nothing writes its header. A used rank holds the pages from its
// header to the furthest replica cursor of its current lap: a reset frees the
// sub-buffer's interior pages (RbView::Zero), so a rank holds only what its
// current lap wrote, and a slave waiting on an entry has claimed it, so the entry
// lies below that slave's own cursor. It also holds the partial page its
// sub-buffer shares with the next rank's header, which a reset zeroes in place.
uint64_t RankPages(const Remon& set, int rank) {
  const RbView& rb = set.ipmon(0)->rb();
  uint64_t end = rb.RankDataStart(rank);
  bool used = false;
  for (size_t i = 0; i < set.replicas().size(); ++i) {
    const IpMon* mon = set.ipmon(static_cast<int>(i));
    end = std::max(end, mon->rb_cursor(rank));
    used = used || mon->rb_seq(rank) > 0;
  }
  if (!used) {
    return 0;
  }
  uint64_t edge = rb.RankDataEnd(rank) % kPageSize != 0 ? 1 : 0;
  return (PageAlignUp(end) - PageAlignDown(rb.RankStart(rank))) / kPageSize + edge;
}

// Adds the frames the regular files under `dir` hold to *resident and the pages
// their sizes span, Σ ceil(size / 4 KiB), to *budget.
void FileFrames(const Inode& dir, uint64_t* resident, uint64_t* budget) {
  for (const auto& [name, child] : dir.children) {
    if (child->type == FdType::kDirectory) {
      FileFrames(*child, resident, budget);
    } else if (child->type == FdType::kRegular) {
      *resident += child->data.resident_pages();
      *budget += PageAlignUp(child->data.size()) / kPageSize;
    }
  }
}

class MemoryBudget {
 public:
  // A futex queue exists only while a thread is parked on it, and a blocked thread
  // waits on at most one futex word. The slack is headroom only: both budget runs
  // also hold with none.
  static constexpr size_t kQueueSlack = 2;

  // `sets` are every replica set in the world.
  MemoryBudget(SimWorld* w, std::vector<const Remon*> sets) : w_(w), sets_(std::move(sets)) {}

  // Runs the world in 1 ms slices until `done` (or 2 s of virtual time), checking
  // the budget — and `also`, if given — after each slice.
  void Run(const std::function<bool()>& done,
           const std::function<void(TimeNs)>& also = nullptr) {
    for (TimeNs t = Millis(1); !done() && t <= 2 * kSecond; t += Millis(1)) {
      w_->sim.Run(t);
      uint64_t resident_budget = 0;
      for (const Remon* set : sets_) {
        const RbView& rb = set->ipmon(0)->rb();
        if (!rb.valid()) {
          continue;
        }
        resident_budget += 1;  // The global header.
        for (int r = 0; r < rb.max_ranks(); ++r) {
          resident_budget += RankPages(*set, r);
        }
      }
      size_t blocked = 0;
      for (const auto& p : w_->kernel.processes()) {
        for (const Thread* th : p->threads) {
          blocked += th->state() == ThreadState::kBlocked ? 1 : 0;
        }
      }
      size_t queues = w_->kernel.futex().queue_count();
      ASSERT_LE(queues, blocked + kQueueSlack) << "at " << t;
      ASSERT_LE(w_->shm.resident_pages(), resident_budget) << "at " << t;
      uint64_t file_frames = 0;
      uint64_t file_pages = 0;
      FileFrames(*w_->fs.root(), &file_frames, &file_pages);
      ASSERT_LE(file_frames, file_pages) << "at " << t;
      max_file_frames_ = std::max(max_file_frames_, file_frames);
      const EventQueue& q = w_->sim.queue();
      ASSERT_LE(q.cancelled_pending(), std::max(q.live_events(), EventQueue::kCompactFloor))
          << "at " << t;
      // Descriptor tables hold slots up to their highest open fd only.
      for (const auto& p : w_->kernel.processes()) {
        std::vector<int> open = p->fds().LiveFds();
        ASSERT_EQ(p->fds().storage_slots(), open.empty() ? 0u : open.back() + 1u)
            << p->name() << " at " << t;
      }
      if (also) {
        also(t);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
      max_queues_ = std::max(max_queues_, queues);
    }
    ASSERT_TRUE(done());
  }

  // The most futex queues alive at a slice boundary.
  size_t max_queues() const { return max_queues_; }
  // The most file frames resident at a slice boundary.
  uint64_t max_file_frames() const { return max_file_frames_; }

 private:
  SimWorld* w_;
  std::vector<const Remon*> sets_;
  size_t max_queues_ = 0;
  uint64_t max_file_frames_ = 0;
};

TEST(MemoryBudgetTest, RedisReplicaSetLapsItsBufferWithinBudget) {
  SimWorld w(21);
  w.net.SetLink(w.server_machine, w.client_machine, LinkParams{60 * kMicrosecond, 0.125});
  ServerSpec server = ServerByName("redis");
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.level = PolicyLevel::kSocketRw;
  opts.rb_size = 1 << 20;  // Small enough that the run laps it several times.
  opts.mem_intensity = server.mem_intensity;
  opts.machine = w.server_machine;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(ServerProgram(server), server.name);

  ClientSpec cs;
  cs.connections = 8;
  cs.total_requests = 4000;
  cs.request_bytes = 256;
  cs.server_machine = w.server_machine;
  cs.port = server.port;
  ClientStats stats;
  bool client_done = false;
  Process* cp = w.NewProcess("client", -1, w.client_machine);
  w.kernel.SpawnThread(cp, [&cs, &stats, &client_done](Guest& g) -> GuestTask<void> {
    co_await g.SleepNs(Millis(2));
    ProgramFn body = ClientProgram(cs, &stats);
    co_await body(g);
    client_done = true;
  });

  MemoryBudget check(&w, {&mvee});
  check.Run([&client_done] { return client_done; });
  EXPECT_EQ(stats.completed, cs.total_requests);
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_GE(w.sim.stats().rb_resets, 5u);
  // The queue bound was exercised: slaves were parked at slice boundaries.
  EXPECT_GT(check.max_queues(), 0u);
  // So was the file bound: the workers append to their access logs.
  EXPECT_GT(check.max_file_frames(), 0u);
}

TEST(MemoryBudgetTest, FourShardNginxFleetStaysWithinBudget) {
  SimWorld w(22);
  ServerSpec server = ServerByName("nginx");
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.level = PolicyLevel::kSocketRw;
  opts.mem_intensity = server.mem_intensity;
  opts.file_map_pages = 4;
  FleetTierSpec tier;
  tier.name = server.name;
  tier.port = 9000;
  tier.initial_shards = tier.min_shards = tier.max_shards = 4;
  tier.policy = LoadBalancer::Policy::kConsistentHash;
  ShardBodyFn body = [server](const ShardContext& ctx) {
    ServerSpec s = server;
    s.name = ctx.name;
    s.port = ctx.listen_port;
    return ServerProgram(s);
  };
  FleetManager fleet(&w.kernel, opts, {tier}, std::move(body));
  fleet.Start();

  constexpr int kClients = 2;
  std::vector<SwarmSpec> specs(kClients);
  std::vector<SwarmStats> swarm_stats(kClients);
  std::vector<Process*> swarm_procs;
  int swarms_left = kClients;
  LayoutPlanner planner(&w.sim.rng());
  for (int i = 0; i < kClients; ++i) {
    SwarmSpec& ss = specs[static_cast<size_t>(i)];
    ss.connections = 1500;
    ss.arrival_rate = 10000;
    ss.request_bytes = 512;
    ss.server_machine = fleet.vip(0).machine;
    ss.port = fleet.vip(0).port;
    ss.seed = 5 + static_cast<uint64_t>(i) * 7919;
    uint32_t machine = w.net.AddMachine("swarm-c" + std::to_string(i));
    Process* proc = w.kernel.CreateProcess("swarm-" + std::to_string(i), machine,
                                           planner.PlanFor(8));
    SwarmStats* st = &swarm_stats[static_cast<size_t>(i)];
    auto on_done = [&swarms_left, &fleet] {
      if (--swarms_left == 0) {
        fleet.StopAutoscale();
      }
    };
    w.kernel.SpawnThread(proc, [&ss, st, on_done](Guest& g) -> GuestTask<void> {
      co_await g.SleepNs(Millis(2));
      ProgramFn prog = SwarmProgram(ss, st, on_done);
      co_await prog(g);
    });
    swarm_procs.push_back(proc);
  }
  // A swarm process maps text, heap and its generator's stack; each connection
  // thread adds a stack.
  const size_t base_vmas = swarm_procs[0]->mem().Vmas().size();

  std::vector<const Remon*> sets;
  for (int s = 0; s < fleet.shard_count(0); ++s) {
    sets.push_back(fleet.shard(0, s));
  }
  MemoryBudget check(&w, sets);
  // The server threads are a fixed pool, started before the first arrival (2 ms).
  size_t server_threads = 0;
  check.Run([&swarms_left] { return swarms_left == 0; },
            [&](TimeNs t) {
              if (t == Millis(1)) {
                server_threads = w.kernel.thread_count() - swarm_procs.size();
              }
              // A connection counts as done just before its last two calls (close,
              // then the join write), so a few finished ones may still be running.
              constexpr size_t kClosing = 4;
              size_t in_flight = 0;
              for (int i = 0; i < kClients; ++i) {
                const SwarmStats& st = swarm_stats[static_cast<size_t>(i)];
                size_t open = static_cast<size_t>(st.arrived - st.completed - st.errors);
                in_flight += open;
                Process* proc = swarm_procs[static_cast<size_t>(i)];
                ASSERT_LE(proc->threads.size(), 1 + open + kClosing) << "at " << t;
                ASSERT_LE(proc->mem().Vmas().size(), base_vmas + open + kClosing)
                    << "at " << t;
              }
              ASSERT_LE(w.kernel.thread_count(),
                        server_threads + swarm_procs.size() + in_flight + kClients * kClosing)
                  << "at " << t;
            });
  int completed = 0;
  for (const SwarmStats& st : swarm_stats) {
    completed += st.completed;
  }
  EXPECT_EQ(completed, kClients * 1500);
  EXPECT_FALSE(fleet.divergence_detected());
}

// --- Benign-run checks --------------------------------------------------------

TEST(BenchMainTest, FailedBenignRunFailsTheBench) {
  char name[] = "bench";
  char* argv[] = {name};
  SuiteResult ok;
  ok.finished = true;
  BenchMain clean("t", 1, argv);
  EXPECT_TRUE(clean.CheckRun("suite/spec/col", ok));
  EXPECT_EQ(clean.Finish(), 0);

  SuiteResult diverged = ok;
  diverged.diverged = true;
  SuiteResult stuck;
  for (const SuiteResult* bad : {&diverged, &stuck}) {
    BenchMain bench("t", 1, argv);
    EXPECT_FALSE(bench.CheckRun("suite/spec/col", *bad));
    EXPECT_NE(bench.Finish(), 0);
  }
}

// The loopback echo service binds and connects kInaddrLoopback, the same bytes in
// every replica, so a replica on another machine passes GHUMVEE's bind/connect
// signature compare.
TEST(SyncSuiteTest, LoopbackEchoRunsWithARemoteReplica) {
  WorkloadSpec spec;
  for (const WorkloadSpec& s : PhoronixSuite()) {
    if (s.name == "unpack-linux") {
      spec = SyncVariant(s, 2, 80);
    }
  }
  ASSERT_GT(spec.sock_echoes, 0);
  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 2;
  config.mvee.level = PolicyLevel::kNonsocketRw;
  config.mvee.use_sync_agent = true;
  config.placement = {1};
  SuiteResult run = RunSuiteWorkload(spec, config);
  EXPECT_TRUE(run.finished);
  EXPECT_FALSE(run.diverged);
}

}  // namespace
}  // namespace remon
