// Benchmark runner: builds a fresh simulated world per measurement, runs a workload
// under a given MVEE configuration, and reports durations/statistics.
//
// Every run is hermetic (own Simulator/filesystem/network/kernel seeded identically),
// so normalized overheads compare like with like — the virtual-time analog of the
// paper pinning frequencies and disabling hyper-threading "to maximize
// reproducibility of our measurements".

#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <map>
#include <string>

#include "src/core/fleet.h"
#include "src/core/remon.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/workloads/clients.h"
#include "src/workloads/servers.h"
#include "src/workloads/suites.h"

namespace remon {

struct RunConfig {
  MveeMode mode = MveeMode::kNative;
  int replicas = 2;
  PolicyLevel level = PolicyLevel::kSocketRw;
  TemporalPolicy temporal;
  uint64_t seed = 1;
  CostModel costs = CostModel::Default();
  uint64_t rb_size = 16 * 1024 * 1024;
  IpmonWaitMode wait_mode = IpmonWaitMode::kAuto;
  int rb_batch_max = 0;  // Batched RB publication (0 = per-entry wakeups).
  // Fixed window vs. waiter-pressure-driven adaptive window (ceiling rb_batch_max,
  // default 16 when adaptive is chosen with rb_batch_max == 0).
  RbBatchPolicy rb_batch_policy = RbBatchPolicy::kFixed;
  // Cross-machine replica placement: placement[k] names the replica host of
  // replica k+1 (replica 0, the leader, is always local). 0 = leader machine;
  // m > 0 = the m-th dedicated replica-host machine, created on demand and linked
  // to the leader with the rb_link_* parameters below. Empty = all local (SHM).
  std::vector<int> placement;
  // Leader <-> replica-host link (the RB transport rides on it).
  DurationNs rb_link_latency = 60 * kMicrosecond;
  double rb_link_bytes_per_ns = 0.125;  // 1 Gbit/s.
  // Transport in-flight frame budget (RemonOptions::rb_max_inflight_frames).
  // Barrier/lock-dominated compute flushes tiny frames at every liveness point,
  // so the shallow default throttles a remote placement to the ack round-trip;
  // the compute-suite benches raise it (and let the sync-log wrap gate, sized
  // by sync_log_size, provide the replay-lag bound instead).
  int rb_max_inflight_frames = 8;
  // Replica re-seed: checkpoint the leader and attach a replacement when a remote
  // replica's link dies, instead of reporting divergence (RemonOptions::
  // respawn_dead_replicas).
  bool respawn_dead_replicas = false;
  // Healthy-interval refund rate for the respawn budget (RemonOptions::
  // respawn_budget_decay): fault-injection loops that kill faster than the
  // default 10 ms refund would otherwise exhaust the cap after 3 deaths.
  DurationNs respawn_budget_decay = 10 * kMillisecond;
  // How replacement checkpoints are cut: kDelta resumes from the dead replica's
  // acked horizon (O(delta)); kFull re-ships the whole leader state (the
  // ablation baseline). --reseed=delta|full.
  ReseedMode reseed_mode = ReseedMode::kDelta;
  // Respawn-as-migration: 0 respawns replacements in place; m > 0 places them on
  // the m-th dedicated replica-host machine (created and linked on demand, same
  // namespace as `placement` entries). --respawn-target=M.
  int respawn_target = 0;
  // Fault injection: at this virtual time, tear down the highest-index remote
  // replica's sync agent (the remote-machine-death experiment). 0 disables.
  TimeNs kill_remote_replica_at = 0;
  // With respawn enabled, repeat the kill at this interval after the first one
  // (each respawned replacement dies in turn) until the workload finishes — the
  // replicas exit, or for a server bench the client does — so the re-seed
  // benches average snapshot bytes over several recovery episodes instead of
  // sampling one backlog instant. 0 kills once. Note the last armed
  // kill can fire up to one interval past workload completion, so wall-clock
  // comparisons should come from runs without a kill loop.
  DurationNs kill_remote_replica_every = 0;
  // Record/replay agent for multi-threaded workloads (paper §2.3): thread-pool
  // servers wrap their racy accept-side bookkeeping in BeforeAcquire when set.
  // With a cross-machine placement the master's log streams as kSyncLog frames.
  bool use_sync_agent = false;
  // Sync-agent log segment size (wraps circularly when exceeded).
  uint64_t sync_log_size = 1024 * 1024;
  // Authenticated RB transport (wire v4): per-frame MAC + stream encryption on
  // every cross-machine frame, attested join before re-seed. No effect on
  // all-local placements.
  bool rb_auth = false;
  // FD metadata map pages per replica set (RemonOptions::file_map_pages).
  // Swarm-scale server runs outgrow the classic single 4096-FD page.
  int file_map_pages = 1;
};

struct SuiteResult {
  std::string name;
  double seconds = 0;  // Virtual wall-clock of the run.
  bool diverged = false;
  bool finished = false;
  SimStats stats;
};

// Runs one suite workload to completion under `config`.
SuiteResult RunSuiteWorkload(const WorkloadSpec& spec, const RunConfig& config);

// Normalized execution time: duration under `config` / duration native (same seed).
double NormalizedSuiteTime(const WorkloadSpec& spec, const RunConfig& config);

struct ServerResult {
  std::string name;
  double seconds = 0;       // Client-observed run time.
  int requests = 0;
  uint64_t bytes_received = 0;  // Client-observed response transcript size.
  double throughput = 0;    // Requests per virtual second.
  double mean_latency_us = 0;
  bool diverged = false;
  SimStats stats;
};

// Runs a server under `config` with a closed-loop client over a link with the given
// parameters (the netem analog).
ServerResult RunServerBench(const ServerSpec& server, const ClientSpec& client,
                            const RunConfig& config, LinkParams link);

// Normalized runtime of the server benchmark (client completion time vs native).
double NormalizedServerTime(const ServerSpec& server, const ClientSpec& client,
                            const RunConfig& config, LinkParams link);

// --- Scale-out fleets ----------------------------------------------------------------

// One tier of the fleet: a server template stamped out per shard (the fleet
// overrides name/port/upstream per shard) plus the tier's scaling bounds.
struct ScaleoutTierSpec {
  std::string name;        // "fe", "cache", "be", ... (shards become "<name>-s<i>").
  ServerSpec server;       // Template; name, port, upstream_* are overridden.
  uint16_t port = 80;      // Tier VIP port == every shard's listen port.
  int initial_shards = 1;
  int min_shards = 1;
  int max_shards = 8;
  // Fraction of requests served without consulting the next tier (ignored for
  // the last tier, which has no upstream).
  double hit_ratio = 0.0;
  uint64_t upstream_bytes = 512;  // Sub-request size sent to the next tier.
  LoadBalancer::Policy policy = LoadBalancer::Policy::kConsistentHash;
  // Cross-machine shards (FleetTierSpec::remote_replicas): each non-leader
  // replica on its own machine behind the RB transport — the layout a
  // mid-run rebalance migrates.
  bool remote_replicas = false;
};

struct ScaleoutSpec {
  std::vector<ScaleoutTierSpec> tiers;  // Front first; requests chain rightward.
  // The open-loop swarm aimed at tier 0's VIP (server_machine/port are filled by
  // the runner; connections/seed are split across client processes).
  SwarmSpec swarm;
  int client_processes = 4;  // Swarm split across this many client machines.
  AutoscaleConfig autoscale;
  // When set, per-shard access-log transcripts are read back into
  // ScaleoutResult::transcripts after the run (determinism tests).
  bool collect_transcripts = false;
  // Mid-run rebalance: at this virtual time, drain-and-migrate every remote
  // replica of every shard launched so far onto fresh machines, one replica at a
  // time per shard (FleetManager::RebalanceShard). 0 disables; only
  // remote_replicas tiers have anything to move.
  TimeNs rebalance_at = 0;
  DurationNs rebalance_stagger = 500 * kMicrosecond;
};

struct ScaleoutResult {
  double seconds = 0;       // Swarm-observed run time.
  int arrived = 0;
  int completed = 0;        // Connections that finished cleanly.
  int requests = 0;
  int errors = 0;
  int stalled = 0;
  uint64_t bytes_received = 0;
  double throughput = 0;    // Completed connections per virtual second.
  double p50_ms = 0;        // Connection-latency percentiles (arrival to close).
  double p99_ms = 0;
  bool diverged = false;
  bool finished = false;
  uint64_t shards_spawned = 0;  // By autoscale (beyond the initial topology).
  uint64_t shards_retired = 0;
  uint64_t total_launched = 0;
  std::vector<int> final_in_rotation;       // Per tier.
  std::vector<int> shard_counts;            // Per tier, ever launched.
  std::vector<uint64_t> route_digests;      // Per tier (LoadBalancer::route_digest).
  std::vector<std::vector<uint64_t>> routed;  // Per tier, per shard (0 if retired).
  std::map<std::string, std::string> transcripts;  // Path -> bytes (opt-in).
  SimStats stats;
};

// Runs an open-loop swarm against a multi-tier fleet under `config`.
ScaleoutResult RunScaleout(const ScaleoutSpec& spec, const RunConfig& config);

}  // namespace remon

#endif  // SRC_HARNESS_RUNNER_H_
