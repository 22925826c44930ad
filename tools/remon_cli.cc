// remon_cli: command-line driver for the library.
//
// Runs one workload (a suite benchmark by name, a server benchmark driven by a
// closed-loop client, or — with --shards/--tiers — a multi-tier fleet under an
// open-loop swarm) under the chosen MVEE configuration and prints a run report.
// The flags come from one table (src/harness/cli.h); `remon_cli --help` prints
// them, and docs/CLI.md is the full reference with copy-pasteable examples.

#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/runner.h"

namespace remon {
namespace {

void ListWorkloads() {
  std::printf("suite workloads (use --workload=NAME):\n");
  for (const auto& suite : {ParsecSuite(), SplashSuite(), PhoronixSuite(), SpecCpuSuite()}) {
    for (const WorkloadSpec& spec : suite) {
      std::printf("  %-18s (%s)\n", spec.name.c_str(), spec.suite.c_str());
    }
  }
  std::printf("servers (use --server=NAME):\n");
  for (const ServerSpec& s : PaperServers()) {
    std::printf("  %-18s (workers=%d)\n", s.name.c_str(), s.workers);
  }
}

void PrintStats(const SimStats& stats) {
  std::printf("  syscalls: total=%llu monitored=%llu unmonitored=%llu\n",
              static_cast<unsigned long long>(stats.syscalls_total),
              static_cast<unsigned long long>(stats.syscalls_monitored),
              static_cast<unsigned long long>(stats.syscalls_unmonitored));
  // resident= is the SysV frames (the RB, the sync-agent log) held at the end of
  // the run: a reset frees its sub-buffer's interior pages.
  std::printf("  ptrace stops=%llu | tokens issued=%llu revoked=%llu | rb entries=%llu "
              "resets=%llu resident=%lluKiB migrations=%llu\n",
              static_cast<unsigned long long>(stats.ptrace_stops),
              static_cast<unsigned long long>(stats.tokens_issued),
              static_cast<unsigned long long>(stats.tokens_revoked),
              static_cast<unsigned long long>(stats.rb_entries),
              static_cast<unsigned long long>(stats.rb_resets),
              static_cast<unsigned long long>(stats.shm_resident_pages * kPageSize / 1024),
              static_cast<unsigned long long>(stats.rb_migrations));
  if (stats.syscalls_monitored > 0) {
    // A stop that finds its monitor lane idle pays a waitpid wakeup; one queued
    // behind a busy lane does not.
    std::printf("  lockstep rounds=%llu | ptrace wakeups=%llu (%.2f per round)\n",
                static_cast<unsigned long long>(stats.syscalls_monitored),
                static_cast<unsigned long long>(stats.ptrace_wakeups),
                static_cast<double>(stats.ptrace_wakeups) /
                    static_cast<double>(stats.syscalls_monitored));
  }
  if (stats.rb_frames_sent > 0) {
    // Cumulative over the whole run: epoch bumps (remote deaths) never reset the
    // transport counters — the per-epoch breakdown below attributes them.
    std::printf("  rb transport: frames=%llu bytes=%llu acked=%llu applied=%llu "
                "stalls=%llu deaths=%llu\n",
                static_cast<unsigned long long>(stats.rb_frames_sent),
                static_cast<unsigned long long>(stats.rb_frame_bytes_sent),
                static_cast<unsigned long long>(stats.rb_frames_acked),
                static_cast<unsigned long long>(stats.rb_frames_applied),
                static_cast<unsigned long long>(stats.rb_transport_stalls),
                static_cast<unsigned long long>(stats.rb_remote_deaths));
    if (stats.rb_epochs.size() > 1 || stats.rb_remote_deaths > 0) {
      std::printf("  rb epochs:");
      for (const RbEpochStats& row : stats.rb_epochs) {
        std::printf(" [e%u sent=%llu acked=%llu applied=%llu snap=%llu deaths=%llu "
                    "joins=%llu]",
                    row.epoch, static_cast<unsigned long long>(row.frames_sent),
                    static_cast<unsigned long long>(row.frames_acked),
                    static_cast<unsigned long long>(row.frames_applied),
                    static_cast<unsigned long long>(row.snapshot_frames),
                    static_cast<unsigned long long>(row.deaths),
                    static_cast<unsigned long long>(row.joins));
      }
      std::printf("\n");
    }
  }
  if (stats.sync_ops_recorded > 0) {
    std::printf("  sync agent: recorded=%llu replayed=%llu wrap-stalls=%llu",
                static_cast<unsigned long long>(stats.sync_ops_recorded),
                static_cast<unsigned long long>(stats.sync_ops_replayed),
                static_cast<unsigned long long>(stats.sync_log_wrap_stalls));
    if (stats.sync_log_frames_sent > 0) {
      std::printf(" | log stream: frames=%llu records=%llu applied=%llu/%llu",
                  static_cast<unsigned long long>(stats.sync_log_frames_sent),
                  static_cast<unsigned long long>(stats.sync_log_records_streamed),
                  static_cast<unsigned long long>(stats.sync_log_frames_applied),
                  static_cast<unsigned long long>(stats.sync_log_records_applied));
    }
    std::printf("\n");
  }
  if (stats.rb_auth_frames_sealed > 0 || stats.rb_auth_frames_rejected > 0) {
    std::printf("  rb auth: sealed=%llu rejected=%llu epoch-regressions=%llu "
                "joins=%llu join-rejects=%llu\n",
                static_cast<unsigned long long>(stats.rb_auth_frames_sealed),
                static_cast<unsigned long long>(stats.rb_auth_frames_rejected),
                static_cast<unsigned long long>(stats.rb_epoch_regressions),
                static_cast<unsigned long long>(stats.rb_auth_joins),
                static_cast<unsigned long long>(stats.rb_auth_join_rejects));
  }
  if (stats.rb_replica_respawns > 0) {
    std::printf("  rb re-seed: respawns=%llu joins=%llu snapshot-frames=%llu "
                "snapshot-KiB=%llu entries-restored=%llu rejects=%llu\n",
                static_cast<unsigned long long>(stats.rb_replica_respawns),
                static_cast<unsigned long long>(stats.rb_replica_joins),
                static_cast<unsigned long long>(stats.rb_snapshot_frames_sent),
                static_cast<unsigned long long>(stats.rb_snapshot_bytes_sent / 1024),
                static_cast<unsigned long long>(stats.rb_snapshot_entries_restored),
                static_cast<unsigned long long>(stats.rb_snapshot_rejects));
  }
  if (stats.rb_snapshot_delta_captures > 0 || stats.rb_snapshot_full_fallbacks > 0 ||
      stats.rb_replica_migrations > 0) {
    std::printf("  rb re-seed mode: delta-captures=%llu full-fallbacks=%llu "
                "migrations=%llu\n",
                static_cast<unsigned long long>(stats.rb_snapshot_delta_captures),
                static_cast<unsigned long long>(stats.rb_snapshot_full_fallbacks),
                static_cast<unsigned long long>(stats.rb_replica_migrations));
  }
}

int Run(const CliRun& cli) {
  RunConfig config = cli.config;
  const RemonOptions& mvee = cli.config.mvee;

  if (cli.fleet()) {
    // Fleet run: N replica-set shards (per tier) behind a load balancer, driven
    // by an open-loop Poisson swarm instead of the closed-loop client.
    config.mvee.file_map_pages = cli.fd_map_pages;
    ScaleoutSpec spec;
    std::vector<std::pair<std::string, int>> tiers = cli.tiers;
    if (tiers.empty()) {
      tiers.emplace_back(cli.server.empty() ? "nginx" : cli.server, cli.shards);
    }
    for (size_t t = 0; t < tiers.size(); ++t) {
      ScaleoutTierSpec tier;
      tier.server = ServerByName(tiers[t].first);
      tier.fleet.name = "t" + std::to_string(t) + "-" + tier.server.name;
      tier.fleet.port = static_cast<uint16_t>(9000 + t);
      tier.fleet.initial_shards = tiers[t].second;
      tier.fleet.min_shards = tiers[t].second;
      tier.fleet.max_shards = cli.autoscale ? tiers[t].second + 4 : tiers[t].second;
      tier.hit_ratio = 0.75;  // Non-front tiers: 1 miss in 4 goes upstream.
      if (t > 0) {
        // Internal tiers serve a handful of persistent upstream connections,
        // not a swarm: round-robin spreads them where a hash would skew.
        tier.fleet.policy = LoadBalancer::Policy::kRoundRobin;
      }
      spec.tiers.push_back(tier);
    }
    spec.swarm.connections = cli.clients;
    spec.swarm.arrival_rate = cli.arrival_rate;
    spec.autoscale.enabled = cli.autoscale;
    ScaleoutResult run = RunScaleout(spec, config);
    std::printf("fleet under %s (%d replicas, %s): %d clients at %.0f conn/s\n",
                std::string(MveeModeName(mvee.mode)).c_str(), mvee.replicas,
                std::string(PolicyLevelName(mvee.level)).c_str(), cli.clients,
                cli.arrival_rate);
    for (size_t t = 0; t < spec.tiers.size(); ++t) {
      std::printf("  tier %s: shards=%d in-rotation=%d port=%u\n",
                  spec.tiers[t].fleet.name.c_str(), run.shard_counts[t],
                  run.final_in_rotation[t], spec.tiers[t].fleet.port);
    }
    std::printf("  arrived=%d completed=%d errors=%d stalled=%d\n",
                run.arrived, run.completed, run.errors, run.stalled);
    std::printf("  throughput: %.0f conn/s | p50 %.3f ms | p99 %.3f ms\n",
                run.throughput, run.p50_ms, run.p99_ms);
    if (cli.autoscale) {
      std::printf("  autoscale: spawned=%llu retired=%llu launched=%llu\n",
                  static_cast<unsigned long long>(run.shards_spawned),
                  static_cast<unsigned long long>(run.shards_retired),
                  static_cast<unsigned long long>(run.total_launched));
    }
    if (run.diverged) {
      std::printf("  [DIVERGED]\n");
    }
    PrintStats(run.stats);
    return run.diverged ? 2 : (run.finished ? 0 : 3);
  }

  RunConfig native = config;
  native.mvee.mode = MveeMode::kNative;
  if (!cli.server.empty()) {
    ServerSpec server = ServerByName(cli.server);
    ClientSpec client;
    client.connections = cli.connections;
    client.total_requests = cli.requests;
    LinkParams link{cli.latency_us * kMicrosecond, 0.125};
    ServerResult base = RunServerBench(server, client, native, link);
    ServerResult run = RunServerBench(server, client, config, link);
    std::printf("server %s under %s (%d replicas, %s, %d us link):\n",
                server.name.c_str(), std::string(MveeModeName(mvee.mode)).c_str(),
                mvee.replicas, std::string(PolicyLevelName(mvee.level)).c_str(),
                cli.latency_us);
    std::printf("  native: %d requests, %.0f req/s, %.0f us mean latency\n",
                base.requests, base.throughput, base.mean_latency_us);
    std::printf("  mvee:   %d requests, %.0f req/s, %.0f us mean latency%s\n",
                run.requests, run.throughput, run.mean_latency_us,
                run.diverged ? "  [DIVERGED]" : "");
    if (base.seconds > 0 && run.seconds > 0) {
      std::printf("  normalized runtime: %.2f\n", run.seconds / base.seconds);
    }
    PrintStats(run.stats);
    // A client that stopped short of its native twin means the replica set
    // stopped serving without reporting a divergence: a lost wakeup, not a pass.
    return run.diverged ? 2 : (run.requests == base.requests ? 0 : 3);
  }

  // The flag table only accepts known workload names.
  WorkloadSpec spec = *FindSuiteWorkload(cli.workload);
  SuiteResult base = RunSuiteWorkload(spec, native);
  SuiteResult run = RunSuiteWorkload(spec, config);
  std::printf("workload %s under %s (%d replicas, %s):\n", spec.name.c_str(),
              std::string(MveeModeName(mvee.mode)).c_str(), mvee.replicas,
              std::string(PolicyLevelName(mvee.level)).c_str());
  std::printf("  native: %.2f ms | mvee: %.2f ms | normalized: %.2f%s\n",
              base.seconds * 1e3, run.seconds * 1e3,
              base.seconds > 0 ? run.seconds / base.seconds : 0,
              run.diverged ? "  [DIVERGED]" : "");
  PrintStats(run.stats);
  return run.diverged ? 2 : (run.finished ? 0 : 3);
}

}  // namespace
}  // namespace remon

int main(int argc, char** argv) {
  remon::CliRun cli;
  std::string error;
  if (!remon::ParseCliArgs(argc, argv, &cli, &error)) {
    std::fprintf(stderr, "remon_cli: %s\n%s", error.c_str(), remon::CliUsage().c_str());
    return 1;
  }
  if (cli.help) {
    std::fputs(remon::CliUsage().c_str(), stdout);
    return 0;
  }
  if (cli.list) {
    remon::ListWorkloads();
    return 0;
  }
  return remon::Run(cli);
}
