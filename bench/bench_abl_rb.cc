// Ablation: replication buffer size (paper §3.2 uses 16 MiB; §4 relies on its 24 bits
// of address entropy). A smaller RB forces more GHUMVEE-arbitrated resets, each a
// full lockstep round trip — this sweep quantifies that trade. The next two rows
// price the paper's per-entry publication (PRECALL args, then POSTCALL results,
// each with its own wake) on a small-call-heavy workload and on a multi-rank
// server.

#include <cstdio>

#include "src/harness/bench_json.h"
#include "src/harness/runner.h"
#include "src/harness/table.h"

namespace remon {
namespace {

void RunSmallCallRow(BenchJson* json) {
  std::printf("\n== Ablation: per-entry RB publication, small-call workload ==\n");
  // Small-call-heavy workload: many tiny writes, each an IP-MON master call whose
  // result payload is a few bytes.
  WorkloadSpec spec;
  spec.name = "rb-entry";  // Its length sets path lengths, and so entry sizes.
  spec.suite = "ablation";
  spec.threads = 1;
  spec.iterations = 8000;
  spec.compute_per_iter = Micros(2);
  spec.file_writes = 8;
  spec.io_size = 256;

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  SuiteResult base = RunSuiteWorkload(spec, native);

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 2;
  config.mvee.level = PolicyLevel::kNonsocketRw;
  SuiteResult run = RunSuiteWorkload(spec, config);
  Table table({"normalized time", "RB entries", "wakes elided"});
  table.AddRow({Table::Num(run.seconds / base.seconds),
                Table::Num(static_cast<double>(run.stats.rb_entries), 0),
                Table::Num(static_cast<double>(run.stats.rb_futex_wakes_elided), 0)});
  if (base.seconds > 0) {
    json->Add("small_calls/normalized_time", run.seconds / base.seconds, "x");
  }
  table.Print();
}

void RunServerRow(BenchJson* json) {
  std::printf("\n== Ablation: per-entry RB publication, multi-rank server ==\n");
  // Four epoll event-loop workers (nginx analog) with chatty per-request logging:
  // every rank produces its own stream of small unmonitored writes. The client
  // keeps all workers busy.
  ServerSpec server = ServerByName("nginx");
  server.log_writes = 6;
  ClientSpec client;
  client.connections = 32;
  client.total_requests = 600;
  client.request_bytes = 512;
  LinkParams link{Millis(1), 0.125};

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  ServerResult base = RunServerBench(server, client, native, link);

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 3;
  config.mvee.level = PolicyLevel::kSocketRw;
  ServerResult run = RunServerBench(server, client, config, link);
  Table table({"normalized time", "RB entries", "wakes elided"});
  table.AddRow({Table::Num(base.seconds > 0 ? run.seconds / base.seconds : -1),
                Table::Num(static_cast<double>(run.stats.rb_entries), 0),
                Table::Num(static_cast<double>(run.stats.rb_futex_wakes_elided), 0)});
  if (base.seconds > 0) {
    json->Add("server/normalized_time", run.seconds / base.seconds, "x");
  }
  table.Print();
}

void RunRemoteLinkSweep(BenchJson* json) {
  std::printf("\n== Ablation: cross-machine replica set, RB-link latency sweep ==\n");
  // A 3-rank replica set with one remote rank (--placement=machine:1): the RB
  // stream to the remote slave rides the simulated network as RbWireCodec frames,
  // one per publication — the args-ready record, then a results-only record.
  ServerSpec server = ServerByName("nginx");
  server.log_writes = 4;
  ClientSpec client;
  client.connections = 16;
  client.total_requests = 300;
  client.request_bytes = 512;
  LinkParams client_link{Millis(1), 0.125};

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  ServerResult base = RunServerBench(server, client, native, client_link);

  Table table({"link latency", "normalized time", "frames", "frame KiB", "stalls"});
  for (int latency_us : {0, 50, 500}) {
    RunConfig config;
    config.mvee.mode = MveeMode::kRemon;
    config.mvee.replicas = 3;
    config.mvee.level = PolicyLevel::kSocketRw;
    config.placement = {1};
    config.rb_link_latency = static_cast<DurationNs>(latency_us) * kMicrosecond;
    ServerResult run = RunServerBench(server, client, config, client_link);
    char label[32];
    std::snprintf(label, sizeof(label), "%d us", latency_us);
    table.AddRow(
        {label,
         Table::Num(base.seconds > 0 && !run.diverged ? run.seconds / base.seconds : -1),
         Table::Num(static_cast<double>(run.stats.rb_frames_sent), 0),
         Table::Num(static_cast<double>(run.stats.rb_frame_bytes_sent) / 1024.0, 0),
         Table::Num(static_cast<double>(run.stats.rb_transport_stalls), 0)});
    if (base.seconds > 0 && !run.diverged) {
      json->Add("link/" + std::to_string(latency_us) + "us/normalized_time",
                run.seconds / base.seconds, "x");
    }
  }
  table.Print();
  std::printf(
      "\nEach entry crosses the link as two frames, and each signature byte once.\n"
      "Reproduce one point with:\n"
      "  remon_cli --server=nginx --replicas=3 --placement=machine:1 \\\n"
      "            --rb-link-latency-us=500\n");
}

void RunReseedSweep(BenchJson* json) {
  std::printf("\n== Ablation: replica re-seed cost (kill + checkpoint rejoin) ==\n");
  // One remote replica's link dies at 2 ms and a replacement is checkpoint-seeded
  // back into the set: the sweep prices the recovery against the same run with no
  // fault — the overhead is the snapshot transfer plus the stall while the peers
  // wait at their next monitored barrier.
  ServerSpec server = ServerByName("nginx");
  server.log_writes = 4;
  ClientSpec client;
  client.connections = 16;
  client.total_requests = 300;
  client.request_bytes = 512;
  LinkParams client_link{Millis(1), 0.125};

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  ServerResult base = RunServerBench(server, client, native, client_link);

  RunConfig config;
  config.mvee.mode = MveeMode::kRemon;
  config.mvee.replicas = 3;
  config.mvee.level = PolicyLevel::kSocketRw;
  config.placement = {1};
  config.rb_link_latency = 50 * kMicrosecond;

  Table table({"scenario", "normalized time", "deaths", "joins", "snapshot KiB"});
  for (bool fault : {false, true}) {
    RunConfig point = config;
    if (fault) {
      point.mvee.respawn_dead_replicas = true;
      point.kill_remote_replica_at = Millis(2);
    }
    ServerResult run = RunServerBench(server, client, point, client_link);
    double norm = base.seconds > 0 && !run.diverged ? run.seconds / base.seconds : -1;
    table.AddRow({fault ? "kill @2ms + re-seed" : "uninterrupted", Table::Num(norm),
                  Table::Num(static_cast<double>(run.stats.rb_remote_deaths), 0),
                  Table::Num(static_cast<double>(run.stats.rb_replica_joins), 0),
                  Table::Num(
                      static_cast<double>(run.stats.rb_snapshot_bytes_sent) / 1024.0, 0)});
    if (norm > 0) {
      json->Add(fault ? "reseed/kill_rejoin/normalized_time"
                      : "reseed/uninterrupted/normalized_time",
                norm, "x");
    }
  }
  table.Print();
  std::printf(
      "\nRe-seed is the recovery story of the cross-machine layer: the leader\n"
      "checkpoints its RB and the replacement joins at\n"
      "the post-bump epoch (docs/RB_WIRE_FORMAT.md). Reproduce with:\n"
      "  remon_cli --server=nginx --replicas=3 --placement=machine:1 \\\n"
      "            --respawn-on-death --kill-replica-at-ms=2\n");
}

void RunReseedDeltaSweep(BenchJson* json) {
  std::printf("\n== Ablation: O(delta) vs full re-seed bytes across RB sizes ==\n");
  // The recovery scale cliff: a full checkpoint ships every live RB entry, so
  // re-seed bytes grow linearly with --rb-size even when the replacement only
  // missed a few milliseconds of entries. A checkpoint cut against the ack-
  // latched basis (max acked entry offset per rank) ships only entries past
  // it plus dirty file-map pages and the un-replayed sync-log slice — the bytes
  // track the outage window, not the buffer size.
  // The write-heavy suite workload pushes ~128 MiB through the RB, so at every
  // size in the sweep the buffer is fully touched by kill time — a full checkpoint
  // must ship the whole RB, while the delta only covers the outage window.
  WorkloadSpec spec;
  spec.name = "rb-reseed-delta";
  spec.suite = "ablation";
  spec.threads = 1;
  spec.iterations = 9000;
  spec.compute_per_iter = Micros(30);
  spec.file_writes = 1;
  spec.io_size = 256;

  Table table({"RB size", "mode", "KiB/re-seed", "delta caps", "full fallbacks",
               "joins"});
  for (uint64_t kb : {256, 1024, 4096, 16384}) {
    for (ReseedMode mode : {ReseedMode::kDelta, ReseedMode::kFull}) {
      RunConfig config;
      config.mvee.mode = MveeMode::kRemon;
      config.mvee.replicas = 2;
      config.mvee.level = PolicyLevel::kNonsocketRw;
      config.placement = {1};
      config.rb_link_latency = 50 * kMicrosecond;
      config.mvee.rb_size = kb * 1024;
      config.mvee.reseed_mode = mode;
      config.mvee.respawn_dead_replicas = true;
      // Kill the remote replica repeatedly and average snapshot bytes per
      // re-seed: a single kill samples one backlog instant, which is
      // reset-phase noise on a handful of 4 KiB pages. The cadence must outlast
      // a recovery or the replacement dies mid-transfer and never joins: a
      // delta re-seed completes in well under a millisecond at every size, but
      // a full 16 MiB-point checkpoint needs several ms on the 50 us link — that
      // asymmetry IS the scale cliff this sweep prices. Kills only start once
      // even the 16 MiB point's rank sub-buffer is fully touched (~75 ms in),
      // so a full checkpoint always prices the whole RB.
      config.kill_remote_replica_at = Millis(80);
      config.kill_remote_replica_every =
          mode == ReseedMode::kDelta ? Millis(3) : Millis(13);
      config.mvee.respawn_budget_decay =
          mode == ReseedMode::kDelta ? Millis(2) : Millis(10);
      SuiteResult run = RunSuiteWorkload(spec, config);
      const char* mode_label = mode == ReseedMode::kDelta ? "delta" : "full";
      char label[32];
      std::snprintf(label, sizeof(label), "%llu KiB",
                    static_cast<unsigned long long>(kb));
      uint64_t joins = run.stats.rb_replica_joins;
      uint64_t delta_caps = run.stats.rb_snapshot_delta_captures;
      // Price what each mode's re-seed actually ships: in delta mode the payload
      // of ack-folded captures alone (empty-basis fallbacks are full-priced by
      // construction and reported in their own column), in full mode every
      // checkpoint.
      double kib_per_reseed = -1;
      if (mode == ReseedMode::kDelta && delta_caps > 0) {
        kib_per_reseed = static_cast<double>(run.stats.rb_snapshot_delta_bytes_sent) /
                         static_cast<double>(delta_caps) / 1024.0;
      } else if (mode == ReseedMode::kFull && joins > 0) {
        kib_per_reseed = static_cast<double>(run.stats.rb_snapshot_bytes_sent) /
                         static_cast<double>(joins) / 1024.0;
      }
      table.AddRow(
          {label, run.diverged ? "DIVERGED" : mode_label, Table::Num(kib_per_reseed, 1),
           Table::Num(static_cast<double>(delta_caps), 0),
           Table::Num(static_cast<double>(run.stats.rb_snapshot_full_fallbacks), 0),
           Table::Num(static_cast<double>(joins), 0)});
      if (!run.diverged && kib_per_reseed >= 0) {
        json->Add("reseed_delta/" + std::to_string(kb) + "KiB/" + mode_label +
                      "/kib_per_reseed",
                  kib_per_reseed, "KiB");
      }
    }
  }
  table.Print();
  std::printf(
      "\nThe full column grows linearly with the RB (it ships every live entry), the\n"
      "delta column is flat: the replacement re-seeds in O(missed work), so growing\n"
      "--rb-size to push resets toward zero no longer inflates recovery cost. At\n"
      "256 KiB the whole rank sub-buffer is smaller than the steady-state outage\n"
      "window, so deltas sit BELOW the flat line (a delta never costs more than the\n"
      "buffer), and an attempt falls back to the empty basis whenever the reset\n"
      "generation laps the basis between ack and capture — the generation guard\n"
      "doing its job (see the full-fallbacks column). Reproduce one point:\n"
      "  remon_cli --server=nginx --replicas=3 --placement=machine:1 --reseed=delta \\\n"
      "            --rb-mb=16 --respawn-on-death --kill-replica-at-ms=2\n");
}

void Run(BenchJson* json) {
  std::printf("== Ablation: RB size sweep (write-heavy workload, 2 replicas) ==\n");
  WorkloadSpec spec;
  spec.name = "rb-sweep";
  spec.suite = "ablation";
  spec.threads = 1;
  spec.iterations = 8000;
  spec.compute_per_iter = Micros(10);
  spec.file_writes = 4;
  spec.io_size = 4096;

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  SuiteResult base = RunSuiteWorkload(spec, native);

  Table table({"RB size", "normalized time", "RB resets", "resets/s"});
  for (uint64_t kb : {256, 1024, 4096, 16384}) {
    RunConfig config;
    config.mvee.mode = MveeMode::kRemon;
    config.mvee.replicas = 2;
    config.mvee.level = PolicyLevel::kNonsocketRw;
    config.mvee.rb_size = kb * 1024;
    SuiteResult run = RunSuiteWorkload(spec, config);
    char label[32];
    std::snprintf(label, sizeof(label), "%llu KiB", static_cast<unsigned long long>(kb));
    table.AddRow({label, Table::Num(run.seconds / base.seconds),
                  Table::Num(static_cast<double>(run.stats.rb_resets), 0),
                  Table::Num(run.seconds > 0 ? run.stats.rb_resets / run.seconds : 0, 0)});
    if (base.seconds > 0) {
      json->Add("rb_size/" + std::to_string(kb) + "KiB/normalized_time",
                run.seconds / base.seconds, "x");
    }
  }
  table.Print();
  std::printf(
      "\nEach reset is a monitored kRemonRbFlush round (all replicas synchronize at\n"
      "GHUMVEE); the default 16 MiB makes resets negligible, as the paper assumes.\n");
  RunSmallCallRow(json);
  RunServerRow(json);
  RunRemoteLinkSweep(json);
  RunReseedSweep(json);
  RunReseedDeltaSweep(json);
}

}  // namespace
}  // namespace remon

int main(int argc, char** argv) {
  std::string json_path = remon::BenchJson::PathFromArgs(argc, argv);
  remon::BenchJson json("abl_rb");
  remon::Run(&json);
  return json.WriteTo(json_path) ? 0 : 1;
}
