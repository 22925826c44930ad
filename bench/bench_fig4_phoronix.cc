// Figure 4: the Phoronix suite under all five spatial relaxation policies plus the
// no-IP-MON baseline (2 replicas), including the nginx server column, versus the
// paper's bars — plus a beyond-the-paper multi-threaded section running selected
// benchmarks as 4-thread barrier-rotated sync variants under the record/replay
// agent, all-local and with one replica behind the RB transport.
//
// Tracked: --json=PATH emits remon-bench-v1 metrics (BENCH_fig4.json baseline,
// gated in CI). Namespaces `phoronix/...` and `phoronix_mt/...`.

#include <cstdio>

#include "src/harness/bench_main.h"

namespace remon {
namespace {

RunConfig LevelConfig(PolicyLevel level) {
  RunConfig ip;
  ip.mvee.mode = MveeMode::kRemon;
  ip.mvee.replicas = 2;
  ip.mvee.level = level;
  return ip;
}

std::vector<SuiteColumn> LadderColumns() {
  RunConfig cp;
  cp.mvee.mode = MveeMode::kGhumveeOnly;
  cp.mvee.replicas = 2;
  return {
      {"ghumvee2", cp, nullptr, nullptr},
      {"base", LevelConfig(PolicyLevel::kBase), nullptr, nullptr},
      {"ns_ro", LevelConfig(PolicyLevel::kNonsocketRo), nullptr, nullptr},
      {"ns_rw", LevelConfig(PolicyLevel::kNonsocketRw), nullptr, nullptr},
      {"s_ro", LevelConfig(PolicyLevel::kSocketRo), nullptr, nullptr},
      {"s_rw", LevelConfig(PolicyLevel::kSocketRw), nullptr, nullptr},
  };
}

// The nginx column: a real server benchmark driven by a wrk-style client over the
// low-latency gigabit link (not a suite spec, so it gets its own row).
void RunNginxRow(BenchMain* bench) {
  ServerSpec nginx = ServerByName("nginx");
  ClientSpec client;
  client.connections = 48;  // wrk saturates the server.
  client.total_requests = 600;
  client.request_bytes = 512;  // Small pages: the server, not the link, limits.
  LinkParams link{60 * kMicrosecond, 0.125};

  Table table({"benchmark", "ghumvee2", "base", "ns_ro", "ns_rw", "s_ro", "s_rw"});
  std::vector<std::string> row{"nginx (wrk)"};
  for (const SuiteColumn& col : LadderColumns()) {
    double v = NormalizedServerTime(nginx, client, col.config, link);
    row.push_back(Table::Num(v));
    bench->Add("phoronix/nginx_wrk/" + col.key + "/normalized_time", v, "x");
  }
  table.AddRow(std::move(row));
  table.Print();
  std::printf("\n");
}

// Multi-threaded sync section: 4-thread barrier rotation, two agent-ordered
// acquisitions per iteration over a 64-slot circular log (several wrap laps
// per run).
WorkloadSpec SyncShape(const WorkloadSpec& s) { return SyncVariant(s, 2, 80); }

std::vector<SuiteColumn> SyncColumns() {
  RunConfig sync_local = LevelConfig(PolicyLevel::kNonsocketRw);
  sync_local.mvee.use_sync_agent = true;
  sync_local.mvee.sync_log_size = kSyncLogOffEntries + 64 * kSyncLogEntrySize;

  RunConfig sync_remote = sync_local;
  sync_remote.placement = {1};  // Replica 1 on its own machine, RB-transport-fed.

  return {
      {"sync_local4", sync_local, SyncShape, nullptr},
      {"sync_remote4", sync_remote, SyncShape, nullptr},
  };
}

// The syscall-dense end of the suite, where the agent's ordering and the log
// transport actually contend with replication traffic.
std::vector<WorkloadSpec> MtRoster() {
  std::vector<WorkloadSpec> roster;
  for (const WorkloadSpec& spec : PhoronixSuite()) {
    if (spec.name == "compress-gzip" || spec.name == "phpbench" ||
        spec.name == "unpack-linux") {
      roster.push_back(spec);
    }
  }
  return roster;
}

}  // namespace
}  // namespace remon

int main(int argc, char** argv) {
  remon::BenchMain bench("fig4", argc, argv);
  remon::RunSuiteGrid(
      "phoronix", "Figure 4: Phoronix, spatial relaxation policies (2 replicas)",
      remon::PhoronixSuite(), remon::LadderColumns(), &bench);
  remon::RunNginxRow(&bench);
  remon::RunSuiteGrid(
      "phoronix_mt",
      "Phoronix MT: 4-thread sync variants (record/replay agent, local vs remote)",
      remon::MtRoster(), remon::SyncColumns(), &bench);
  std::printf(
      "paper (fig. 4): gzip 1.11/1.11/1.04/1.04/1.04/1.05, flac 1.17/1.17/1.08/1.02x3,\n"
      "  ogg 1.09/1.10/1.06/1.01x3, mencoder 1.05/1.04/1.01/1.00x3, phpbench\n"
      "  2.48/1.90/1.90/1.13x3, unpack-linux 1.47/1.48/1.44/1.22/1.17/1.17,\n"
      "  network-loopback 25.46/25.36/24.89/17.03/9.18/3.00, nginx 9.77/7.76/7.74/7.58/6.65/3.71\n");
  return bench.Finish();
}
