// Figure 3: normalized execution time of the PARSEC 2.1 and SPLASH-2x suites under
// GHUMVEE-only monitoring and under ReMon with IP-MON at NONSOCKET_RW_LEVEL
// (2 replicas, 4 worker threads), versus the paper's bars — plus two
// beyond-the-paper columns running the barrier-rotated sync variant of every
// benchmark with the record/replay agent, all-local and with one replica behind
// the RB transport (the sync-agent log streamed as kSyncLog frames).
//
// Tracked: --json=PATH emits remon-bench-v1 metrics (BENCH_fig3.json baseline,
// gated in CI). Namespaces `parsec/...` and `splash/...`.

#include "src/harness/bench_main.h"

namespace remon {
namespace {

double PaperGhumvee(const WorkloadSpec& s) { return s.paper_ghumvee; }
double PaperRemon(const WorkloadSpec& s) { return s.paper_remon; }

// Sync-column shape: the 4-thread barrier rotation, two agent-ordered
// acquisitions per iteration. With the 64-slot log below, every benchmark
// wraps the circular sync log several laps per run.
WorkloadSpec SyncShape(const WorkloadSpec& s) { return SyncVariant(s, 2, 80); }

std::vector<SuiteColumn> Columns() {
  RunConfig cp;
  cp.mvee.mode = MveeMode::kGhumveeOnly;
  cp.mvee.replicas = 2;

  RunConfig ip;
  ip.mvee.mode = MveeMode::kRemon;
  ip.mvee.replicas = 2;
  ip.mvee.level = PolicyLevel::kNonsocketRw;

  RunConfig sync_local = ip;
  sync_local.mvee.use_sync_agent = true;
  // A 64-slot circular log: barrier/lock-dominated compute must lap it, so the
  // wraparound gate is on the measured path.
  sync_local.mvee.sync_log_size = kSyncLogOffEntries + 64 * kSyncLogEntrySize;

  RunConfig sync_remote = sync_local;
  sync_remote.placement = {1};  // Replica 1 on its own machine, RB-transport-fed.

  return {
      {"ghumvee2", cp, nullptr, PaperGhumvee},
      {"remon2_nsrw", ip, nullptr, PaperRemon},
      {"sync_local2", sync_local, SyncShape, nullptr},
      {"sync_remote2", sync_remote, SyncShape, nullptr},
  };
}

}  // namespace
}  // namespace remon

int main(int argc, char** argv) {
  remon::BenchMain bench("fig3", argc, argv);
  remon::RunSuiteGrid("parsec",
                      "Figure 3: PARSEC 2.1 (2 replicas, 4 worker threads)",
                      remon::ParsecSuite(), remon::Columns(), &bench);
  remon::RunSuiteGrid("splash",
                      "Figure 3: SPLASH-2x (2 replicas, 4 worker threads)",
                      remon::SplashSuite(), remon::Columns(), &bench);
  std::printf(
      "sync_local2/sync_remote2: barrier-rotated sync variant (4 threads, 2\n"
      "agent-ordered acquisitions/iter, 64-slot log) under the record/replay\n"
      "agent, all-local vs. one replica fed over the RB transport.\n");
  return bench.Finish();
}
