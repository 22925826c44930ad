// Figure 1: the three MVEE designs. A syscall-dense microworkload is run under the
// cross-process design (a), the in-process design (b), and ReMon's hybrid (c);
// the table shows the per-call cost and the security properties each design trades.
//
// Tracked: --json=PATH emits remon-bench-v1 metrics (BENCH_fig1.json baseline,
// gated in CI). Namespace `designs/...`.

#include <cstdio>

#include "src/harness/bench_main.h"

namespace remon {
namespace {

int Run(BenchMain* bench) {
  std::printf("== Figure 1: MVEE design comparison (2 replicas) ==\n");
  // A dense, evenly-spread syscall workload: 4 calls per iteration at ~100k calls/s.
  WorkloadSpec spec;
  spec.name = "microbench";
  spec.suite = "micro";
  spec.threads = 1;
  spec.iterations = 4000;
  spec.compute_per_iter = Micros(38);
  spec.file_reads = 2;
  spec.file_writes = 2;
  spec.io_size = 1024;

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  SuiteResult base = RunSuiteWorkload(spec, native);
  double calls = static_cast<double>(base.stats.syscalls_total);

  struct DesignRow {
    const char* key;  // JSON segment.
    const char* name;
    MveeMode mode;
    PolicyLevel level;
    const char* isolation;
    const char* lockstep;
  };
  const DesignRow designs[] = {
      {"ghumvee_cp", "(a) CP MVEE (GHUMVEE)", MveeMode::kGhumveeOnly,
       PolicyLevel::kNoIpmon, "hardware (process)", "all calls"},
      {"varan_ip", "(b) IP MVEE (VARAN-like)", MveeMode::kVaranLike,
       PolicyLevel::kSocketRw, "none (ASLR only)", "none"},
      {"remon_hybrid", "(c) ReMon (hybrid)", MveeMode::kRemon,
       PolicyLevel::kNonsocketRw, "hardware for sensitive", "sensitive calls"},
  };

  Table table({"design", "normalized time", "us/call", "monitor isolation", "lockstep"});
  table.AddRow({"native", "1.00", "-", "-", "-"});
  bench->Add("designs/native_syscall_rate", SafeRate(calls, base.seconds), "1/s",
             /*higher_is_better=*/true);
  for (const DesignRow& d : designs) {
    RunConfig config;
    config.mvee.mode = d.mode;
    config.mvee.replicas = 2;
    config.mvee.level = d.level;
    SuiteResult run = RunSuiteWorkload(spec, config);
    // Degenerate-run guard: a native run reporting zero seconds or zero
    // syscalls must render "-" rather than emit inf/nan into the table/JSON.
    double norm = bench->CheckRun(std::string("designs/") + d.key, run)
                      ? SafeNorm(run.seconds, base.seconds)
                      : -1.0;
    double per_call = norm > 0 && calls > 0
                          ? (run.seconds - base.seconds) / calls * 1e6
                          : -1.0;
    table.AddRow({d.name, Table::Num(norm), Table::Num(per_call), d.isolation,
                  d.lockstep});
    bench->Add(std::string("designs/") + d.key + "/normalized_time", norm, "x");
    bench->Add(std::string("designs/") + d.key + "/us_per_call", per_call, "us");
  }
  table.Print();
  std::printf(
      "\nThe hybrid keeps the CP design's security properties for sensitive calls\n"
      "while replicating innocuous calls at in-process cost (paper fig. 1 and §1).\n");
  return bench->Finish();
}

}  // namespace
}  // namespace remon

int main(int argc, char** argv) {
  remon::BenchMain bench("fig1", argc, argv);
  return remon::Run(&bench);
}
