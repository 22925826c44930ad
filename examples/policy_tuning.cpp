// Policy tuning: the per-application security/performance dial (paper §3.4, §4).
//
// Runs one I/O-heavy workload under every spatial relaxation level and prints the
// trade: how much of the system-call stream still runs in lockstep (security) versus
// the measured slowdown (performance). This is the decision an administrator makes
// when deploying ReMon for a given application.

#include <cstdio>

#include "src/harness/runner.h"
#include "src/harness/table.h"

using namespace remon;

int main() {
  WorkloadSpec spec;
  spec.name = "tuning";
  spec.suite = "example";
  spec.threads = 1;
  spec.iterations = 4000;
  spec.compute_per_iter = Micros(25);
  spec.base_queries = 2;
  spec.file_metadata = 1;
  spec.file_reads = 2;
  spec.file_writes = 2;
  spec.sock_echoes = 1;
  spec.io_size = 1024;

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  SuiteResult base = RunSuiteWorkload(spec, native);

  std::printf("workload: %d iters x %d calls (time queries, stats, file r/w, socket\n",
              spec.iterations, spec.CallsPerIter());
  std::printf("echoes); native run: %.1f ms, %llu system calls\n\n",
              base.seconds * 1e3,
              static_cast<unsigned long long>(base.stats.syscalls_total));

  Table table({"policy level", "normalized time", "monitored", "unmonitored",
               "% in lockstep"});
  {
    RunConfig config;
    config.mvee.mode = MveeMode::kGhumveeOnly;
    config.mvee.replicas = 2;
    SuiteResult run = RunSuiteWorkload(spec, config);
    table.AddRow({"NO_IPMON (GHUMVEE only)", Table::Num(run.seconds / base.seconds),
                  std::to_string(run.stats.syscalls_monitored),
                  std::to_string(run.stats.syscalls_unmonitored), "100.0"});
  }
  for (PolicyLevel level : {PolicyLevel::kBase, PolicyLevel::kNonsocketRo,
                            PolicyLevel::kNonsocketRw, PolicyLevel::kSocketRo,
                            PolicyLevel::kSocketRw}) {
    RunConfig config;
    config.mvee.mode = MveeMode::kRemon;
    config.mvee.replicas = 2;
    config.mvee.level = level;
    SuiteResult run = RunSuiteWorkload(spec, config);
    double total = static_cast<double>(run.stats.syscalls_monitored +
                                       run.stats.syscalls_unmonitored);
    table.AddRow({std::string(PolicyLevelName(level)),
                  Table::Num(run.seconds / base.seconds),
                  std::to_string(run.stats.syscalls_monitored),
                  std::to_string(run.stats.syscalls_unmonitored),
                  Table::Num(total > 0 ? run.stats.syscalls_monitored / total * 100 : 0, 1)});
  }
  table.Print();
  std::printf(
      "\nEvery level keeps FD-lifecycle, memory, thread, and signal calls in lockstep;\n"
      "the dial only relaxes the paper's Table-1 classes. Pick the lowest level whose\n"
      "performance your deployment can afford — security increases monotonically.\n");
  return 0;
}
