// Shared main-program plumbing for the benchmark binaries.
//
// Every tracked benchmark emits the same three artifacts: a human table on
// stdout, a remon-bench-v1 JSON document when invoked with --json=PATH, and a
// process exit code CI can gate on. BenchMain owns that glue once, and
// RunSuiteGrid owns the suite-table shape (one row per WorkloadSpec, one
// normalized-time column per MVEE configuration, a GEOMEAN summary row) that
// the figure benches would otherwise each reimplement.

#ifndef SRC_HARNESS_BENCH_MAIN_H_
#define SRC_HARNESS_BENCH_MAIN_H_

#include <string>
#include <vector>

#include "src/harness/bench_json.h"
#include "src/harness/runner.h"
#include "src/harness/table.h"

namespace remon {

// Owns the --json plumbing: parses the flag, collects metrics, writes the
// document in Finish(). Values from failed configurations (negative) and
// inf/nan from degenerate divisions are dropped with a stderr warning instead
// of poisoning the committed baseline.
class BenchMain {
 public:
  BenchMain(std::string bench_name, int argc, char** argv);

  // Records `value` under `name`; drops non-finite and negative values (failed
  // runs report -1). Returns whether the metric was recorded.
  bool Add(const std::string& name, double value, const char* unit = "x",
           bool higher_is_better = false);

  // A benign suite run must finish without diverging. Returns whether `run` did;
  // otherwise names `cell` on stderr and makes Finish() fail, so a cell cannot
  // drop out of a baseline unnoticed.
  bool CheckRun(const std::string& cell, const SuiteResult& run);

  // Writes the JSON document when --json=PATH was given; returns the process
  // exit code for main(): non-zero if the write or any CheckRun failed.
  int Finish();

 private:
  BenchJson json_;
  std::string path_;
  int failed_runs_ = 0;
};

// count/seconds with the degenerate-run guard: a native run reporting zero (or
// negative) seconds or a zero count yields rate 0, never inf/nan.
double SafeRate(double count, double seconds);

// Normalized time run/native with the same guard: -1 (the failed-configuration
// marker Table::Num renders as "-") unless both durations are positive.
double SafeNorm(double run_seconds, double native_seconds);

// One column of a suite grid: a key naming both the table header and the JSON
// namespace segment, the MVEE configuration to run every spec under, and
// optionally a reshaping of the spec (the sync-agent columns run a
// barrier-gated variant of each benchmark) plus a paper-bar accessor for a
// side-by-side "paper" column.
struct SuiteColumn {
  std::string key;
  RunConfig config;
  WorkloadSpec (*shape)(const WorkloadSpec&) = nullptr;
  double (*paper)(const WorkloadSpec&) = nullptr;
};

// Runs every spec under every column, prints the table (plus a trailing
// native syscalls/s column and a GEOMEAN row), and emits
//   <ns>/<spec>/<key>/normalized_time   per cell, and
//   <ns>/geomean/<key>/normalized_time  per column
// into `bench`. Each cell normalizes against a native run of the same
// (possibly column-reshaped) spec; a cell whose run diverged or did not finish
// renders "-", emits nothing and fails the bench (BenchMain::CheckRun).
void RunSuiteGrid(const std::string& ns, const std::string& title,
                  const std::vector<WorkloadSpec>& specs,
                  const std::vector<SuiteColumn>& columns, BenchMain* bench);

}  // namespace remon

#endif  // SRC_HARNESS_BENCH_MAIN_H_
