#include "src/harness/bench_main.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

namespace remon {

BenchMain::BenchMain(std::string bench_name, int argc, char** argv)
    : json_(std::move(bench_name)), path_(BenchJson::PathFromArgs(argc, argv)) {}

bool BenchMain::Add(const std::string& name, double value, const char* unit,
                    bool higher_is_better) {
  if (!std::isfinite(value) || value < 0) {
    std::fprintf(stderr, "bench_main: dropping metric %s = %f (failed run)\n",
                 name.c_str(), value);
    return false;
  }
  json_.Add(name, value, unit, higher_is_better);
  return true;
}

bool BenchMain::CheckRun(const std::string& cell, const SuiteResult& run) {
  if (run.finished && !run.diverged) {
    return true;
  }
  std::fprintf(stderr, "bench_main: %s %s\n", cell.c_str(),
               run.diverged ? "diverged" : "did not finish");
  ++failed_runs_;
  return false;
}

int BenchMain::Finish() {
  bool written = json_.WriteTo(path_);
  if (failed_runs_ > 0) {
    std::fprintf(stderr, "bench_main: %d benign run(s) failed\n", failed_runs_);
  }
  return written && failed_runs_ == 0 ? 0 : 1;
}

double SafeRate(double count, double seconds) {
  if (seconds <= 0 || count <= 0) {
    return 0;
  }
  return count / seconds;
}

double SafeNorm(double run_seconds, double native_seconds) {
  if (run_seconds <= 0 || native_seconds <= 0) {
    return -1.0;
  }
  return run_seconds / native_seconds;
}

void RunSuiteGrid(const std::string& ns, const std::string& title,
                  const std::vector<WorkloadSpec>& specs,
                  const std::vector<SuiteColumn>& columns, BenchMain* bench) {
  std::printf("== %s ==\n", title.c_str());
  std::vector<std::string> headers{"benchmark"};
  for (const SuiteColumn& col : columns) {
    headers.push_back(col.key);
    if (col.paper != nullptr) {
      headers.push_back("paper");
    }
  }
  headers.push_back("syscalls/s");
  Table table(std::move(headers));

  std::vector<std::vector<double>> col_values(columns.size());
  std::vector<std::vector<double>> col_papers(columns.size());
  for (const WorkloadSpec& spec : specs) {
    std::vector<std::string> row{spec.name};
    // One native baseline per distinct column shape (columns sharing a shape —
    // the common nullptr case — share the run).
    std::map<WorkloadSpec (*)(const WorkloadSpec&), SuiteResult> natives;
    for (size_t c = 0; c < columns.size(); ++c) {
      const SuiteColumn& col = columns[c];
      WorkloadSpec shaped = col.shape != nullptr ? col.shape(spec) : spec;
      auto it = natives.find(col.shape);
      if (it == natives.end()) {
        RunConfig native;
        native.mvee.mode = MveeMode::kNative;
        native.seed = col.config.seed;
        it = natives.emplace(col.shape, RunSuiteWorkload(shaped, native)).first;
      }
      const SuiteResult& base = it->second;
      SuiteResult run = RunSuiteWorkload(shaped, col.config);
      std::string cell = ns + "/" + spec.name + "/" + col.key;
      double norm =
          bench->CheckRun(cell, run) ? SafeNorm(run.seconds, base.seconds) : -1.0;
      row.push_back(Table::Num(norm));
      if (norm > 0) {
        col_values[c].push_back(norm);
        bench->Add(cell + "/normalized_time", norm, "x");
      }
      if (col.paper != nullptr) {
        double paper = col.paper(shaped);
        row.push_back(Table::Num(paper));
        if (paper > 0) {
          col_papers[c].push_back(paper);
        }
      }
    }
    const SuiteResult& plain_native =
        natives.count(nullptr) != 0 ? natives[nullptr] : natives.begin()->second;
    row.push_back(Table::Num(
        SafeRate(static_cast<double>(plain_native.stats.syscalls_total),
                 plain_native.seconds),
        0));
    table.AddRow(std::move(row));
  }

  std::vector<std::string> geo{"GEOMEAN"};
  for (size_t c = 0; c < columns.size(); ++c) {
    double g = GeoMean(col_values[c]);
    geo.push_back(Table::Num(g));
    if (g > 0) {
      bench->Add(ns + "/geomean/" + columns[c].key + "/normalized_time", g, "x");
    }
    if (columns[c].paper != nullptr) {
      geo.push_back(Table::Num(GeoMean(col_papers[c])));
    }
  }
  geo.push_back("");
  table.AddRow(std::move(geo));
  table.Print();
  std::printf("\n");
}

}  // namespace remon
