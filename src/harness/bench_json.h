// Machine-readable benchmark output for the CI perf trajectory.
//
// Benchmarks print human tables to stdout; when invoked with --json=PATH they
// additionally emit a flat metric list in the checked-in schema
// (docs/BENCH_SCHEMA.md). CI runs the benches with pinned seeds, uploads the
// JSON as artifacts, and fails on >15% regression against the committed
// baselines (tools/check_bench_regression.py) — see .github/workflows/ci.yml.

#ifndef SRC_HARNESS_BENCH_JSON_H_
#define SRC_HARNESS_BENCH_JSON_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace remon {

class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : bench_(std::move(bench_name)) {}

  // Parses --json=PATH from argv; empty string when absent (no JSON emitted).
  static std::string PathFromArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--json=", 7) == 0) {
        return argv[i] + 7;
      }
    }
    return "";
  }

  // Records one metric. Names are hierarchical ("rb_size/256KiB/normalized_time");
  // characters outside [A-Za-z0-9_/.:+-] are folded to '_' so sweep labels with
  // spaces or parentheses stay valid identifiers.
  void Add(const std::string& name, double value, const char* unit,
           bool higher_is_better = false) {
    Metric m;
    m.name.reserve(name.size());
    for (char c : name) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '.' ||
                c == ':' || c == '+' || c == '-';
      m.name.push_back(ok ? c : '_');
    }
    m.value = value;
    m.unit = unit;
    m.higher_is_better = higher_is_better;
    metrics_.push_back(std::move(m));
  }

  // Writes the JSON document; returns false (and prints to stderr) on I/O error.
  // No-op returning true when `path` is empty.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) {
      return true;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"schema\": \"remon-bench-v1\",\n  \"bench\": \"%s\",\n"
                    "  \"metrics\": [\n", bench_.c_str());
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %.6f, \"unit\": \"%s\", "
                   "\"higher_is_better\": %s}%s\n",
                   m.name.c_str(), m.value, m.unit.c_str(),
                   m.higher_is_better ? "true" : "false",
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("bench_json: wrote %zu metrics to %s\n", metrics_.size(), path.c_str());
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    bool higher_is_better = false;
  };

  std::string bench_;
  std::vector<Metric> metrics_;
};

}  // namespace remon

#endif  // SRC_HARNESS_BENCH_JSON_H_
