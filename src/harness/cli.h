// remon_cli's command line: one flag table drives parsing, validation and the
// usage text.
//
// Each flag's `apply` parses its value as a whole token, checks its range, and
// writes straight into the run's RunConfig (the MVEE configuration) or into the
// run shape (which workload, server or fleet to drive). A malformed value is
// rejected instead of being guessed at.

#ifndef SRC_HARNESS_CLI_H_
#define SRC_HARNESS_CLI_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/harness/runner.h"

namespace remon {

// One remon_cli invocation: the MVEE configuration plus the run shape.
struct CliRun {
  RunConfig config;
  // Suite workload (used when neither --server nor a fleet is given).
  std::string workload = "phpbench";
  // Server benchmark with a closed-loop client; also the single-tier fleet's
  // server template (nginx when empty).
  std::string server;
  int latency_us = 60;  // Client <-> server link one-way latency.
  int connections = 16;
  int requests = 400;
  // Scale-out: --shards or --tiers replaces the single-set server benchmark with
  // a fleet of replica sets behind a load balancer.
  int shards = 0;  // > 0: single-tier fleet of this many shards.
  std::vector<std::pair<std::string, int>> tiers;  // (server template, shards).
  bool autoscale = false;
  int clients = 10000;            // Open-loop swarm arrivals.
  double arrival_rate = 50000.0;  // Poisson rate, connections/second.
  int fd_map_pages = 4;  // File-map pages per shard; only fleet runs apply it.
  bool list = false;
  bool help = false;

  bool fleet() const { return shards > 0 || !tiers.empty(); }
};

// Parses a flag's value (empty for a switch) into the run; false when malformed.
using CliApply = std::function<bool(std::string_view value, CliRun* run)>;

struct CliFlag {
  const char* name;           // "--mode".
  const char* syntax;         // Value syntax; nullptr for a boolean switch.
  const char* default_value;  // For the usage text; nullptr when there is none.
  const char* help;
  CliApply apply;
};

// Every flag remon_cli accepts, in usage order.
const std::vector<CliFlag>& CliFlags();

// Applies argv[1..argc) to `run` through the flag table. Returns false and sets
// `error` on an unknown flag or a malformed value.
bool ParseCliArgs(int argc, const char* const* argv, CliRun* run, std::string* error);

// The usage text, one line per table flag.
std::string CliUsage();

// The suite workload named `name` across every suite, if any.
std::optional<WorkloadSpec> FindSuiteWorkload(std::string_view name);

}  // namespace remon

#endif  // SRC_HARNESS_CLI_H_
