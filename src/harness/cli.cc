#include "src/harness/cli.h"

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <system_error>

namespace remon {

namespace {

// A whole-token number in [lo, hi]: no leading whitespace or '+', no trailing
// junk ("4x", "1O"), no sign on unsigned types, no NaN.
template <typename T>
bool ParseNumber(std::string_view s, T lo, T hi, T* out) {
  T v{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) {
    return false;
  }
  *out = v;
  return true;
}

// Smallest accepted value of a flag whose range is open at 0.
constexpr double kPositive = std::numeric_limits<double>::min();

// The common flag kinds. `field` maps the run to the member the flag writes.

// A number in [lo, hi], stored multiplied by `scale` (the flag's unit).
template <typename T, typename Field>
CliApply Number(Field field, T lo, T hi, T scale = 1) {
  return [=](std::string_view s, CliRun* run) {
    T v{};
    if (!ParseNumber(s, lo, hi, &v)) {
      return false;
    }
    *field(run) = v * scale;
    return true;
  };
}

// A switch: sets its member.
template <typename Field>
CliApply Switch(Field field) {
  return [=](std::string_view, CliRun* run) {
    *field(run) = true;
    return true;
  };
}

// One of a fixed set of names.
template <typename E, typename Field>
CliApply Choice(Field field, std::initializer_list<std::pair<std::string_view, E>> names) {
  std::vector<std::pair<std::string_view, E>> choices(names);
  return [=](std::string_view s, CliRun* run) {
    for (const auto& [name, value] : choices) {
      if (s == name) {
        *field(run) = value;
        return true;
      }
    }
    return false;
  };
}

// Splits "a,b,c" into its items; an empty item (trailing or doubled comma)
// rejects the whole list.
bool SplitList(std::string_view s, std::vector<std::string_view>* items) {
  items->clear();
  while (true) {
    size_t comma = s.find(',');
    std::string_view item = s.substr(0, comma);
    if (item.empty()) {
      return false;
    }
    items->push_back(item);
    if (comma == std::string_view::npos) {
      return true;
    }
    s.remove_prefix(comma + 1);
  }
}

bool KnownServer(std::string_view name) {
  for (const ServerSpec& s : PaperServers()) {
    if (s.name == name) {
      return true;
    }
  }
  return false;
}

// "local" keeps every replica on the leader machine; "machine:N[,M...]" places
// replica 1 on replica-host N, replica 2 on M, ... (0 = leader-local; replicas
// beyond the list stay local).
bool ApplyPlacement(std::string_view v, CliRun* run) {
  std::vector<int> placement;
  if (v != "local") {
    constexpr std::string_view kPrefix = "machine:";
    std::vector<std::string_view> items;
    if (v.substr(0, kPrefix.size()) != kPrefix ||
        !SplitList(v.substr(kPrefix.size()), &items)) {
      return false;
    }
    for (std::string_view item : items) {
      int host = 0;
      if (!ParseNumber(item, 0, 1024, &host)) {
        return false;
      }
      placement.push_back(host);
    }
  }
  run->config.placement = std::move(placement);
  return true;
}

// "SERVER:SHARDS[,SERVER:SHARDS...]", front tier first.
bool ApplyTiers(std::string_view v, CliRun* run) {
  std::vector<std::string_view> items;
  if (!SplitList(v, &items)) {
    return false;
  }
  std::vector<std::pair<std::string, int>> tiers;
  for (std::string_view item : items) {
    size_t colon = item.find(':');
    int shards = 0;
    if (colon == std::string_view::npos || !KnownServer(item.substr(0, colon)) ||
        !ParseNumber(item.substr(colon + 1), 1, 64, &shards)) {
      return false;
    }
    tiers.emplace_back(std::string(item.substr(0, colon)), shards);
  }
  run->tiers = std::move(tiers);
  return true;
}

const std::vector<CliFlag> kFlags = {
    // Configuration.
    {"--mode", "native|ghumvee|remon|varan", "remon", "monitor design",
     Choice<MveeMode>([](CliRun* r) { return &r->config.mvee.mode; },
                      {{"native", MveeMode::kNative},
                       {"ghumvee", MveeMode::kGhumveeOnly},
                       {"remon", MveeMode::kRemon},
                       {"varan", MveeMode::kVaranLike}})},
    {"--replicas", "N", "2", "replica count, 1-16 (ignored for native)",
     Number([](CliRun* r) { return &r->config.mvee.replicas; }, 1, 16)},
    {"--level", "base|nonsocket_ro|nonsocket_rw|socket_ro|socket_rw", "socket_rw",
     "spatial relaxation policy (paper Table 1)",
     Choice<PolicyLevel>([](CliRun* r) { return &r->config.mvee.level; },
                         {{"base", PolicyLevel::kBase},
                          {"nonsocket_ro", PolicyLevel::kNonsocketRo},
                          {"nonsocket_rw", PolicyLevel::kNonsocketRw},
                          {"socket_ro", PolicyLevel::kSocketRo},
                          {"socket_rw", PolicyLevel::kSocketRw}})},
    {"--temporal-p", "F", "0",
     "temporal exemption probability in [0, 1]; > 0 enables the policy",
     [](std::string_view v, CliRun* r) {
       double p = 0;
       if (!ParseNumber(v, 0.0, 1.0, &p)) {
         return false;
       }
       TemporalPolicy temporal;
       if (p > 0) {
         temporal.enabled = true;
         temporal.exempt_probability = p;
       }
       r->config.mvee.temporal = temporal;
       return true;
     }},
    {"--seed", "N", "1", "simulation seed",
     Number<uint64_t>([](CliRun* r) { return &r->config.seed; }, 0,
                      std::numeric_limits<uint64_t>::max())},
    // Workload selection. A failed apply ends the parse, so assigning first is safe.
    {"--workload", "NAME", "phpbench", "suite benchmark",
     [](std::string_view v, CliRun* r) {
       r->workload = std::string(v);
       return FindSuiteWorkload(v).has_value();
     }},
    {"--server", "NAME", nullptr, "server benchmark with a closed-loop client",
     [](std::string_view v, CliRun* r) {
       r->server = std::string(v);
       return KnownServer(v);
     }},
    {"--connections", "N", "16", "client connections, 1-100000",
     Number([](CliRun* r) { return &r->connections; }, 1, 100000)},
    {"--requests", "N", "400", "total client requests, 1-10000000",
     Number([](CliRun* r) { return &r->requests; }, 1, 10000000)},
    {"--latency-us", "N", "60", "client <-> server one-way latency, 0-1000000 us",
     Number([](CliRun* r) { return &r->latency_us; }, 0, 1000000)},
    // Replication buffer.
    {"--rb-mb", "N", "16", "RB size in MiB, 1-1024",
     Number<uint64_t>([](CliRun* r) { return &r->config.mvee.rb_size; }, 1, 1024,
                      1 << 20)},
    {"--rb-migration", nullptr, nullptr,
     "migrate the RB to fresh addresses at flush points (paper §4)",
     Switch([](CliRun* r) { return &r->config.mvee.rb_migration; })},
    // Cross-machine replica sets.
    {"--placement", "local|machine:N[,M...]", "local",
     "replica k+1 on replica-host N, 0-1024 (0 = leader-local); needs --mode=remon",
     ApplyPlacement},
    {"--rb-link-latency-us", "N", "60",
     "leader <-> replica-host one-way latency, 0-1000000 us",
     Number<DurationNs>([](CliRun* r) { return &r->config.rb_link_latency; }, 0,
                        1000000, kMicrosecond)},
    {"--rb-link-gbps", "F", "1.0", "leader <-> replica-host bandwidth, (0, 10000]",
     Number([](CliRun* r) { return &r->config.rb_link_bytes_per_ns; }, kPositive, 1e4,
            0.125)},
    // Replica re-seed.
    {"--respawn-on-death", nullptr, nullptr,
     "re-seed a replacement when a remote replica dies",
     Switch([](CliRun* r) { return &r->config.mvee.respawn_dead_replicas; })},
    {"--reseed", "delta|full", "delta", "replacement checkpoint basis",
     Choice<ReseedMode>([](CliRun* r) { return &r->config.mvee.reseed_mode; },
                        {{"delta", ReseedMode::kDelta}, {"full", ReseedMode::kFull}})},
    {"--respawn-target", "M", "off", "respawn replacements on replica-host M, 1-1024",
     Number([](CliRun* r) { return &r->config.respawn_target; }, 1, 1024)},
    {"--kill-replica-at-ms", "N", "off",
     "kill the highest-index remote replica at N ms, 1-1000000",
     Number<TimeNs>([](CliRun* r) { return &r->config.kill_remote_replica_at; }, 1,
                    1000000, kMillisecond)},
    // Multi-threaded workloads.
    {"--sync-agent", nullptr, nullptr, "record/replay agent for thread-pool servers",
     Switch([](CliRun* r) { return &r->config.mvee.use_sync_agent; })},
    {"--sync-log-kb", "N", "1024", "sync-agent log size in KiB, 1-1048576",
     Number<uint64_t>([](CliRun* r) { return &r->config.mvee.sync_log_size; }, 1,
                      1 << 20, 1024)},
    // Fleet scale-out.
    {"--shards", "N", nullptr, "single-tier fleet of N shards, 1-64",
     Number([](CliRun* r) { return &r->shards; }, 1, 64)},
    {"--tiers", "NAME:N[,NAME:N...]", nullptr,
     "multi-tier fleet, front tier first, 1-64 shards each", ApplyTiers},
    {"--autoscale", nullptr, nullptr, "let each tier spawn up to 4 extra shards",
     Switch([](CliRun* r) { return &r->autoscale; })},
    {"--clients", "N", "10000", "open-loop swarm arrivals, 1-10000000",
     Number([](CliRun* r) { return &r->clients; }, 1, 10000000)},
    {"--arrival-rate", "F", "50000", "Poisson arrival rate in conn/s, (0, 1e8]",
     Number([](CliRun* r) { return &r->arrival_rate; }, kPositive, 1e8)},
    {"--fd-map-pages", "N", "4", "file-map pages per fleet shard, 1-1024",
     Number([](CliRun* r) { return &r->fd_map_pages; }, 1, 1024)},
    // Information.
    {"--list", nullptr, nullptr, "print the suite workloads and servers",
     Switch([](CliRun* r) { return &r->list; })},
    {"--help", nullptr, nullptr, "print this usage text",
     Switch([](CliRun* r) { return &r->help; })},
};

}  // namespace

const std::vector<CliFlag>& CliFlags() { return kFlags; }

bool ParseCliArgs(int argc, const char* const* argv, CliRun* run, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    size_t eq = arg.find('=');
    std::string_view name = arg.substr(0, eq);
    const CliFlag* flag = nullptr;
    for (const CliFlag& f : kFlags) {
      if (name == f.name) {
        flag = &f;
        break;
      }
    }
    // A switch takes no value; a valued flag needs "=VALUE".
    if (flag == nullptr || (flag->syntax == nullptr) != (eq == std::string_view::npos)) {
      *error = "unknown argument: " + std::string(arg);
      return false;
    }
    std::string_view value = eq == std::string_view::npos ? "" : arg.substr(eq + 1);
    if (!flag->apply(value, run)) {
      std::string_view syntax = flag->syntax;
      *error = "invalid value '" + std::string(value) + "' for " + flag->name + "=" +
               std::string(syntax) +
               (syntax.find("NAME") != std::string_view::npos ? " (try --list)" : "");
      return false;
    }
  }
  return true;
}

std::string CliUsage() {
  std::string usage =
      "usage: remon_cli [FLAG]...\n"
      "Runs a suite workload, a server benchmark (--server) or a fleet (--shards,\n"
      "--tiers) natively and under the chosen MVEE, and prints a run report.\n";
  for (const CliFlag& f : kFlags) {
    std::string left = std::string("  ") + f.name;
    if (f.syntax != nullptr) {
      left += std::string("=") + f.syntax;
    }
    // Help text starts at column 34, on its own line under a long flag.
    left += left.size() < 34 ? std::string(34 - left.size(), ' ')
                             : "\n" + std::string(34, ' ');
    usage += left + f.help;
    if (f.default_value != nullptr) {
      usage += std::string(" (default: ") + f.default_value + ")";
    }
    usage += "\n";
  }
  usage += "Full reference: docs/CLI.md\n";
  return usage;
}

std::optional<WorkloadSpec> FindSuiteWorkload(std::string_view name) {
  for (const auto& suite : {ParsecSuite(), SplashSuite(), PhoronixSuite(), SpecCpuSuite()}) {
    for (const WorkloadSpec& spec : suite) {
      if (spec.name == name) {
        return spec;
      }
    }
  }
  return std::nullopt;
}

}  // namespace remon
