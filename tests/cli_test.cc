// remon_cli's flag table: every flag lands in its RunConfig/RemonOptions or
// run-shape member, malformed values are rejected instead of aborting or being
// guessed at, the defaults match the CLI's documented ones, and docs/CLI.md
// documents exactly the table's flags.

#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/cli.h"

namespace remon {
namespace {

// Parses `args` (without the program name) into a fresh CliRun.
bool Parse(const std::vector<std::string>& args, CliRun* run, std::string* error) {
  std::vector<const char*> argv{"remon_cli"};
  for (const std::string& a : args) {
    argv.push_back(a.c_str());
  }
  return ParseCliArgs(static_cast<int>(argv.size()), argv.data(), run, error);
}

std::string FlagName(const std::string& arg) { return arg.substr(0, arg.find('=')); }

TEST(CliTest, DefaultsMatchTheDocumentedCli) {
  CliRun run;
  std::string error;
  ASSERT_TRUE(Parse({}, &run, &error)) << error;
  const RemonOptions& o = run.config.mvee;
  EXPECT_EQ(o.mode, MveeMode::kRemon);
  EXPECT_EQ(o.replicas, 2);
  EXPECT_EQ(o.level, PolicyLevel::kSocketRw);
  EXPECT_FALSE(o.temporal.enabled);
  EXPECT_EQ(o.rb_size, 16u * 1024 * 1024);
  EXPECT_FALSE(o.rb_migration);
  EXPECT_FALSE(o.respawn_dead_replicas);
  EXPECT_EQ(o.reseed_mode, ReseedMode::kDelta);
  EXPECT_FALSE(o.use_sync_agent);
  EXPECT_EQ(o.sync_log_size, 1024u * 1024);
  EXPECT_EQ(o.file_map_pages, 1);  // Single-set runs; fleets apply fd_map_pages.
  EXPECT_EQ(run.config.seed, 1u);
  EXPECT_TRUE(run.config.placement.empty());
  EXPECT_EQ(run.config.rb_link_latency, 60 * kMicrosecond);
  EXPECT_DOUBLE_EQ(run.config.rb_link_bytes_per_ns, 0.125);
  EXPECT_EQ(run.config.respawn_target, 0);
  EXPECT_EQ(run.config.kill_remote_replica_at, 0);
  EXPECT_EQ(run.workload, "phpbench");
  EXPECT_EQ(run.server, "");
  EXPECT_EQ(run.latency_us, 60);
  EXPECT_EQ(run.connections, 16);
  EXPECT_EQ(run.requests, 400);
  EXPECT_FALSE(run.fleet());
  EXPECT_FALSE(run.autoscale);
  EXPECT_EQ(run.clients, 10000);
  EXPECT_DOUBLE_EQ(run.arrival_rate, 50000.0);
  EXPECT_EQ(run.fd_map_pages, 4);
  EXPECT_FALSE(run.list);
  EXPECT_FALSE(run.help);
}

struct FlagCase {
  std::string arg;
  std::function<void(const CliRun&)> check;
};

TEST(CliTest, EveryFlagLandsInItsMember) {
  const std::vector<FlagCase> cases = {
      {"--mode=native", [](const CliRun& r) { EXPECT_EQ(r.config.mvee.mode, MveeMode::kNative); }},
      {"--mode=ghumvee",
       [](const CliRun& r) { EXPECT_EQ(r.config.mvee.mode, MveeMode::kGhumveeOnly); }},
      {"--mode=varan",
       [](const CliRun& r) { EXPECT_EQ(r.config.mvee.mode, MveeMode::kVaranLike); }},
      {"--replicas=3", [](const CliRun& r) { EXPECT_EQ(r.config.mvee.replicas, 3); }},
      {"--level=base",
       [](const CliRun& r) { EXPECT_EQ(r.config.mvee.level, PolicyLevel::kBase); }},
      {"--level=nonsocket_ro",
       [](const CliRun& r) { EXPECT_EQ(r.config.mvee.level, PolicyLevel::kNonsocketRo); }},
      {"--level=socket_ro",
       [](const CliRun& r) { EXPECT_EQ(r.config.mvee.level, PolicyLevel::kSocketRo); }},
      {"--temporal-p=0.25",
       [](const CliRun& r) {
         EXPECT_TRUE(r.config.mvee.temporal.enabled);
         EXPECT_DOUBLE_EQ(r.config.mvee.temporal.exempt_probability, 0.25);
       }},
      {"--seed=18446744073709551615",
       [](const CliRun& r) { EXPECT_EQ(r.config.seed, 18446744073709551615ull); }},
      {"--workload=fmm", [](const CliRun& r) { EXPECT_EQ(r.workload, "fmm"); }},
      {"--server=memcached", [](const CliRun& r) { EXPECT_EQ(r.server, "memcached"); }},
      {"--connections=32", [](const CliRun& r) { EXPECT_EQ(r.connections, 32); }},
      {"--requests=600", [](const CliRun& r) { EXPECT_EQ(r.requests, 600); }},
      {"--latency-us=0", [](const CliRun& r) { EXPECT_EQ(r.latency_us, 0); }},
      {"--rb-mb=3", [](const CliRun& r) { EXPECT_EQ(r.config.mvee.rb_size, 3u << 20); }},
      {"--rb-migration", [](const CliRun& r) { EXPECT_TRUE(r.config.mvee.rb_migration); }},
      {"--placement=machine:1,0,2",
       [](const CliRun& r) { EXPECT_EQ(r.config.placement, (std::vector<int>{1, 0, 2})); }},
      {"--placement=local", [](const CliRun& r) { EXPECT_TRUE(r.config.placement.empty()); }},
      {"--rb-link-latency-us=500",
       [](const CliRun& r) { EXPECT_EQ(r.config.rb_link_latency, 500 * kMicrosecond); }},
      {"--rb-link-gbps=10",
       [](const CliRun& r) { EXPECT_DOUBLE_EQ(r.config.rb_link_bytes_per_ns, 1.25); }},
      {"--respawn-on-death",
       [](const CliRun& r) { EXPECT_TRUE(r.config.mvee.respawn_dead_replicas); }},
      {"--reseed=full",
       [](const CliRun& r) { EXPECT_EQ(r.config.mvee.reseed_mode, ReseedMode::kFull); }},
      {"--respawn-target=2", [](const CliRun& r) { EXPECT_EQ(r.config.respawn_target, 2); }},
      {"--kill-replica-at-ms=8",
       [](const CliRun& r) { EXPECT_EQ(r.config.kill_remote_replica_at, Millis(8)); }},
      {"--sync-agent", [](const CliRun& r) { EXPECT_TRUE(r.config.mvee.use_sync_agent); }},
      {"--sync-log-kb=64",
       [](const CliRun& r) { EXPECT_EQ(r.config.mvee.sync_log_size, 64u * 1024); }},
      {"--shards=4",
       [](const CliRun& r) {
         EXPECT_EQ(r.shards, 4);
         EXPECT_TRUE(r.fleet());
       }},
      {"--tiers=nginx:2,memcached:2,redis:1",
       [](const CliRun& r) {
         EXPECT_EQ(r.tiers, (std::vector<std::pair<std::string, int>>{
                                {"nginx", 2}, {"memcached", 2}, {"redis", 1}}));
         EXPECT_TRUE(r.fleet());
       }},
      {"--autoscale", [](const CliRun& r) { EXPECT_TRUE(r.autoscale); }},
      {"--clients=12000", [](const CliRun& r) { EXPECT_EQ(r.clients, 12000); }},
      {"--arrival-rate=15000.5",
       [](const CliRun& r) { EXPECT_DOUBLE_EQ(r.arrival_rate, 15000.5); }},
      {"--fd-map-pages=8", [](const CliRun& r) { EXPECT_EQ(r.fd_map_pages, 8); }},
      {"--list", [](const CliRun& r) { EXPECT_TRUE(r.list); }},
      {"--help", [](const CliRun& r) { EXPECT_TRUE(r.help); }},
  };
  std::set<std::string> covered;
  for (const FlagCase& c : cases) {
    SCOPED_TRACE(c.arg);
    CliRun run;
    std::string error;
    ASSERT_TRUE(Parse({c.arg}, &run, &error)) << error;
    c.check(run);
    covered.insert(FlagName(c.arg));
  }
  for (const CliFlag& flag : CliFlags()) {
    EXPECT_EQ(covered.count(flag.name), 1u) << flag.name << " has no landing check";
  }
}

TEST(CliTest, MalformedValuesAreRejected) {
  const std::vector<std::string> bad = {
      "--replicas=0", "--replicas=abc", "--replicas=2x", "--replicas=17",
      "--replicas= 2", "--replicas=", "--replicas", "--rb-mb=0", "--rb-mb=-1",
      "--latency-us=-3", "--server=bogus", "--tiers=bogus:2", "--tiers=nginx:2,bogus:1",
      "--tiers=nginx:0", "--tiers=nginx:2,", "--tiers=nginx", "--seed=abc",
      "--seed=-1", "--seed=1.5", "--connections=0", "--requests=-5", "--requests=0",
      "--workload=bogus", "--mode=bogus", "--level=socket", "--temporal-p=1.5",
      "--temporal-p=-0.1", "--temporal-p=nan", "--placement=machine:", "--placement=machine:1,", "--placement=machine:-1",
      "--placement=remote", "--rb-link-latency-us=-1", "--rb-link-gbps=0",
      "--rb-link-gbps=inf", "--reseed=partial", "--respawn-target=0",
      "--kill-replica-at-ms=0", "--sync-log-kb=0", "--sync-log-kb=-4", "--shards=0",
      "--clients=0", "--arrival-rate=0", "--arrival-rate=-5", "--fd-map-pages=0",
      "--fd-map-pages=1025", "--rb-auth", "--rb-auth=1", "--list=yes", "--bogus", "positional",
  };
  for (const std::string& arg : bad) {
    CliRun run;
    std::string error;
    EXPECT_FALSE(Parse({arg}, &run, &error)) << arg;
    EXPECT_FALSE(error.empty()) << arg;
  }
  // Unknown names point at --list, like an unknown workload always has.
  CliRun run;
  std::string error;
  ASSERT_FALSE(Parse({"--server=bogus"}, &run, &error));
  EXPECT_NE(error.find("try --list"), std::string::npos) << error;
}

TEST(CliTest, UsageListsEveryFlag) {
  std::string usage = CliUsage();
  for (const CliFlag& flag : CliFlags()) {
    EXPECT_NE(usage.find(std::string("  ") + flag.name), std::string::npos) << flag.name;
  }
}

// docs/CLI.md's flag tables name exactly the table's flags: one row each, no
// missing rows, no rows for flags that do not exist.
TEST(CliTest, DocsDocumentExactlyTheTableFlags) {
  std::ifstream in(std::string(REMON_SOURCE_DIR) + "/docs/CLI.md");
  ASSERT_TRUE(in.good());
  std::multiset<std::string> documented;
  std::string line;
  while (std::getline(in, line)) {
    const std::string row = "| `--";
    if (line.rfind(row, 0) != 0) {
      continue;
    }
    size_t start = row.size() - 2;
    size_t end = line.find_first_of("=`", start);
    documented.insert(line.substr(start, end - start));
  }
  std::multiset<std::string> flags;
  for (const CliFlag& flag : CliFlags()) {
    flags.insert(flag.name);
  }
  EXPECT_EQ(documented, flags);
}

}  // namespace
}  // namespace remon
