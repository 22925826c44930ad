// Figure 5: server benchmarks in two network scenarios, 2-7 replicas with IP-MON at
// SOCKET_RW_LEVEL plus 2 replicas without IP-MON. Values are normalized runtime
// (client completion time / native completion time).

#include <cstdio>

#include "src/harness/bench_json.h"
#include "src/harness/runner.h"
#include "src/harness/table.h"

namespace remon {
namespace {

struct BenchRow {
  const char* server;
  const char* client_label;
  int connections;
  int requests;
  uint64_t request_bytes;
};

// The nine server benchmarks of Fig. 5 (server analog + load-generator style).
constexpr BenchRow kRows[] = {
    {"beanstalkd", "beanstalkd", 32, 500, 256},
    {"lighttpd", "lighttpd (wrk)", 48, 500, 512},
    {"memcached", "memcached", 32, 500, 512},
    {"nginx", "nginx (wrk)", 48, 500, 512},
    {"redis", "redis", 32, 500, 256},
    {"apache", "apache (ab)", 16, 300, 4096},
    {"thttpd", "thttpd (ab)", 16, 300, 4096},
    {"lighttpd", "lighttpd (ab)", 16, 300, 4096},
    {"lighttpd", "lighttpd (http_load)", 32, 400, 1024},
};

void RunScenario(const char* title, const char* scenario_key, LinkParams link,
                 BenchJson* json) {
  std::printf("== Figure 5: %s ==\n", title);
  Table table({"benchmark", "2 (noIPM)", "2", "3", "4", "5", "6", "7"});
  for (const BenchRow& row : kRows) {
    ServerSpec server = ServerByName(row.server);
    ClientSpec client;
    client.connections = row.connections;
    client.total_requests = row.requests;
    client.request_bytes = row.request_bytes;

    // One native baseline per row.
    RunConfig native;
    native.mvee.mode = MveeMode::kNative;
    ServerResult base = RunServerBench(server, client, native, link);

    auto norm = [&](const RunConfig& config, const char* config_key) {
      ServerResult r = RunServerBench(server, client, config, link);
      if (base.seconds <= 0 || r.seconds <= 0 || r.diverged) {
        return -1.0;
      }
      double v = r.seconds / base.seconds;
      json->Add(std::string(scenario_key) + "/" + row.client_label + "/" + config_key +
                    "/normalized_time",
                v, "x");
      return v;
    };

    std::vector<std::string> cells{row.client_label};
    RunConfig cp;
    cp.mvee.mode = MveeMode::kGhumveeOnly;
    cp.mvee.replicas = 2;
    cells.push_back(Table::Num(norm(cp, "ghumvee2")));
    for (int replicas = 2; replicas <= 7; ++replicas) {
      RunConfig ip;
      ip.mvee.mode = MveeMode::kRemon;
      ip.mvee.replicas = replicas;
      ip.mvee.level = PolicyLevel::kSocketRw;
      cells.push_back(
          Table::Num(norm(ip, ("remon" + std::to_string(replicas)).c_str())));
    }
    table.AddRow(std::move(cells));
  }
  table.Print();
  std::printf("\n");
}

// Beyond the paper: multi-threaded servers with the record/replay agent under
// remote replica placement — the sync-agent log streams as kSyncLog frames over
// the RB transport, so the columns measure what the log transport adds on top of
// the entry stream (and what a mid-run kill + checkpoint re-seed costs).
void RunMtRemoteScenario(LinkParams link, BenchJson* json) {
  std::printf("== Multi-threaded remote placement (sync-agent log over RB transport) ==\n");
  Table table({"benchmark", "3 local", "3 remote", "3 remote+reseed"});
  constexpr struct {
    const char* server;
    int connections;
    int requests;
    uint64_t request_bytes;
  } kMtRows[] = {
      {"memcached", 32, 500, 512},
      {"apache", 16, 300, 4096},
  };
  for (const auto& row : kMtRows) {
    ServerSpec server = ServerByName(row.server);
    ClientSpec client;
    client.connections = row.connections;
    client.total_requests = row.requests;
    client.request_bytes = row.request_bytes;

    RunConfig native;
    native.mvee.mode = MveeMode::kNative;
    ServerResult base = RunServerBench(server, client, native, link);

    auto norm = [&](const RunConfig& config, const char* config_key) {
      ServerResult r = RunServerBench(server, client, config, link);
      if (base.seconds <= 0 || r.seconds <= 0 || r.diverged) {
        return -1.0;
      }
      double v = r.seconds / base.seconds;
      json->Add(std::string("mtremote/") + row.server + "/" + config_key +
                    "/normalized_time",
                v, "x");
      return v;
    };

    RunConfig local;
    local.mvee.mode = MveeMode::kRemon;
    local.mvee.replicas = 3;
    local.mvee.level = PolicyLevel::kSocketRw;
    local.mvee.use_sync_agent = true;

    RunConfig remote = local;
    remote.placement = {0, 1};  // The last replica on its own machine.

    RunConfig reseed = remote;
    reseed.mvee.respawn_dead_replicas = true;
    reseed.kill_remote_replica_at = Millis(4);

    std::vector<std::string> cells{row.server};
    cells.push_back(Table::Num(norm(local, "sync_local3")));
    cells.push_back(Table::Num(norm(remote, "sync_remote3")));
    cells.push_back(Table::Num(norm(reseed, "sync_remote3_reseed")));
    table.AddRow(std::move(cells));
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace remon

int main(int argc, char** argv) {
  std::string json_path = remon::BenchJson::PathFromArgs(argc, argv);
  remon::BenchJson json("fig5");
  // Scenario 1: the paper's "unlikely, worst-case" local gigabit link (~0.1 ms RTT).
  remon::RunScenario("worst case, local gigabit (~0.1 ms latency)", "gigabit",
                     remon::LinkParams{60 * remon::kMicrosecond, 0.125}, &json);
  // Scenario 2: the "realistic" low-latency network (2 ms RTT via netem).
  remon::RunScenario("realistic, low-latency network (2 ms latency)", "lowlat",
                     remon::LinkParams{remon::Millis(1), 0.125}, &json);
  // Scenario 3 (beyond the paper): multi-threaded servers on remote placements.
  remon::RunMtRemoteScenario(remon::LinkParams{60 * remon::kMicrosecond, 0.125}, &json);
  std::printf(
      "paper (fig. 5): with IP-MON the overhead stays near-native (<= a few %%) on the\n"
      "realistic link and grows modestly with the replica count; without IP-MON the\n"
      "low-latency scenario shows up to ~13x overhead on syscall-dense servers.\n");
  return json.WriteTo(json_path) ? 0 : 1;
}
