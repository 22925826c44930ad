// Table 2: cross-MVEE comparison (2 replicas). Reproduces the paper's comparison by
// running the same servers and a SPEC CPU analog under:
//   * GHUMVEE standalone      (the security-oriented CP baseline),
//   * a VARAN-like IP monitor (the reliability-oriented comparison point),
//   * ReMon @ SOCKET_RW       (this paper),
// over the two network setups the paper reports for ReMon: a local gigabit link and
// a 5 ms (netem) link. The table shows overhead percentages ((normalized - 1) *
// 100); the JSON carries the normalized times themselves (ratios near 1.0 gate
// robustly, percentages near 0 do not).
//
// Tracked: --json=PATH emits remon-bench-v1 metrics (BENCH_tab2.json baseline,
// gated in CI). Namespaces `tab2/...` and `tab2_spec/...`.

#include <cstdio>

#include "src/harness/bench_main.h"

namespace remon {
namespace {

double Pct(double normalized) { return normalized < 0 ? -1 : (normalized - 1.0) * 100.0; }

int Run(BenchMain* bench) {
  std::printf("== Table 2: comparison with other MVEEs (2 replicas) ==\n\n");

  struct Row {
    const char* server;
    const char* label;
    const char* key;  // JSON segment.
    int connections;
    int requests;
    uint64_t bytes;
    double paper_remon_5ms;  // Paper's ReMon column (5 ms), %.
  };
  const Row rows[] = {
      {"apache", "apache (ab)", "apache_ab", 16, 300, 4096, 2.4},
      {"lighttpd", "lighttpd (ab)", "lighttpd_ab", 16, 300, 4096, 0.0},
      {"thttpd", "thttpd (ab)", "thttpd_ab", 16, 300, 4096, 2.7},
      {"lighttpd", "lighttpd (httpld)", "lighttpd_httpload", 32, 400, 1024, 3.5},
      {"redis", "redis", "redis", 32, 500, 256, 0.1},
      {"beanstalkd", "beanstalkd", "beanstalkd", 32, 500, 256, 0.6},
      {"memcached", "memcached", "memcached", 32, 500, 512, 0.3},
      {"nginx", "nginx (wrk)", "nginx_wrk", 48, 500, 512, 0.8},
      {"lighttpd", "lighttpd (wrk)", "lighttpd_wrk", 48, 500, 512, 0.7},
  };

  Table table({"benchmark", "GHUMVEE %", "VARAN-like %", "ReMon gigabit %", "ReMon 5ms %",
               "paper ReMon 5ms %"});
  LinkParams gigabit{60 * kMicrosecond, 0.125};
  LinkParams netem5ms{Millis(2) + Micros(500), 0.125};  // 5 ms RTT.

  for (const Row& row : rows) {
    ServerSpec server = ServerByName(row.server);
    ClientSpec client;
    client.connections = row.connections;
    client.total_requests = row.requests;
    client.request_bytes = row.bytes;

    RunConfig cp;
    cp.mvee.mode = MveeMode::kGhumveeOnly;
    cp.mvee.replicas = 2;
    RunConfig varan;
    varan.mvee.mode = MveeMode::kVaranLike;
    varan.mvee.replicas = 2;
    RunConfig rm;
    rm.mvee.mode = MveeMode::kRemon;
    rm.mvee.replicas = 2;
    rm.mvee.level = PolicyLevel::kSocketRw;

    struct Cell {
      const char* key;
      const RunConfig* config;
      LinkParams link;
    };
    const Cell cells[] = {{"ghumvee2", &cp, gigabit},
                          {"varan2", &varan, gigabit},
                          {"remon_gigabit", &rm, gigabit},
                          {"remon_5ms", &rm, netem5ms}};
    std::vector<std::string> out{row.label};
    for (const Cell& cell : cells) {
      double v = NormalizedServerTime(server, client, *cell.config, cell.link);
      out.push_back(Table::Num(Pct(v), 1));
      bench->Add(std::string("tab2/") + row.key + "/" + cell.key +
                     "/normalized_time",
                 v, "x");
    }
    out.push_back(Table::Num(row.paper_remon_5ms, 1));
    table.AddRow(std::move(out));
  }
  table.Print();

  // SPEC CPU analog: ReMon on the paper's 20 MB-LLC testbed versus GHUMVEE on the
  // 8 MB-LLC machines the earlier papers used (cache size drives the contention
  // dilation, Table 2's caption).
  std::printf("\n-- SPEC CPU 2006 analog --\n");
  std::vector<double> remon_vals;
  std::vector<double> ghumvee8_vals;
  std::vector<double> varan_vals;
  for (const WorkloadSpec& spec : SpecCpuSuite()) {
    RunConfig rm;
    rm.mvee.mode = MveeMode::kRemon;
    rm.mvee.replicas = 2;
    rm.mvee.level = PolicyLevel::kNonsocketRw;
    remon_vals.push_back(NormalizedSuiteTime(spec, rm));

    RunConfig cp8;
    cp8.mvee.mode = MveeMode::kGhumveeOnly;
    cp8.mvee.replicas = 2;
    cp8.costs.llc_mb = 8.0;  // The GHUMVEE paper's testbed.
    ghumvee8_vals.push_back(NormalizedSuiteTime(spec, cp8));

    RunConfig vr;
    vr.mvee.mode = MveeMode::kVaranLike;
    vr.mvee.replicas = 2;
    vr.costs.llc_mb = 8.0;  // VARAN's testbed also had 8 MB LLC.
    varan_vals.push_back(NormalizedSuiteTime(spec, vr));
  }
  struct SpecRow {
    const char* label;
    const char* key;
    double geomean;
    const char* paper;
  };
  const SpecRow spec_rows[] = {
      {"ReMon (20MB LLC)", "remon_20mb", GeoMean(remon_vals), "3.1"},
      {"GHUMVEE (8MB LLC)", "ghumvee_8mb", GeoMean(ghumvee8_vals), "12.1"},
      {"VARAN-like (8MB LLC)", "varan_8mb", GeoMean(varan_vals), "14.2"},
  };
  Table spec_table({"config", "measured %", "paper %"});
  for (const SpecRow& sr : spec_rows) {
    spec_table.AddRow({sr.label, Table::Num(Pct(sr.geomean), 1), sr.paper});
    bench->Add(std::string("tab2_spec/") + sr.key + "/normalized_time", sr.geomean,
               "x");
  }
  spec_table.Print();

  std::printf(
      "\nReading the table: ReMon's CP baseline (GHUMVEE) carries the classic\n"
      "lockstep cost; the VARAN-like IP-only monitor is fast but offers no CP\n"
      "isolation or lockstep for sensitive calls; ReMon approaches the IP monitor's\n"
      "efficiency while keeping GHUMVEE's security (the paper's thesis).\n");
  return bench->Finish();
}

}  // namespace
}  // namespace remon

int main(int argc, char** argv) {
  remon::BenchMain bench("tab2", argc, argv);
  return remon::Run(&bench);
}
