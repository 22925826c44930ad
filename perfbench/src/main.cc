// remon_perfbench: runs one workload of the ReMon benchmark and prints its
// metrics, ending with one JSON line.
//
//   remon_perfbench --workload NAME [--seed N] [--seconds S]
//                   [--trace 0|1 --trace-out PATH]
//
// Metrics come in two planes. The virtual plane is what the simulated service
// gives its clients (normalized time, throughput, p50 and p99 latency); it is a
// pure function of the seed and repeats bit-exactly. The host plane is what the
// simulator costs to run (CPU seconds, ns per simulated syscall, peak RSS,
// set-up time). The measured MVEE run repeats for --seconds of host time, and
// every repetition must reproduce the first one's virtual plane.
//
// --trace 0 reports the end-to-end metrics: the virtual plane, peak RSS and
// set-up time. --trace 1 adds one traced run and reports the per-layer metrics
// instead: the simulator's CPU cost, layer counts, layer micro-timings at the
// run's own sizes, and a Chrome trace-event file (Perfetto loads it).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/worlds.h"

namespace perfbench {
namespace {

using remon::MveeMode;

// Set-up is a few milliseconds: take this many samples for its median.
constexpr size_t kSetupSamples = 31;
// The open-loop service-level objective that defines max_rate_under_slo.
constexpr double kSloP99Ms = 1.0;
constexpr double kSloFailureRate = 0.001;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "remon_perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: remon_perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1 --trace-out PATH]\nworkloads:");
  for (const std::string& n : ScenarioNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (FindScenario(a.workload) == nullptr) {
    Usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (!(a.seconds > 0)) {
    Usage("--seconds must be positive");
  }
  if (a.trace && a.trace_out.empty()) {
    Usage("--trace 1 needs --trace-out PATH");
  }
  return a;
}

// Latency percentile in ms over every planned request of `run`, timed from
// its due time; a failed request counts as `fail_ms`, above every limit.
double LatencyPercentileMs(const WorldRun& run, double p, double fail_ms) {
  std::vector<double> ms;
  ms.reserve(run.records.size());
  for (const RequestRecord& r : run.records) {
    ms.push_back(r.ok ? static_cast<double>(r.done - r.due) / 1e6 : fail_ms);
  }
  return ms.empty() ? fail_ms : Percentile(std::move(ms), p);
}

double FailureRate(const WorldRun& run) {
  return run.records.empty() ? 1.0
                             : static_cast<double>(run.Failed()) /
                                   static_cast<double>(run.records.size());
}

double ThroughputPerS(const WorldRun& run) {
  TimeNs span = run.Span();
  return span > 0 ? static_cast<double>(run.Completed()) / (static_cast<double>(span) / 1e9)
                  : 0.0;
}

// Output checks: a failed one makes the run's result incorrect.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
    }
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// The invariants every world must hold, whatever its load.
void CheckWorld(const Scenario& sc, const Inputs& in, const WorldRun& run, Checks* checks) {
  const std::string& l = run.label;
  checks->Expect(run.outcome == Outcome::kDone, l + ": " + OutcomeName(run.outcome));
  checks->Expect(!run.diverged && run.stats.divergences_detected == 0,
                 l + ": the monitor reported a divergence");
  // The client received exactly the reply bytes its completed requests asked
  // for (records and reply sizes flatten in the same order).
  uint64_t expected = 0;
  size_t i = 0;
  for (const std::vector<uint32_t>& sizes : in.reply_bytes) {
    for (uint32_t b : sizes) {
      expected += i < run.records.size() && run.records[i].ok ? b : 0;
      ++i;
    }
  }
  checks->Expect(i == run.records.size() && run.bytes_received == expected,
                 l + ": client bytes received differ from the replies asked for");
  if (sc.open_loop) {
    size_t accounted = 0;
    for (const RequestRecord& r : run.records) {
      accounted += r.done >= 0 ? 1 : 0;
    }
    // Every arrival either completed or failed; none vanished.
    checks->Expect(static_cast<size_t>(run.arrived) == i && accounted == i,
                   l + ": completed + failed != arrived");
  } else {
    checks->Expect(run.Failed() == 0, l + ": requests failed");
  }
}

// The host CPU of one run, robust to interference that comes and goes: every
// repetition runs the same watchdog slices, so each slice's median over the
// repetitions is summed.
double SliceMedianSum(const std::vector<std::vector<double>>& reps) {
  double sum = 0;
  for (size_t i = 0; !reps.empty() && i < reps[0].size(); ++i) {
    std::vector<double> slice;
    for (const std::vector<double>& rep : reps) {
      if (i < rep.size()) {
        slice.push_back(rep[i]);
      }
    }
    sum += Median(std::move(slice));
  }
  return sum;
}

struct Rung {
  double rate = 0;
  WorldRun run;
};

void PrintMetric(const Metric& m) {
  std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- Trace assembly -------------------------------------------------------------

void AddWorldSpans(TraceWriter* trace, const WorldRun& run) {
  int pid = trace->AddProcess("virtual time: " + run.label);
  for (size_t i = 0; i < run.records.size(); ++i) {
    const RequestRecord& r = run.records[i];
    if (r.due < 0) {
      continue;
    }
    TimeNs end = r.done >= 0 ? r.done : run.end;
    std::string args = "{\"id\":" + std::to_string(i) +
                       ",\"failed\":" + (r.ok ? "false" : "true") + "}";
    // Async ids are trace-wide: the world's pid keeps the worlds apart.
    uint64_t id = static_cast<uint64_t>(pid) << 32 | i;
    trace->AsyncBegin(pid, "request", id, static_cast<double>(r.due) / 1e3, args);
    if (r.connected >= 0) {
      trace->AsyncBegin(pid, "connect", id, static_cast<double>(r.due) / 1e3);
      trace->AsyncEnd(pid, "connect", id, static_cast<double>(r.connected) / 1e3);
    }
    if (r.first_byte >= 0) {
      TimeNs sent = r.connected >= 0 ? r.connected : r.due;
      trace->AsyncBegin(pid, "first_byte", id, static_cast<double>(sent) / 1e3);
      trace->AsyncEnd(pid, "first_byte", id, static_cast<double>(r.first_byte) / 1e3);
    }
    trace->AsyncEnd(pid, "request", id, static_cast<double>(end) / 1e3);
  }
  for (const KillRecord& k : run.kills) {
    TimeNs end = k.joined >= 0 ? k.joined : run.end;
    trace->Complete(pid, 1, "replica killed -> replacement joined",
                    static_cast<double>(k.killed) / 1e3,
                    static_cast<double>(end - k.killed) / 1e3,
                    k.joined >= 0 ? "{\"joined\":true}" : "{\"joined\":false}");
  }
}

// Per-slice host span plus counter tracks for the per-layer counts. Adds the
// CPU seconds spent recording to `*recording_s`: the tracing overhead.
SliceHook TraceSlices(TraceWriter* trace, int pid, double* recording_s) {
  return [trace, pid, recording_s](remon::Simulator& sim, double begin_s, double end_s) {
    const double cpu0 = ProcessCpuSeconds();
    const remon::SimStats& s = sim.stats();
    std::string args = "{\"virtual_ms\":" + Num(static_cast<double>(sim.now()) / 1e6) + "}";
    trace->Complete(pid, 1, "sim.Run slice", begin_s * 1e6, (end_s - begin_s) * 1e6, args);
    double ts = end_s * 1e6;
    trace->Counter(pid, "kernel.syscalls", ts, static_cast<double>(s.syscalls_total));
    trace->Counter(pid, "ghumvee.monitored", ts, static_cast<double>(s.syscalls_monitored));
    trace->Counter(pid, "kernel.ptrace_stops", ts, static_cast<double>(s.ptrace_stops));
    trace->Counter(pid, "rb.entries", ts, static_cast<double>(s.rb_entries));
    trace->Counter(pid, "rb.futex_waits", ts, static_cast<double>(s.rb_futex_waits));
    trace->Counter(pid, "transport.frames", ts, static_cast<double>(s.rb_frames_sent));
    trace->Counter(pid, "sync.records", ts, static_cast<double>(s.sync_ops_recorded));
    trace->Counter(pid, "sim.events", ts, static_cast<double>(sim.queue().executed_count()));
    trace->Counter(pid, "sim.cpu_busy_ms", ts,
                   static_cast<double>(sim.cpus().total_busy()) / 1e6);
    *recording_s += ProcessCpuSeconds() - cpu0;
  };
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  HostSeconds();  // Anchor the host clock at start-up.
  const Scenario& sc = *FindScenario(args.workload);
  const double rate = sc.open_loop ? sc.reference_rate : 0;
  const Inputs in = MakeInputs(sc, args.seed, rate);
  const Watchdog wd;
  const double fail_ms = static_cast<double>(wd.virtual_cap) / 1e6;
  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::printf("workload %s, seed %llu, %.3g s measured%s\n", sc.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? ", traced" : "");

  // The native twin: same seed, same inputs, no monitor.
  WorldRun native = RunWorld(sc, in, MveeMode::kNative, args.seed, rate, wd, false);
  CheckWorld(sc, in, native, &checks);
  attempted += native.records.size();
  failed += native.Failed();

  // The measured MVEE run, repeated for --seconds of host time.
  std::vector<double> host_cpu;
  std::vector<std::vector<double>> host_slices;
  std::vector<double> setup;
  WorldRun mvee;
  const double measure_from = HostSeconds();
  do {
    WorldRun rep = RunWorld(sc, in, MveeMode::kRemon, args.seed, rate, wd, false);
    attempted += rep.records.size();
    failed += rep.Failed();
    host_cpu.push_back(rep.host_run_s);
    host_slices.push_back(rep.host_slice_s);
    setup.push_back(rep.host_setup_s);
    if (host_cpu.size() == 1) {
      CheckWorld(sc, in, rep, &checks);
      mvee = std::move(rep);
    } else {
      checks.Expect(rep.VirtualDigest() == mvee.VirtualDigest(),
                    "repetition " + std::to_string(host_cpu.size()) +
                        " did not reproduce the virtual plane bit-exactly");
    }
  } while (checks.ok() && HostSeconds() - measure_from < args.seconds);
  while (setup.size() < kSetupSamples) {
    setup.push_back(
        RunWorld(sc, in, MveeMode::kRemon, args.seed, rate, wd, true).host_setup_s);
  }
  if (!sc.open_loop) {
    checks.Expect(mvee.Completed() == native.Completed() &&
                      mvee.bytes_received == native.bytes_received,
                  "MVEE and native twin disagree on requests or bytes received");
  }
  for (size_t k = 0; k + 1 < mvee.kills.size(); ++k) {
    checks.Expect(mvee.kills[k].joined >= 0, "a killed replica was never replaced");
  }

  // The open-loop rate ladder (traced runs only, which report its results):
  // the reference rung is the measured run.
  std::vector<Rung> ladder;
  for (double r : args.trace ? sc.ladder : std::vector<double>{}) {
    if (r == rate) {
      ladder.push_back(Rung{r, mvee});
      continue;
    }
    Inputs rin = MakeInputs(sc, args.seed, r);
    ladder.push_back(Rung{r, RunWorld(sc, rin, MveeMode::kRemon, args.seed, r, wd, false)});
    CheckWorld(sc, rin, ladder.back().run, &checks);
  }

  // End-to-end metrics: the virtual plane, plus memory and set-up time, so that
  // work moved into set-up shows.
  Metrics e2e;
  e2e.push_back({"normalized_time",
                 native.Span() > 0 ? static_cast<double>(mvee.Span()) /
                                         static_cast<double>(native.Span())
                                   : 0.0,
                 "x"});
  e2e.push_back({"throughput", ThroughputPerS(mvee), "1/s"});
  e2e.push_back({"p50_latency_ms", LatencyPercentileMs(mvee, 50, fail_ms), "ms"});
  e2e.push_back({"p99_latency_ms", LatencyPercentileMs(mvee, 99, fail_ms), "ms"});
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e.push_back({"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"});
  e2e.push_back({"setup_s", Median(setup), "s"});

  // Simulator speed: tracked with the per-layer metrics, not gated, because
  // host CPU speed drifts by a third over minutes on a shared machine.
  const double cpu_s = SliceMedianSum(host_slices);
  Metrics host;
  host.push_back({"host_cpu_s", cpu_s, "s"});
  host.push_back({"host_ns_per_syscall",
                  mvee.stats.syscalls_total > 0
                      ? cpu_s * 1e9 / static_cast<double>(mvee.stats.syscalls_total)
                      : 0.0,
                  "ns"});

  // Workload-specific results: reported with the per-layer metrics, because
  // they do not apply to every workload.
  Metrics specific;
  specific.push_back({"failure_rate", FailureRate(mvee), "ratio"});
  double knee = 0;
  for (const Rung& g : ladder) {
    if (LatencyPercentileMs(g.run, 99, fail_ms) <= kSloP99Ms &&
        FailureRate(g.run) <= kSloFailureRate) {
      knee = std::max(knee, g.rate);
    }
  }
  specific.push_back({"max_rate_under_slo", knee, "conn/s"});
  std::vector<double> recovery_ms;
  for (const KillRecord& k : mvee.kills) {
    if (k.joined >= 0) {
      recovery_ms.push_back(static_cast<double>(k.joined - k.killed) / 1e6);
    }
  }
  specific.push_back({"recovery_ms", Median(recovery_ms), "ms"});

  std::printf("\nrequests: MVEE %llu/%zu completed, native %llu/%zu; %zu repetitions\n",
              static_cast<unsigned long long>(mvee.Completed()), mvee.records.size(),
              static_cast<unsigned long long>(native.Completed()), native.records.size(),
              host_cpu.size());
  std::printf("host CPU s per repetition:");
  for (double v : host_cpu) {
    std::printf(" %.4f", v);
  }
  std::printf("\n");
  if (!mvee.kills.empty()) {
    size_t joined = 0;
    for (const KillRecord& k : mvee.kills) {
      joined += k.joined >= 0 ? 1 : 0;
    }
    std::printf("fault injector: %zu kills, %zu replacements joined\n", mvee.kills.size(),
                joined);
  }
  if (!ladder.empty()) {
    std::printf("\nrate ladder (MVEE; latency timed from the scheduled arrival):\n");
    std::printf("  %10s %12s %10s %10s %12s\n", "conn/s", "throughput", "p50 ms", "p99 ms",
                "failure");
    for (const Rung& g : ladder) {
      std::printf("  %10.0f %12.1f %10.4g %10.4g %12.6f\n", g.rate, ThroughputPerS(g.run),
                  LatencyPercentileMs(g.run, 50, fail_ms),
                  LatencyPercentileMs(g.run, 99, fail_ms), FailureRate(g.run));
    }
    std::printf("  native at %.0f conn/s: p50 %.4g ms, p99 %.4g ms\n", rate,
                LatencyPercentileMs(native, 50, fail_ms),
                LatencyPercentileMs(native, 99, fail_ms));
  }
  std::printf("\nend-to-end metrics:\n");
  for (const Metric& m : e2e) {
    PrintMetric(m);
  }
  std::printf("simulator speed:\n");
  for (const Metric& m : host) {
    PrintMetric(m);
  }

  Metrics reported = e2e;
  if (args.trace) {
    TraceWriter trace;
    int host_pid = trace.AddProcess("host time: " + sc.name + " seed " +
                                    std::to_string(args.seed));
    double recording_s = 0;
    WorldRun traced = RunWorld(sc, in, MveeMode::kRemon, args.seed, rate, wd, false,
                               TraceSlices(&trace, host_pid, &recording_s));
    attempted += traced.records.size();
    failed += traced.Failed();
    checks.Expect(traced.VirtualDigest() == mvee.VirtualDigest(),
                  "the traced run did not reproduce the untraced virtual plane");

    // Every workload reports every per-layer name: the ladder rungs of the
    // open-loop workloads read 0 elsewhere.
    Metrics layer = host;
    layer.insert(layer.end(), specific.begin(), specific.end());
    std::set<double> rates;
    for (const std::string& name : ScenarioNames()) {
      rates.insert(FindScenario(name)->ladder.begin(), FindScenario(name)->ladder.end());
    }
    for (double r : rates) {
      auto rung = std::find_if(ladder.begin(), ladder.end(),
                               [r](const Rung& g) { return g.rate == r; });
      std::string key = "ladder." + std::to_string(static_cast<int>(r / 1000)) + "k.";
      layer.push_back({key + "failure_rate",
                       rung == ladder.end() ? 0.0 : FailureRate(rung->run), "ratio"});
      layer.push_back({key + "p99_latency_ms",
                       rung == ladder.end() ? 0.0 : LatencyPercentileMs(rung->run, 99, fail_ms),
                       "ms"});
    }
    AddLayerCounts(traced, &layer);
    layer.push_back({"sim.host_ns_per_event",
                     traced.events > 0 ? cpu_s * 1e9 / static_cast<double>(traced.events) : 0.0,
                     "ns"});
    // Measured inside the hook: the traced run's total minus host_cpu_s is
    // printed too, but host-speed drift between the runs swamps it.
    layer.push_back({"trace.overhead_host_cpu_s", recording_s, "s"});
    std::printf("traced run: %.4f host CPU s (untraced %.4f), %.4f s recording\n",
                traced.host_run_s, cpu_s, recording_s);
    AddMicroTimings(SizesOf(sc, traced), &trace, host_pid, 2, &layer);

    AddWorldSpans(&trace, traced);
    AddWorldSpans(&trace, native);
    for (const Rung& g : ladder) {
      if (g.rate != rate) {
        AddWorldSpans(&trace, g.run);
      }
    }
    checks.Expect(trace.WriteTo(args.trace_out),
                  "could not write the trace to " + args.trace_out);
    std::printf("\ntrace: %s (%.1f MiB)\nper-layer metrics (traced run):\n",
                args.trace_out.c_str(), static_cast<double>(trace.bytes()) / (1024.0 * 1024.0));
    for (const Metric& m : layer) {
      PrintMetric(m);
    }
    reported = layer;
  }

  for (const Metric& m : reported) {
    checks.Expect(std::isfinite(m.value), m.name + " is not a finite number");
  }
  for (const std::string& f : checks.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              checks.ok() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), Num(std::isfinite(m.value) ? m.value : 0.0).c_str(),
                m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
