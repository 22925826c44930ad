#include "src/workloads/suites.h"

#include <algorithm>
#include <cmath>

#include "src/core/sync_agent.h"
#include "src/kernel/abi.h"
#include "src/sim/check.h"

namespace remon {

namespace {

// Distinct lock objects a sync rotation cycles over.
constexpr uint32_t kSyncObjects = 8;

// Calibrated per-call MVEE costs with two replicas (virtual seconds per call), used
// to translate the paper's overhead bars into system-call rates:
//   overhead_cp - overhead_ip = rate * (kCpCost - kIpCost).
// kCpCost: a monitored call (4 ptrace stops, lockstep, replication).
// kIpCost: an unmonitored call through IP-MON (RB append + slave copy).
// These mirror the measured costs of the simulated monitors: (MVEE time - native
// time) / native syscalls of an I/O-heavy 2-replica suite run, which remon_cli's
// report gives for any workload (--mode=ghumvee for kCpCost, --mode=remon
// --level=nonsocket_rw for kIpCost).
constexpr double kCpCost = 19.8e-6;
constexpr double kIpCost = 0.7e-6;
// With four worker threads the monitor pipelines stops across ranks, so the
// effective wall-clock cost per call is lower (measured with the same probe).
constexpr double kCpCostMt = 9.2e-6;
constexpr double kIpCostMt = 0.2e-6;

// Native cost of one system call (trap + service), for iteration budgeting.
constexpr double kNativeCallCost = 0.5e-6;

// Builds a spec from a 6-level ladder of paper bars:
//   bars = {no-ipmon, BASE, NONSOCKET_RO, NONSOCKET_RW, SOCKET_RO, SOCKET_RW}.
// Consecutive deltas resolve the call mix by category; the final bar's residual
// (minus the remaining IP-MON cost) becomes memory pressure.
WorkloadSpec FromLadder(const std::string& name, const std::string& suite, int threads,
                        const double (&bars)[6], double native_seconds,
                        uint64_t io_size) {
  WorkloadSpec spec;
  spec.name = name;
  spec.suite = suite;
  spec.threads = threads;
  spec.io_size = io_size;
  spec.paper_ghumvee = bars[0];
  spec.paper_remon = bars[3];  // Fig. 3 reports the NONSOCKET_RW level.

  const double cp_cost = threads > 1 ? kCpCostMt : kCpCost;
  const double ip_cost = threads > 1 ? kIpCostMt : kIpCost;
  const double delta = cp_cost - ip_cost;
  double rate_base = std::max(0.0, (bars[0] - bars[1]) / delta);
  double rate_nsro = std::max(0.0, (bars[1] - bars[2]) / delta);
  double rate_nsrw = std::max(0.0, (bars[2] - bars[3]) / delta);
  double rate_sock = std::max(0.0, (bars[3] - bars[5]) / delta);  // RO+RW halves.
  // Rates are aggregate over all worker threads.
  double total_rate = rate_base + rate_nsro + rate_nsrw + rate_sock;

  spec.mem_intensity = std::max(0.0, bars[5] - 1.0 - total_rate * ip_cost);

  if (total_rate < 50.0) {
    // Essentially syscall-free: a sparse heartbeat of BASE queries.
    spec.base_queries = 1;
    spec.compute_per_iter = Micros(400);
    spec.iterations = static_cast<int>(native_seconds * 1e9 /
                                       static_cast<double>(spec.compute_per_iter)) /
                      threads;
    spec.iterations = std::max(spec.iterations, 10);
    return spec;
  }

  // Choose small per-iteration counts proportional to the category rates.
  double min_rate = total_rate;
  for (double r : {rate_base, rate_nsro, rate_nsrw, rate_sock}) {
    if (r > 1.0) {
      min_rate = std::min(min_rate, r);
    }
  }
  auto count_for = [&](double r) {
    if (r <= 1.0) {
      return 0;
    }
    return std::max(1, static_cast<int>(std::lround(r / min_rate)));
  };
  spec.base_queries = count_for(rate_base);
  // NONSOCKET_RO split between metadata (unconditional) and reads (conditional).
  int nsro = count_for(rate_nsro);
  spec.file_metadata = nsro / 2;
  spec.file_reads = nsro - nsro / 2;
  spec.file_writes = count_for(rate_nsrw);
  spec.sock_echoes = std::max(0, count_for(rate_sock) / 2);  // Each echo = 2 calls.
  if (count_for(rate_sock) == 1) {
    spec.sock_echoes = 1;
  }

  // Cap the per-iteration footprint; proportions survive, iterations scale.
  while (spec.CallsPerIter() > 24) {
    spec.base_queries = (spec.base_queries + 1) / 2;
    spec.file_metadata = (spec.file_metadata + 1) / 2;
    spec.file_reads = (spec.file_reads + 1) / 2;
    spec.file_writes = (spec.file_writes + 1) / 2;
    spec.sock_echoes = (spec.sock_echoes + 1) / 2;
  }
  int calls = std::max(1, spec.CallsPerIter());

  // Each thread paces itself so the *aggregate* rate across threads hits the target.
  double per_thread_rate = total_rate / threads;
  double iter_seconds = static_cast<double>(calls) / per_thread_rate;
  double compute = iter_seconds - static_cast<double>(calls) * kNativeCallCost;
  spec.compute_per_iter = std::max<DurationNs>(100, static_cast<DurationNs>(compute * 1e9));
  double native_iter = static_cast<double>(spec.compute_per_iter) * 1e-9 +
                       static_cast<double>(calls) * kNativeCallCost;
  spec.iterations = std::max(10, static_cast<int>(native_seconds / native_iter));
  return spec;
}

// Two-bar convenience (Fig. 3 benchmarks): all calls at or below NONSOCKET_RW, with
// a fixed 20/10/35/35 split across base/metadata/read/write.
WorkloadSpec FromBars(const std::string& name, const std::string& suite, int threads,
                      double cp_bar, double ip_bar, double native_seconds = 0.2,
                      uint64_t io_size = 1024) {
  double span = std::max(0.0, cp_bar - ip_bar);
  double bars[6];
  bars[0] = cp_bar;
  // Distribute the relaxable overhead across the ladder per the fixed mix.
  bars[1] = cp_bar - 0.20 * span;
  bars[2] = bars[1] - 0.45 * span;
  bars[3] = ip_bar;
  bars[4] = ip_bar;
  bars[5] = ip_bar;
  WorkloadSpec spec = FromLadder(name, suite, threads, bars, native_seconds, io_size);
  spec.paper_ghumvee = cp_bar;
  spec.paper_remon = ip_bar;
  return spec;
}

}  // namespace

double GeoMean(const std::vector<double>& xs) {
  double log_sum = 0;
  int n = 0;
  for (double x : xs) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0;
}

WorkloadSpec SyncVariant(WorkloadSpec spec, int sync_ops, int max_iterations,
                         int min_threads) {
  spec.sync_ops = sync_ops;
  spec.threads = std::max(spec.threads, min_threads);
  spec.iterations = std::min(spec.iterations, max_iterations);
  return spec;
}

std::vector<WorkloadSpec> ParsecSuite() {
  // Paper bars (no-IPMON, IPMON @ NONSOCKET_RW), Fig. 3 left, 4 worker threads.
  return {
      FromBars("blackscholes", "parsec", 4, 1.09, 1.04),
      FromBars("bodytrack", "parsec", 4, 1.15, 1.03),
      FromBars("dedup", "parsec", 4, 3.53, 1.69, 0.2, 4096),
      FromBars("facesim", "parsec", 4, 1.11, 1.03),
      FromBars("ferret", "parsec", 4, 1.04, 1.11),
      FromBars("fluidanimate", "parsec", 4, 1.28, 1.33),
      FromBars("freqmine", "parsec", 4, 1.06, 1.05),
      FromBars("raytrace", "parsec", 4, 1.03, 1.00),
      FromBars("streamcluster", "parsec", 4, 1.16, 0.97),
      FromBars("swaptions", "parsec", 4, 1.07, 1.07),
      FromBars("vips", "parsec", 4, 1.10, 1.03),
      FromBars("x264", "parsec", 4, 1.11, 1.16),
  };
}

std::vector<WorkloadSpec> SplashSuite() {
  return {
      FromBars("barnes", "splash", 4, 1.48, 1.52),
      FromBars("fft", "splash", 4, 1.03, 1.02),
      FromBars("fmm", "splash", 4, 1.55, 1.13),
      FromBars("lu_cb", "splash", 4, 1.01, 1.00),
      FromBars("lu_ncb", "splash", 4, 0.94, 0.95),
      FromBars("ocean_cp", "splash", 4, 1.06, 1.05),
      FromBars("ocean_ncp", "splash", 4, 1.09, 1.05),
      FromBars("radiosity", "splash", 4, 1.63, 1.38),
      FromBars("radix", "splash", 4, 1.05, 1.05),
      FromBars("raytrace", "splash", 4, 1.17, 1.02),
      FromBars("volrend", "splash", 4, 1.22, 1.07),
      FromBars("water_nsquared", "splash", 4, 1.04, 1.02),
      FromBars("water_spatial", "splash", 4, 4.20, 1.21, 0.1),
  };
}

std::vector<WorkloadSpec> PhoronixSuite() {
  // Fig. 4 ladders: {no-IPMON, BASE, NONSOCKET_RO, NONSOCKET_RW, SOCKET_RO, SOCKET_RW}.
  std::vector<WorkloadSpec> suite;
  {
    double bars[6] = {1.11, 1.11, 1.04, 1.04, 1.04, 1.05};
    suite.push_back(FromLadder("compress-gzip", "phoronix", 1, bars, 0.2, 4096));
  }
  {
    double bars[6] = {1.17, 1.17, 1.08, 1.02, 1.02, 1.02};
    suite.push_back(FromLadder("encode-flac", "phoronix", 1, bars, 0.2, 4096));
  }
  {
    double bars[6] = {1.09, 1.10, 1.06, 1.01, 1.01, 1.01};
    suite.push_back(FromLadder("encode-ogg", "phoronix", 1, bars, 0.2, 4096));
  }
  {
    double bars[6] = {1.05, 1.04, 1.01, 1.00, 1.00, 1.00};
    suite.push_back(FromLadder("mencoder", "phoronix", 1, bars, 0.2, 4096));
  }
  {
    double bars[6] = {2.48, 1.90, 1.90, 1.13, 1.13, 1.13};
    suite.push_back(FromLadder("phpbench", "phoronix", 1, bars, 0.2, 512));
  }
  {
    double bars[6] = {1.47, 1.48, 1.44, 1.22, 1.17, 1.17};
    suite.push_back(FromLadder("unpack-linux", "phoronix", 1, bars, 0.2, 8192));
  }
  {
    double bars[6] = {25.46, 25.36, 24.89, 17.03, 9.18, 3.00};
    suite.push_back(FromLadder("network-loopback", "phoronix", 1, bars, 0.03, 1024));
  }
  return suite;
}

std::vector<WorkloadSpec> SpecCpuSuite() {
  // SPEC CPU 2006 analog (Table 2): compute-bound, sparse system calls; intensities
  // reflect the published memory-boundedness of each benchmark.
  struct SpecRow {
    const char* name;
    double intensity;
  };
  const SpecRow rows[] = {
      {"perlbench", 0.020}, {"bzip2", 0.030},      {"gcc", 0.045},
      {"mcf", 0.110},       {"gobmk", 0.015},      {"hmmer", 0.005},
      {"sjeng", 0.010},     {"libquantum", 0.130}, {"h264ref", 0.020},
      {"omnetpp", 0.085},   {"astar", 0.040},      {"xalancbmk", 0.060},
  };
  std::vector<WorkloadSpec> suite;
  for (const SpecRow& row : rows) {
    WorkloadSpec spec;
    spec.name = row.name;
    spec.suite = "spec";
    spec.threads = 1;
    spec.mem_intensity = row.intensity;
    spec.base_queries = 1;
    spec.file_reads = 1;
    spec.compute_per_iter = Millis(2);  // ~1k calls/s: SPEC syscall rates are tiny.
    spec.iterations = 100;
    spec.io_size = 1024;
    spec.paper_ghumvee = 1.121;  // SPECint averages reported in Table 2.
    spec.paper_remon = 1.031;
    suite.push_back(spec);
  }
  return suite;
}

ProgramFn SuiteProgram(const WorkloadSpec& spec) {
  return [spec](Guest& g) -> GuestTask<void> {
    // --- Setup ------------------------------------------------------------------
    GuestAddr join_pipe = g.Alloc(8);
    int64_t prc = co_await g.Pipe(join_pipe);
    REMON_CHECK(prc == 0);
    int join_rd = static_cast<int>(g.PeekU32(join_pipe));
    int join_wr = static_cast<int>(g.PeekU32(join_pipe + 4));

    // Loopback echo service (for sock_echoes): one echo thread per worker.
    uint16_t port = static_cast<uint16_t>(7000 + (spec.name.size() * 131) % 1000);
    int listen_fd = -1;
    if (spec.sock_echoes > 0) {
      int64_t lfd = co_await g.Socket(kAfInet, kSockStream);
      GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
      GuestSockaddrIn addr;
      addr.sin_port = port;
      addr.sin_addr = kInaddrLoopback;  // Bind binds the caller's own machine.
      g.Poke(sa, &addr, sizeof(addr));
      REMON_CHECK(0 == co_await g.Bind(static_cast<int>(lfd), sa, sizeof(addr)));
      REMON_CHECK(0 == co_await g.Listen(static_cast<int>(lfd), spec.threads + 1));
      listen_fd = static_cast<int>(lfd);
      for (int e = 0; e < spec.threads; ++e) {
        uint64_t io_size = spec.io_size;  // By value: echo threads outlive this frame.
        uint64_t echo_fn =
            g.RegisterThreadFn([listen_fd, io_size](Guest& eg) -> GuestTask<void> {
              int64_t cfd = co_await eg.Accept(listen_fd, 0, 0);
              if (cfd < 0) {
                co_return;
              }
              GuestAddr buf = eg.Alloc(io_size);
              for (;;) {
                int64_t n = co_await eg.Read(static_cast<int>(cfd), buf, io_size);
                if (n <= 0) {
                  break;
                }
                co_await eg.Write(static_cast<int>(cfd), buf, static_cast<uint64_t>(n));
              }
              co_await eg.Close(static_cast<int>(cfd));
            });
        co_await g.SpawnThread(echo_fn);
      }
    }

    // Shared words for the sync rotation (see WorkloadSpec::sync_ops): `turn`
    // carries the next global acquisition slot, `pool` the racy shared counter
    // whose pops the rotation (and, when present, the sync agent) orders.
    GuestAddr turn = 0;
    GuestAddr pool = 0;
    if (spec.sync_ops > 0) {
      turn = g.Alloc(4);
      pool = g.Alloc(4);
      g.PokeU32(turn, 0);
      g.PokeU32(pool, 0);
    }

    // --- Workers ------------------------------------------------------------------
    auto worker_body = [spec, join_wr, port, turn, pool](int worker_id) -> ProgramFn {
      return [spec, join_wr, port, turn, pool, worker_id](Guest& wg) -> GuestTask<void> {
        GuestAddr buf = wg.Alloc(spec.io_size);
        GuestAddr tv = wg.Alloc(sizeof(GuestTimeval));
        GuestAddr st = wg.Alloc(sizeof(GuestStat));
        GuestAddr futex_word = wg.Alloc(4);
        std::string path = "/tmp/suite-" + spec.name + "-t" + std::to_string(worker_id);
        int64_t fd = co_await wg.Open(path, kO_CREAT | kO_RDWR);
        REMON_CHECK(fd >= 0);
        // Seed the file so reads have data.
        co_await wg.Pwrite(static_cast<int>(fd), buf, spec.io_size, 0);

        // Sync-rotation transcript: one append per iteration recording the
        // acquisition order this worker observed (byte-comparable across
        // replica placements).
        int sync_fd = -1;
        GuestAddr sync_buf = 0;
        if (spec.sync_ops > 0) {
          int64_t sfd = co_await wg.Open(
              "/tmp/suite-sync-" + spec.name + "-t" + std::to_string(worker_id),
              kO_CREAT | kO_RDWR);
          REMON_CHECK(sfd >= 0);
          sync_fd = static_cast<int>(sfd);
          sync_buf = wg.Alloc(64 * static_cast<uint64_t>(spec.sync_ops));
        }

        int sock = -1;
        if (spec.sock_echoes > 0) {
          int64_t s = co_await wg.Socket(kAfInet, kSockStream);
          GuestAddr sa = wg.Alloc(sizeof(GuestSockaddrIn));
          GuestSockaddrIn addr;
          addr.sin_port = port;
          addr.sin_addr = kInaddrLoopback;
          wg.Poke(sa, &addr, sizeof(addr));
          int64_t crc = co_await wg.Connect(static_cast<int>(s), sa, sizeof(addr));
          REMON_CHECK(crc == 0);
          sock = static_cast<int>(s);
        }

        for (int iter = 0; iter < spec.iterations; ++iter) {
          co_await wg.Compute(spec.compute_per_iter);
          for (int i = 0; i < spec.base_queries; ++i) {
            if (i % 2 == 0) {
              co_await wg.Gettimeofday(tv);
            } else {
              co_await wg.Getpid();
            }
          }
          for (int i = 0; i < spec.file_metadata; ++i) {
            co_await wg.Fstat(static_cast<int>(fd), st);
          }
          for (int i = 0; i < spec.file_reads; ++i) {
            co_await wg.Pread(static_cast<int>(fd), buf, spec.io_size, 0);
          }
          for (int i = 0; i < spec.file_writes; ++i) {
            co_await wg.Pwrite(static_cast<int>(fd), buf, spec.io_size, 0);
          }
          for (int i = 0; i < spec.pipe_writes; ++i) {
            // Self-pipe round trip (write then read back).
            co_await wg.Pwrite(static_cast<int>(fd), buf, 64, 0);
            co_await wg.Pread(static_cast<int>(fd), buf, 64, 0);
          }
          for (int i = 0; i < spec.sock_echoes; ++i) {
            co_await wg.Write(sock, buf, spec.io_size);
            uint64_t got = 0;
            while (got < spec.io_size) {
              int64_t n = co_await wg.Read(sock, buf, spec.io_size - got);
              if (n <= 0) {
                break;
              }
              got += static_cast<uint64_t>(n);
            }
          }
          for (int i = 0; i < spec.futex_pairs; ++i) {
            co_await wg.Futex(futex_word, kFutexWake, 1);
          }
          if (spec.sync_ops > 0) {
            // Barrier rotation: global slot k = round * threads + worker_id.
            // The turn gate pins the acquisition order (so the popped value —
            // and with it the transcript bytes — cannot depend on replica or
            // placement timing); BeforeAcquire additionally records/replays
            // the order through the sync agent when the replica set has one.
            SyncAgent* agent = wg.process()->sync_agent;
            std::string lines;
            for (int s = 0; s < spec.sync_ops; ++s) {
              uint64_t round =
                  static_cast<uint64_t>(iter) * static_cast<uint64_t>(spec.sync_ops) +
                  static_cast<uint64_t>(s);
              uint32_t slot = static_cast<uint32_t>(
                  round * static_cast<uint64_t>(spec.threads) +
                  static_cast<uint64_t>(worker_id));
              while (wg.PeekU32(turn) != slot) {
                co_await wg.SleepNs(Micros(3));
              }
              uint32_t object = static_cast<uint32_t>(
                  1 + (round + static_cast<uint64_t>(worker_id)) % kSyncObjects);
              if (agent != nullptr) {
                co_await agent->BeforeAcquire(wg, object);
              }
              uint32_t v = wg.PeekU32(pool);  // The racy shared pop.
              wg.PokeU32(pool, v + 1);
              REMON_CHECK(v == slot);
              wg.PokeU32(turn, slot + 1);
              lines += "s" + std::to_string(slot) + "o" + std::to_string(object) +
                       "v" + std::to_string(v) + ";";
            }
            REMON_CHECK(lines.size() <= 64 * static_cast<uint64_t>(spec.sync_ops));
            wg.Poke(sync_buf, lines.data(), lines.size());
            co_await wg.Write(sync_fd, sync_buf, lines.size());
          }
        }

        if (sync_fd >= 0) {
          co_await wg.Close(sync_fd);
        }
        if (sock >= 0) {
          co_await wg.Close(sock);
        }
        co_await wg.Close(static_cast<int>(fd));
        // Join protocol: one byte through the shared pipe (deterministic for the
        // main thread regardless of worker completion order).
        GuestAddr done = wg.Alloc(1);
        wg.Poke(done, "D", 1);
        co_await wg.Write(join_wr, done, 1);
      };
    };

    for (int t = 0; t < spec.threads; ++t) {
      uint64_t fn = g.RegisterThreadFn(worker_body(t));
      co_await g.SpawnThread(fn);
    }

    // Deterministic join: read exactly `threads` bytes.
    GuestAddr sink = g.Alloc(16);
    int collected = 0;
    while (collected < spec.threads) {
      int64_t n = co_await g.Read(join_rd, sink,
                                  static_cast<uint64_t>(spec.threads - collected));
      REMON_CHECK(n > 0);
      collected += static_cast<int>(n);
    }
    if (listen_fd >= 0) {
      co_await g.Close(listen_fd);
    }
    co_await g.Close(join_rd);
    co_await g.Close(join_wr);
  };
}

}  // namespace remon
