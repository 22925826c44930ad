#include "src/workloads/clients.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/kernel/abi.h"
#include "src/sim/check.h"
#include "src/sim/rng.h"
#include "src/workloads/servers.h"

namespace remon {

namespace {

// FD-table guard of a swarm: the spawner reaps finished connections before
// exceeding this many in flight. Arrivals forced to wait are counted as `stalled`;
// a pure open-loop run keeps this above the offered concurrency.
constexpr int kSwarmMaxInFlight = 512;

// Shared across connection threads of one client run.
struct ClientShared {
  int remaining = 0;      // ab-style request budget.
  ClientStats* stats = nullptr;
};

// One connection: connect, then request/response until the budget runs out.
ProgramFn ConnectionBody(ClientSpec spec, std::shared_ptr<ClientShared> shared,
                         int join_wr) {
  return [spec, shared, join_wr](Guest& g) -> GuestTask<void> {
    Kernel* kernel = g.kernel();
    int64_t s = co_await g.Socket(kAfInet, kSockStream);
    REMON_CHECK(s >= 0);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = spec.port;
    addr.sin_addr = spec.server_machine;
    g.Poke(sa, &addr, sizeof(addr));
    int64_t crc = co_await g.Connect(static_cast<int>(s), sa, sizeof(addr));
    GuestAddr req = g.Alloc(kRequestBytes);
    GuestAddr buf = g.Alloc(16 * 1024);
    char line[kRequestBytes + 1];
    std::snprintf(line, sizeof(line), "R%08llu\n",
                  static_cast<unsigned long long>(spec.request_bytes));
    g.Poke(req, line, kRequestBytes);

    if (crc == 0) {
      while (shared->remaining > 0) {
        --shared->remaining;
        TimeNs sent_at = kernel->now();
        if (shared->stats->started < 0) {
          shared->stats->started = sent_at;
        }
        int64_t w = co_await g.Write(static_cast<int>(s), req, kRequestBytes);
        if (w != static_cast<int64_t>(kRequestBytes)) {
          ++shared->stats->errors;
          break;
        }
        uint64_t got = 0;
        bool ok = true;
        while (got < spec.request_bytes) {
          int64_t n = co_await g.Read(static_cast<int>(s), buf,
                                      std::min<uint64_t>(16 * 1024,
                                                         spec.request_bytes - got));
          if (n <= 0) {
            ok = false;
            break;
          }
          got += static_cast<uint64_t>(n);
        }
        if (!ok) {
          ++shared->stats->errors;
          break;
        }
        shared->stats->bytes_received += got;
        ++shared->stats->completed;
        shared->stats->finished = kernel->now();
        shared->stats->latencies.push_back(kernel->now() - sent_at);
      }
    } else {
      ++shared->stats->errors;
    }
    co_await g.Close(static_cast<int>(s));
    GuestAddr done = g.Alloc(1);
    g.Poke(done, "D", 1);
    co_await g.Write(join_wr, done, 1);
  };
}

// One swarm arrival: a short-lived connection doing one request/response round.
// Latency is arrival-to-close, the open-loop tail metric.
ProgramFn SwarmConnection(SwarmSpec spec, SwarmStats* stats, int join_wr) {
  return [spec, stats, join_wr](Guest& g) -> GuestTask<void> {
    Kernel* kernel = g.kernel();
    TimeNs arrived_at = kernel->now();
    int64_t s = co_await g.Socket(kAfInet, kSockStream);
    REMON_CHECK(s >= 0);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = spec.port;
    addr.sin_addr = spec.server_machine;
    g.Poke(sa, &addr, sizeof(addr));
    int64_t crc = co_await g.Connect(static_cast<int>(s), sa, sizeof(addr));
    if (crc == 0) {
      GuestAddr req = g.Alloc(kRequestBytes);
      // Sized to the response, not a fixed 16K: connection allocations are never
      // reclaimed (bump allocator), and a 10^4-connection swarm process would
      // exhaust its 32M static region on oversized buffers.
      uint64_t buf_bytes = std::min<uint64_t>(16 * 1024, spec.request_bytes);
      GuestAddr buf = g.Alloc(buf_bytes);
      char line[kRequestBytes + 1];
      std::snprintf(line, sizeof(line), "R%08llu\n",
                    static_cast<unsigned long long>(spec.request_bytes));
      g.Poke(req, line, kRequestBytes);
      int64_t w = co_await g.Write(static_cast<int>(s), req, kRequestBytes);
      bool ok = w == static_cast<int64_t>(kRequestBytes);
      uint64_t got = 0;
      while (ok && got < spec.request_bytes) {
        int64_t n = co_await g.Read(static_cast<int>(s), buf,
                                    std::min<uint64_t>(buf_bytes, spec.request_bytes - got));
        ok = n > 0;
        got += ok ? static_cast<uint64_t>(n) : 0;
      }
      if (ok) {
        stats->bytes_received += got;
        ++stats->requests;
        ++stats->completed;
        stats->finished = kernel->now();
        stats->latencies.push_back(kernel->now() - arrived_at);
      } else {
        ++stats->errors;
      }
    } else {
      ++stats->errors;
    }
    co_await g.Close(static_cast<int>(s));
    GuestAddr done = g.Alloc(1);
    g.Poke(done, "D", 1);
    co_await g.Write(join_wr, done, 1);
  };
}

}  // namespace

ProgramFn ClientProgram(const ClientSpec& spec, ClientStats* stats) {
  return [spec, stats](Guest& g) -> GuestTask<void> {
    auto shared = std::make_shared<ClientShared>();
    shared->remaining = spec.total_requests;
    shared->stats = stats;

    GuestAddr join_pipe = g.Alloc(8);
    REMON_CHECK(0 == co_await g.Pipe(join_pipe));
    int join_rd = static_cast<int>(g.PeekU32(join_pipe));
    int join_wr = static_cast<int>(g.PeekU32(join_pipe + 4));

    for (int c = 0; c < spec.connections; ++c) {
      uint64_t fn = g.RegisterThreadFn(ConnectionBody(spec, shared, join_wr));
      co_await g.SpawnThread(fn);
    }
    GuestAddr sink = g.Alloc(64);
    int done = 0;
    while (done < spec.connections) {
      int64_t n = co_await g.Read(join_rd, sink,
                                  static_cast<uint64_t>(spec.connections - done));
      REMON_CHECK(n > 0);
      done += static_cast<int>(n);
    }
    co_await g.Close(join_rd);
    co_await g.Close(join_wr);
  };
}

DurationNs SwarmStats::Percentile(double p) const {
  if (latencies.empty()) {
    return 0;
  }
  std::vector<DurationNs> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  double idx = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  size_t k = static_cast<size_t>(idx);
  return sorted[std::min(k, sorted.size() - 1)];
}

void SwarmStats::Merge(const SwarmStats& o) {
  arrived += o.arrived;
  completed += o.completed;
  requests += o.requests;
  errors += o.errors;
  stalled += o.stalled;
  bytes_received += o.bytes_received;
  if (o.started >= 0 && (started < 0 || o.started < started)) {
    started = o.started;
  }
  finished = std::max(finished, o.finished);
  latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
}

ProgramFn SwarmProgram(const SwarmSpec& spec, SwarmStats* stats,
                       std::function<void()> on_done) {
  return [spec, stats, on_done](Guest& g) -> GuestTask<void> {
    Kernel* kernel = g.kernel();
    Rng rng(spec.seed);

    GuestAddr join_pipe = g.Alloc(8);
    REMON_CHECK(0 == co_await g.Pipe(join_pipe));
    int join_rd = static_cast<int>(g.PeekU32(join_pipe));
    int join_wr = static_cast<int>(g.PeekU32(join_pipe + 4));
    GuestAddr sink = g.Alloc(256);

    TimeNs t0 = kernel->now();
    stats->started = t0;
    // Piecewise-constant rate schedule; with no phases, one infinite phase.
    size_t phase = 0;
    double rate = spec.phases.empty() ? spec.arrival_rate : spec.phases[0].rate;
    TimeNs phase_end =
        spec.phases.empty() ? kTimeNever : t0 + spec.phases[0].duration;
    TimeNs next_arrival = t0;
    int in_flight = 0;

    for (int c = 0; c < spec.connections; ++c) {
      // Exponential inter-arrival at the current phase's rate. The draw order is
      // fixed (one per arrival), so the whole arrival process is a pure function
      // of the seed.
      double u = rng.NextDouble();
      next_arrival += static_cast<DurationNs>(-std::log(1.0 - u) / rate * 1e9);
      while (phase + 1 < spec.phases.size() && next_arrival >= phase_end) {
        ++phase;
        rate = spec.phases[phase].rate;
        phase_end += spec.phases[phase].duration;
      }
      if (!spec.phases.empty() && next_arrival >= phase_end) {
        break;  // The schedule ran out: the spike is over.
      }
      // FD-table guard: reap before spawning past the in-flight cap.
      while (in_flight >= kSwarmMaxInFlight) {
        int64_t n = co_await g.Read(join_rd, sink, 256);
        REMON_CHECK(n > 0);
        in_flight -= static_cast<int>(n);
      }
      TimeNs now = kernel->now();
      if (now < next_arrival) {
        co_await g.SleepNs(next_arrival - now);
      } else if (now > next_arrival) {
        ++stats->stalled;  // The guard (or scheduling) pushed this arrival late.
      }
      uint64_t fn = g.RegisterThreadFn(SwarmConnection(spec, stats, join_wr));
      co_await g.SpawnThread(fn);
      ++in_flight;
      ++stats->arrived;
    }
    while (in_flight > 0) {
      int64_t n = co_await g.Read(join_rd, sink, 256);
      REMON_CHECK(n > 0);
      in_flight -= static_cast<int>(n);
    }
    co_await g.Close(join_rd);
    co_await g.Close(join_wr);
    if (on_done) {
      on_done();
    }
  };
}

}  // namespace remon
