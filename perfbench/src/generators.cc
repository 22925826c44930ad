#include "perfbench/src/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/kernel/abi.h"
#include "src/kernel/guest.h"
#include "src/sim/rng.h"
#include "src/workloads/servers.h"

namespace perfbench {

using remon::GuestAddr;
using remon::GuestTask;
using remon::kRequestBytes;

namespace {

// Writes the server protocol's request line asking for `bytes` reply bytes.
void PokeRequest(remon::Guest& g, GuestAddr req, uint64_t bytes) {
  char line[32];  // "R<8 digits>\n" plus room the formatter cannot prove unused.
  std::snprintf(line, sizeof(line), "R%08llu\n", static_cast<unsigned long long>(bytes));
  g.Poke(req, line, kRequestBytes);
}

GuestAddr PokeSockaddr(remon::Guest& g, uint32_t machine, uint16_t port) {
  GuestAddr sa = g.Alloc(sizeof(remon::GuestSockaddrIn));
  remon::GuestSockaddrIn addr;
  addr.sin_port = port;
  addr.sin_addr = machine;
  g.Poke(sa, &addr, sizeof(addr));
  return sa;
}

// One request/response round on a connected socket. Returns the reply bytes
// read, or -1 on a short write, EOF or error.
GuestTask<int64_t> RoundTrip(remon::Guest& g, int fd, GuestAddr req, GuestAddr buf,
                             uint64_t reply_bytes, RequestRecord* rec) {
  if (co_await g.Write(fd, req, kRequestBytes) != static_cast<int64_t>(kRequestBytes)) {
    co_return -1;
  }
  uint64_t got = 0;
  while (got < reply_bytes) {
    int64_t n = co_await g.Read(fd, buf, reply_bytes - got);
    if (n <= 0) {
      co_return -1;
    }
    if (rec->first_byte < 0) {
      rec->first_byte = g.kernel()->now();
    }
    got += static_cast<uint64_t>(n);
  }
  co_return static_cast<int64_t>(got);
}

remon::ProgramFn ClosedConnection(const ClosedLoopPlan* plan, ClosedLoopState* state,
                                  size_t conn) {
  return [plan, state, conn](remon::Guest& g) -> GuestTask<void> {
    remon::Kernel* kernel = g.kernel();
    if (kernel->now() < plan->start_at) {
      co_await g.SleepNs(plan->start_at - kernel->now());
    }
    const std::vector<uint32_t>& sizes = plan->reply_bytes[conn];
    std::vector<RequestRecord>& recs = state->records[conn];
    int64_t fd = co_await g.Socket(remon::kAfInet, remon::kSockStream);
    bool ok = fd >= 0;
    if (ok) {
      GuestAddr sa = PokeSockaddr(g, plan->server_machine, plan->port);
      ok = co_await g.Connect(static_cast<int>(fd), sa, sizeof(remon::GuestSockaddrIn)) == 0;
    }
    uint32_t largest = sizes.empty() ? 1 : *std::max_element(sizes.begin(), sizes.end());
    GuestAddr req = g.Alloc(kRequestBytes);
    GuestAddr buf = g.Alloc(largest);
    for (size_t i = 0; ok && i < sizes.size(); ++i) {
      RequestRecord& rec = recs[i];
      rec.due = kernel->now();  // Closed loop: due the moment the last one ended.
      PokeRequest(g, req, sizes[i]);
      int64_t got = co_await RoundTrip(g, static_cast<int>(fd), req, buf, sizes[i], &rec);
      if (got < 0) {
        ok = false;
        break;
      }
      rec.done = kernel->now();
      rec.ok = true;
      state->bytes_received += static_cast<uint64_t>(got);
    }
    if (fd >= 0) {
      co_await g.Close(static_cast<int>(fd));
    }
    ++state->connections_done;
  };
}

remon::ProgramFn OpenConnection(const OpenLoopPlan* plan, OpenLoopState* state,
                                RequestRecord* rec, uint32_t reply_bytes, int join_wr) {
  return [plan, state, rec, reply_bytes, join_wr](remon::Guest& g) -> GuestTask<void> {
    remon::Kernel* kernel = g.kernel();
    rec->started = kernel->now();
    int64_t fd = co_await g.Socket(remon::kAfInet, remon::kSockStream);
    if (fd >= 0) {
      GuestAddr sa = PokeSockaddr(g, plan->target_machine, plan->port);
      if (co_await g.Connect(static_cast<int>(fd), sa, sizeof(remon::GuestSockaddrIn)) == 0) {
        rec->connected = kernel->now();
        // Sized to the reply: guest allocations are never reclaimed, and a
        // swarm process runs thousands of connections.
        GuestAddr req = g.Alloc(kRequestBytes);
        GuestAddr buf = g.Alloc(reply_bytes);
        PokeRequest(g, req, reply_bytes);
        int64_t got = co_await RoundTrip(g, static_cast<int>(fd), req, buf, reply_bytes, rec);
        rec->ok = got >= 0;
        state->bytes_received += rec->ok ? static_cast<uint64_t>(got) : 0;
      } else {
        rec->connect_failed = true;
      }
      co_await g.Close(static_cast<int>(fd));
    }
    rec->done = kernel->now();
    GuestAddr note = g.Alloc(1);
    g.Poke(note, "D", 1);
    co_await g.Write(join_wr, note, 1);
  };
}

// The arrival spawner of one client process: sleeps until each arrival is due,
// then clones a connection thread for it.
remon::ProgramFn OpenGenerator(const OpenLoopPlan* plan, OpenLoopState* state, size_t p) {
  return [plan, state, p](remon::Guest& g) -> GuestTask<void> {
    remon::Kernel* k = g.kernel();
    GuestAddr pipe_fds = g.Alloc(8);
    bool ok = co_await g.Pipe(pipe_fds) == 0;
    int join_rd = static_cast<int>(g.PeekU32(pipe_fds));
    int join_wr = static_cast<int>(g.PeekU32(pipe_fds + 4));
    GuestAddr sink = g.Alloc(256);
    int in_flight = 0;
    // Reaps finished connections; false if the join pipe broke.
    auto reap = [&g, join_rd, sink, &in_flight]() -> GuestTask<bool> {
      int64_t n = co_await g.Read(join_rd, sink, 256);
      if (n <= 0) {
        co_return false;
      }
      in_flight -= static_cast<int>(n);
      co_return true;
    };
    const std::vector<TimeNs>& due = plan->due[p];
    for (size_t j = 0; ok && j < due.size(); ++j) {
      while (ok && in_flight >= plan->max_in_flight) {
        ok = co_await reap();
      }
      if (k->now() < due[j]) {
        co_await g.SleepNs(due[j] - k->now());
      }
      RequestRecord* rec = &state->records[p][j];
      rec->due = due[j];
      uint64_t fn = g.RegisterThreadFn(
          OpenConnection(plan, state, rec, plan->reply_bytes[p][j], join_wr));
      ++state->arrived;
      if (co_await g.SpawnThread(fn) < 0) {
        rec->done = k->now();  // Never ran: a failed arrival.
        continue;
      }
      ++in_flight;
    }
    while (ok && in_flight > 0) {
      ok = co_await reap();
    }
    co_await g.Close(join_rd);
    co_await g.Close(join_wr);
    ++state->processes_done;
  };
}

}  // namespace

std::vector<std::vector<uint32_t>> DrawReplySizes(uint64_t seed, int connections,
                                                  int requests, uint32_t lo,
                                                  uint32_t hi) {
  remon::Rng rng(seed ^ 0x7265706c79ULL);  // "reply": independent of the sim's stream.
  std::vector<std::vector<uint32_t>> sizes(static_cast<size_t>(connections));
  for (int i = 0; i < requests; ++i) {
    sizes[static_cast<size_t>(i % connections)].push_back(
        static_cast<uint32_t>(rng.NextInRange(lo, hi)));
  }
  return sizes;
}

void SpawnClosedLoop(remon::Kernel* kernel, remon::Process* client,
                     const ClosedLoopPlan* plan, ClosedLoopState* state) {
  state->records.assign(plan->reply_bytes.size(), {});
  for (size_t c = 0; c < plan->reply_bytes.size(); ++c) {
    state->records[c].resize(plan->reply_bytes[c].size());
    kernel->SpawnThread(client, ClosedConnection(plan, state, c));
  }
}

std::vector<std::vector<TimeNs>> DrawArrivals(uint64_t seed, int arrivals, double rate,
                                              TimeNs start_at, int processes) {
  remon::Rng rng(seed ^ 0x6172726976ULL);  // "arriv".
  std::vector<std::vector<TimeNs>> due(static_cast<size_t>(processes));
  double t = static_cast<double>(start_at);
  for (int i = 0; i < arrivals; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
    due[static_cast<size_t>(i % processes)].push_back(static_cast<TimeNs>(t));
  }
  return due;
}

void SpawnOpenLoop(remon::Kernel* kernel, const std::vector<remon::Process*>& clients,
                   const OpenLoopPlan* plan, OpenLoopState* state) {
  state->records.assign(plan->due.size(), {});
  for (size_t p = 0; p < plan->due.size(); ++p) {
    state->records[p].resize(plan->due[p].size());
    kernel->SpawnThread(clients[p], OpenGenerator(plan, state, p));
  }
}

}  // namespace perfbench
