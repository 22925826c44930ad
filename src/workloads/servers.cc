#include "src/workloads/servers.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "src/core/sync_agent.h"
#include "src/kernel/abi.h"
#include "src/sim/check.h"

namespace remon {

namespace {

// Synchronization object the pool workers' shared accept-side bookkeeping hides
// behind (only meaningful when the replica runs a record/replay agent).
constexpr uint32_t kSyncObjConnCounter = 1;

// Response size of a sub-request to the next tier.
constexpr uint64_t kUpstreamBytes = 512;

// Parses "R<8 digits>\n"; returns requested byte count or 0 when malformed.
uint64_t ParseRequest(Guest& g, GuestAddr buf) {
  char line[kRequestBytes + 1] = {0};
  g.Peek(buf, line, kRequestBytes);
  if (line[0] != 'R' || line[kRequestBytes - 1] != '\n') {
    return 0;
  }
  uint64_t n = 0;
  for (int i = 1; i < static_cast<int>(kRequestBytes) - 1; ++i) {
    if (line[i] < '0' || line[i] > '9') {
      return 0;
    }
    n = n * 10 + static_cast<uint64_t>(line[i] - '0');
  }
  return n;
}

// Per-worker request-serving state (log fd, scratch buffers, upstream link).
struct WorkerState {
  GuestAddr in_buf = 0;
  GuestAddr out_buf = 0;
  GuestAddr tv = 0;
  GuestAddr opt = 0;
  GuestAddr up_buf = 0;
  int log_fd = -1;
  // Multi-tier plumbing: one persistent connection to the next tier per worker
  // (opened lazily on the first miss), plus the deterministic hit accumulator.
  int upstream_fd = -1;
  double hit_accum = 0.0;
};

// Opens the worker's scratch state and its access log.
GuestTask<WorkerState> InitWorker(Guest& g, const ServerSpec& spec) {
  WorkerState ws;
  ws.in_buf = g.Alloc(64);
  ws.out_buf = g.Alloc(16 * 1024);
  ws.tv = g.Alloc(sizeof(GuestTimeval));
  ws.opt = g.Alloc(4);
  ws.up_buf = g.Alloc(64);
  std::string path =
      "/var/" + spec.name + "-access-" + std::to_string(g.thread()->rank()) + ".log";
  ws.log_fd = static_cast<int>(co_await g.Open(path, kO_CREAT | kO_WRONLY | kO_APPEND));
  co_return ws;
}

// Connects the worker's persistent upstream link, retrying briefly: tiers start
// concurrently, so the next tier's listeners may come up a few virtual
// milliseconds after ours.
GuestTask<int> EnsureUpstream(Guest& g, const ServerSpec& spec, WorkerState& ws) {
  if (ws.upstream_fd >= 0) {
    co_return ws.upstream_fd;
  }
  for (int attempt = 0; attempt < 50; ++attempt) {
    int64_t fd = co_await g.Socket(kAfInet, kSockStream);
    REMON_CHECK(fd >= 0);
    GuestSockaddrIn addr;
    addr.sin_addr = spec.upstream_machine;
    addr.sin_port = spec.upstream_port;
    g.Poke(ws.up_buf, &addr, sizeof(addr));
    int64_t rc = co_await g.Connect(static_cast<int>(fd), ws.up_buf, sizeof(addr));
    if (rc == 0) {
      // Non-blocking from here on: the fetch path polls with a bounded wait, so
      // an upstream that accepted our SYN into its backlog but never services
      // the connection (e.g. a pool tier out of workers) degrades this worker
      // to local serving instead of wedging it — and every client pinned to its
      // event loop — forever.
      co_await g.Fcntl(static_cast<int>(fd), kF_SETFL, kO_NONBLOCK);
      ws.upstream_fd = static_cast<int>(fd);
      co_return ws.upstream_fd;
    }
    co_await g.Close(static_cast<int>(fd));
    co_await g.SleepNs(Millis(1));
  }
  co_return -1;
}

// Issues one synchronous sub-request to the next tier and drains the response.
// Failure (no upstream reachable, link torn) degrades to serving locally — a
// fleet losing its backend should shed accuracy, not crash the frontend.
GuestTask<void> UpstreamFetch(Guest& g, const ServerSpec& spec, WorkerState& ws) {
  int fd = co_await EnsureUpstream(g, spec, ws);
  if (fd < 0) {
    co_return;
  }
  char line[kRequestBytes + 2];
  std::snprintf(line, sizeof(line), "R%08llu\n",
                static_cast<unsigned long long>(kUpstreamBytes));
  g.Poke(ws.up_buf, line, kRequestBytes);
  // ~40 ms of 100 us polls. Plenty for a healthy tier (one service time + two
  // link crossings), short enough that a wedged one costs a bounded stall.
  int patience = 400;
  uint64_t put = 0;
  while (put < kRequestBytes) {
    int64_t n = co_await g.Write(fd, ws.up_buf + put, kRequestBytes - put);
    if (n == -kEAGAIN && --patience > 0) {
      co_await g.SleepNs(Micros(100));
      continue;
    }
    if (n <= 0) {
      co_await g.Close(fd);
      ws.upstream_fd = -1;
      co_return;
    }
    put += static_cast<uint64_t>(n);
  }
  uint64_t got = 0;
  while (got < kUpstreamBytes) {
    uint64_t chunk = std::min<uint64_t>(16 * 1024, kUpstreamBytes - got);
    int64_t n = co_await g.Read(fd, ws.out_buf, chunk);
    if (n == -kEAGAIN && --patience > 0) {
      co_await g.SleepNs(Micros(100));
      continue;
    }
    if (n <= 0) {
      co_await g.Close(fd);
      ws.upstream_fd = -1;
      co_return;
    }
    got += static_cast<uint64_t>(n);
  }
}

// Serves one parsed request on `fd`: housekeeping + compute + response, mirroring a
// real server's per-request syscall footprint (timestamp, TCP_CORK-style options,
// access-log append).
GuestTask<void> ServeRequest(Guest& g, int fd, uint64_t response_bytes,
                             const ServerSpec& spec, WorkerState& ws) {
  co_await g.Gettimeofday(ws.tv);
  co_await g.Setsockopt(fd, 6, 3 /*TCP_CORK*/, ws.opt, 4);
  if (spec.upstream_port != 0) {
    // Tier miss/hit decision: a credit accumulator, so a hit ratio of 0.75
    // serves exactly 3 of every 4 requests locally — identically in every
    // replica (no randomness may leak into replicated control flow).
    ws.hit_accum += spec.upstream_hit_ratio;
    if (ws.hit_accum >= 1.0) {
      ws.hit_accum -= 1.0;
    } else {
      co_await UpstreamFetch(g, spec, ws);
    }
  }
  co_await g.Compute(spec.service_compute);
  uint64_t sent = 0;
  while (sent < response_bytes) {
    uint64_t chunk = std::min<uint64_t>(16 * 1024, response_bytes - sent);
    int64_t n = co_await g.Write(fd, ws.out_buf, chunk);
    if (n <= 0) {
      break;
    }
    sent += static_cast<uint64_t>(n);
  }
  co_await g.Setsockopt(fd, 6, 3 /*uncork*/, ws.opt, 4);
  // Per-rank housekeeping burst: each append is a small bounded-latency
  // unmonitored call on this worker's own RB sub-buffer.
  for (int i = 0; i < spec.log_writes && ws.log_fd >= 0; ++i) {
    co_await g.Write(ws.log_fd, ws.out_buf, 64);
  }
}

// Reads exactly one 10-byte request; returns false on EOF/error.
GuestTask<int> ReadRequest(Guest& g, int fd, GuestAddr buf) {
  uint64_t got = 0;
  while (got < kRequestBytes) {
    int64_t n = co_await g.Read(fd, buf + got, kRequestBytes - got);
    if (n <= 0) {
      co_return 0;
    }
    got += static_cast<uint64_t>(n);
  }
  co_return 1;
}

// A connection-per-thread worker: blocking accept loop (apache/memcached style).
// `conn_counter` is a shared guest word the workers bump per accepted connection
// (global connection ids, as real pool servers keep for logs/stats). The pop is
// racy across worker threads, so under an MVEE it must be serialized by the
// record/replay agent: the ticket feeds the access-log write's arguments, and a
// replica replaying the acquisition order wrongly diverges right there.
ProgramFn PoolWorker(int listen_fd, GuestAddr conn_counter, ServerSpec spec) {
  return [listen_fd, conn_counter, spec](Guest& g) -> GuestTask<void> {
    WorkerState ws = co_await InitWorker(g, spec);
    GuestAddr ticket_buf = g.Alloc(32);
    for (;;) {
      int64_t cfd = co_await g.Accept(listen_fd, 0, 0);
      if (cfd < 0) {
        co_return;  // Listener closed: shut down.
      }
      SyncAgent* agent = g.process()->sync_agent;
      if (agent != nullptr) {
        co_await agent->BeforeAcquire(g, kSyncObjConnCounter);
        uint32_t ticket = g.PeekU32(conn_counter);
        g.PokeU32(conn_counter, ticket + 1);
        if (ws.log_fd >= 0) {
          std::string line = "conn" + std::to_string(ticket) + ";";
          g.Poke(ticket_buf, line.data(), line.size());
          co_await g.Write(ws.log_fd, ticket_buf, line.size());
        }
      }
      for (;;) {
        int ok = co_await ReadRequest(g, static_cast<int>(cfd), ws.in_buf);
        if (ok == 0) {
          break;
        }
        uint64_t want = ParseRequest(g, ws.in_buf);
        if (want == 0) {
          break;
        }
        co_await ServeRequest(g, static_cast<int>(cfd), want, spec, ws);
      }
      co_await g.Close(static_cast<int>(cfd));
    }
  };
}

// An epoll event-loop worker (nginx/lighttpd/redis style). Every connection's epoll
// data is a *guest pointer* to a connection record holding the fd — exactly the
// pattern that forces the MVEE's shadow mapping (paper §3.9).
ProgramFn EpollWorker(int listen_fd, ServerSpec spec) {
  return [listen_fd, spec](Guest& g) -> GuestTask<void> {
    WorkerState ws = co_await InitWorker(g, spec);
    int64_t epfd = co_await g.EpollCreate1();
    REMON_CHECK(epfd >= 0);
    GuestAddr ev = g.Alloc(sizeof(GuestEpollEvent));
    GuestEpollEvent lev{kPollIn, 0};  // data 0 == the listener.
    g.Poke(ev, &lev, sizeof(lev));
    REMON_CHECK(0 ==
                co_await g.EpollCtl(static_cast<int>(epfd), kEpollCtlAdd, listen_fd, ev));
    GuestAddr events = g.Alloc(16 * sizeof(GuestEpollEvent));

    for (;;) {
      int64_t n = co_await g.EpollWait(static_cast<int>(epfd), events, 16, -1);
      if (n < 0) {
        co_return;
      }
      bool listener_gone = false;
      for (int64_t i = 0; i < n; ++i) {
        GuestEpollEvent got;
        g.Peek(events + static_cast<uint64_t>(i) * sizeof(GuestEpollEvent), &got,
               sizeof(got));
        if (got.data == 0) {
          // Listener ready: accept (non-blocking; a sibling worker may have won).
          int64_t cfd = co_await g.Accept4(listen_fd, 0, 0, kSockNonblock);
          if (cfd == -kEAGAIN) {
            continue;
          }
          if (cfd < 0) {
            listener_gone = true;
            break;
          }
          // Connection record in guest memory; its address is the epoll cookie.
          GuestAddr conn = g.Alloc(16);
          g.PokeU32(conn, static_cast<uint32_t>(cfd));
          GuestEpollEvent cev{kPollIn | kPollRdHup, conn};
          g.Poke(ev, &cev, sizeof(cev));
          co_await g.EpollCtl(static_cast<int>(epfd), kEpollCtlAdd,
                              static_cast<int>(cfd), ev);
          continue;
        }
        int cfd = static_cast<int>(g.PeekU32(static_cast<GuestAddr>(got.data)));
        int ok = co_await ReadRequest(g, cfd, ws.in_buf);
        uint64_t want = ok != 0 ? ParseRequest(g, ws.in_buf) : 0;
        if (want == 0) {
          co_await g.EpollCtl(static_cast<int>(epfd), kEpollCtlDel, cfd, 0);
          co_await g.Close(cfd);
          continue;
        }
        co_await ServeRequest(g, cfd, want, spec, ws);
      }
      if (listener_gone) {
        co_return;
      }
    }
  };
}

// A select()-based single loop (thttpd style).
ProgramFn SelectWorker(int listen_fd, ServerSpec spec) {
  return [listen_fd, spec](Guest& g) -> GuestTask<void> {
    WorkerState ws = co_await InitWorker(g, spec);
    GuestAddr readfds = g.Alloc(128);
    std::vector<int> conns;
    for (;;) {
      // Build the read set: listener + live connections.
      std::array<uint64_t, 16> set{};
      auto set_bit = [&set](int fd) {
        set[static_cast<size_t>(fd) / 64] |= 1ULL << (static_cast<size_t>(fd) % 64);
      };
      set_bit(listen_fd);
      int maxfd = listen_fd;
      for (int fd : conns) {
        set_bit(fd);
        maxfd = std::max(maxfd, fd);
      }
      g.Poke(readfds, set.data(), 128);
      int64_t n = co_await g.Select(maxfd + 1, readfds, 0, 0, 0);
      if (n <= 0) {
        co_return;
      }
      std::array<uint64_t, 16> ready{};
      g.Peek(readfds, ready.data(), 128);
      auto is_ready = [&ready](int fd) {
        return (ready[static_cast<size_t>(fd) / 64] >> (static_cast<size_t>(fd) % 64)) & 1;
      };
      if (is_ready(listen_fd)) {
        int64_t cfd = co_await g.Accept4(listen_fd, 0, 0, kSockNonblock);
        if (cfd >= 0) {
          conns.push_back(static_cast<int>(cfd));
        } else if (cfd != -kEAGAIN) {
          co_return;
        }
      }
      for (auto it = conns.begin(); it != conns.end();) {
        int fd = *it;
        if (!is_ready(fd)) {
          ++it;
          continue;
        }
        int ok = co_await ReadRequest(g, fd, ws.in_buf);
        uint64_t want = ok != 0 ? ParseRequest(g, ws.in_buf) : 0;
        if (want == 0) {
          co_await g.Close(fd);
          it = conns.erase(it);
          continue;
        }
        co_await ServeRequest(g, fd, want, spec, ws);
        ++it;
      }
    }
  };
}

}  // namespace

ProgramFn ServerProgram(const ServerSpec& spec) {
  return [spec](Guest& g) -> GuestTask<void> {
    int64_t lfd = co_await g.Socket(kAfInet, kSockStream);
    REMON_CHECK(lfd >= 0);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = spec.port;
    // INADDR_ANY analog: the kernel binds on the socket's own machine regardless,
    // and a replica must not leak its machine id into monitored arguments — under
    // cross-machine placement that would be instant (false) lockstep divergence.
    addr.sin_addr = 0;
    g.Poke(sa, &addr, sizeof(addr));
    REMON_CHECK(0 == co_await g.Bind(static_cast<int>(lfd), sa, sizeof(addr)));
    REMON_CHECK(0 == co_await g.Listen(static_cast<int>(lfd), 128));
    if (spec.kind != ServerKind::kThreadPool) {
      // Multiplexing loops accept from inside an event loop, so the listener must
      // be non-blocking (as real nginx/lighttpd set it): SOCK_NONBLOCK on accept4
      // only affects the *new* socket, and a thundering-herd loser that blocks in
      // accept4 would sit on ready connections forever. The pool model wants the
      // blocking accept.
      REMON_CHECK(0 == co_await g.Fcntl(static_cast<int>(lfd), kF_SETFL,
                                        static_cast<uint64_t>(kO_NONBLOCK)));
    }
    int listen_fd = static_cast<int>(lfd);
    // Shared accept-side bookkeeping for the pool model (see PoolWorker).
    GuestAddr conn_counter = g.Alloc(4);
    g.PokeU32(conn_counter, 0);

    // Spawn the workers; the main thread becomes worker 0.
    for (int w = 1; w < spec.workers; ++w) {
      ProgramFn worker;
      switch (spec.kind) {
        case ServerKind::kEpollLoop:
          worker = EpollWorker(listen_fd, spec);
          break;
        case ServerKind::kSelectLoop:
          worker = SelectWorker(listen_fd, spec);
          break;
        case ServerKind::kThreadPool:
          worker = PoolWorker(listen_fd, conn_counter, spec);
          break;
      }
      uint64_t fn = g.RegisterThreadFn(std::move(worker));
      co_await g.SpawnThread(fn);
    }
    // The callable must outlive the coroutine it creates (lambda captures live in
    // the lambda object), so anchor it in this frame.
    ProgramFn self_worker;
    switch (spec.kind) {
      case ServerKind::kEpollLoop:
        self_worker = EpollWorker(listen_fd, spec);
        break;
      case ServerKind::kSelectLoop:
        self_worker = SelectWorker(listen_fd, spec);
        break;
      case ServerKind::kThreadPool:
        self_worker = PoolWorker(listen_fd, conn_counter, spec);
        break;
    }
    co_await self_worker(g);
  };
}

std::vector<ServerSpec> PaperServers() {
  std::vector<ServerSpec> servers;
  // name, kind, workers, port, per-request compute, response size, mem intensity.
  servers.push_back({"beanstalkd", ServerKind::kEpollLoop, 1, 11300, Micros(8), 256, 0.004});
  servers.push_back({"lighttpd", ServerKind::kEpollLoop, 1, 8080, Micros(18), 4096, 0.005});
  servers.push_back({"memcached", ServerKind::kThreadPool, 4, 11211, Micros(6), 1024, 0.002});
  servers.push_back({"nginx", ServerKind::kEpollLoop, 4, 8081, Micros(15), 4096, 0.006});
  servers.push_back({"redis", ServerKind::kEpollLoop, 1, 6379, Micros(5), 512, 0.001});
  servers.push_back({"apache", ServerKind::kThreadPool, 8, 8082, Micros(35), 8192, 0.02});
  servers.push_back({"thttpd", ServerKind::kSelectLoop, 1, 8083, Micros(20), 4096, 0.02});
  return servers;
}

ServerSpec ServerByName(const std::string& name) {
  for (const ServerSpec& s : PaperServers()) {
    if (s.name == name) {
      return s;
    }
  }
  REMON_CHECK_MSG(false, "unknown server");
  return {};
}

}  // namespace remon
