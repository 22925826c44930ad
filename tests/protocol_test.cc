// Protocol-level tests for the trickiest split-monitor interactions: the VARAN-like
// flush barrier and tolerated mismatch, the §3.8 blocked-master abort/restart,
// temporal exemption end to end, master-run-ahead bounds, epoll cookies that
// cross from IP-MON's shadow into a GHUMVEE-replicated epoll_wait, and the one
// master-call result payload both monitors deliver.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/ipmon.h"
#include "src/core/remon.h"
#include "tests/test_util.h"

namespace remon {
namespace {

TEST(ProtocolTest, VaranFlushBarrierRecyclesBuffer) {
  // The VARAN-like monitor has no GHUMVEE to arbitrate resets: replicas synchronize
  // through the in-buffer barrier. A tiny RB forces many barrier rounds.
  SimWorld w(401);
  RemonOptions opts;
  opts.mode = MveeMode::kVaranLike;
  opts.replicas = 3;
  opts.rb_size = 128 * 1024;
  opts.max_ranks = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/varan-flush", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(2048);
    for (int i = 0; i < 150; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 2048);
    }
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_GT(w.sim.stats().rb_resets, 0u);
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/varan-flush")->size(), 150u * 2048u);
  EXPECT_EQ(w.sim.stats().ptrace_stops, 0u);  // Still zero CP involvement.
}

TEST(ProtocolTest, VaranOversizedCallCountsAsUnmonitored) {
  // An entry larger than the rank's sub-buffer runs in every replica without the
  // RB (VARAN has no CP monitor to escalate to): still an unmonitored call.
  SimWorld w(403);
  RemonOptions opts;
  opts.mode = MveeMode::kVaranLike;
  opts.replicas = 2;
  opts.rb_size = 128 * 1024;
  opts.max_ranks = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.Open("/tmp/varan-oversize", kO_CREAT | kO_RDWR));
    GuestAddr buf = g.Alloc(96 * 1024);
    co_await g.Write(fd, buf, 64);
    co_await g.Read(fd, buf, 96 * 1024);  // Oversized for a 64 KiB sub-buffer.
    co_await g.Close(fd);
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_EQ(w.sim.stats().syscalls_monitored, 0u);
  // Open, write, read and close, in each of the two replicas.
  EXPECT_EQ(w.sim.stats().syscalls_unmonitored, 8u);
}

TEST(ProtocolTest, BlockedMasterAbortedForSignalDelivery) {
  // §3.8 end to end: the master blocks in an unmonitored read (empty pipe) while
  // GHUMVEE must deliver a deferred timer signal. GHUMVEE sets the RB flag and
  // aborts the master's call; the master restarts it as a monitored call (stub entry
  // pulls the slaves along); the signal lands in all replicas at the same point.
  SimWorld w(402);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  Remon mvee(&w.kernel, opts);
  int handler_runs = 0;
  int64_t read_result = -999;
  mvee.Launch([&](Guest& g) -> GuestTask<void> {
    uint64_t cookie = g.RegisterHandler([&handler_runs](Guest&, int) -> GuestTask<void> {
      ++handler_runs;
      co_return;
    });
    co_await g.Sigaction(kSIGALRM, cookie);
    GuestAddr fds = g.Alloc(8);
    co_await g.Pipe(fds);
    int rfd = static_cast<int>(g.PeekU32(fds));
    // Arm a one-shot timer, then block in an unmonitored blocking read. The pipe
    // never receives data before the signal.
    GuestAddr its = g.Alloc(sizeof(GuestItimerspec));
    GuestItimerspec spec;
    spec.it_value = GuestTimespec{0, Millis(2)};
    g.Poke(its, &spec, sizeof(spec));
    co_await g.Syscall(Sys::kSetitimer, 0, its, 0);
    GuestAddr buf = g.Alloc(32);
    read_result = co_await g.Read(rfd, buf, 32);
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  // Both replicas ran the handler, and the read was interrupted.
  EXPECT_EQ(handler_runs, 2);
  EXPECT_EQ(read_result, -kEINTR);
  EXPECT_GT(w.sim.stats().signals_deferred, 0u);
}

TEST(ProtocolTest, TemporalExemptionStaysTransparent) {
  // With aggressive temporal exemption the routing of each call is probabilistic —
  // but consistent across replicas, so outputs must still match a native run.
  auto body = [](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/temporal-out", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    for (int i = 0; i < 120; ++i) {
      std::string line = "L" + std::to_string(i) + ";";
      g.Poke(buf, line.data(), line.size());
      co_await g.Write(static_cast<int>(fd), buf, line.size());
    }
    co_await g.Close(static_cast<int>(fd));
  };
  std::string native_out;
  {
    SimWorld w(403);
    RemonOptions opts;
    opts.mode = MveeMode::kNative;
    Remon mvee(&w.kernel, opts);
    mvee.Launch(body);
    w.Run();
    native_out = w.fs.ReadWholeFile("/tmp/temporal-out").value_or("");
  }
  SimWorld w(403);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kBase;  // Writes monitored spatially...
  opts.temporal.enabled = true;     // ...but temporally exemptible.
  opts.temporal.approvals_required = 8;
  opts.temporal.exempt_probability = 0.7;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(body);
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/temporal-out").value_or(""), native_out);
  // Both routes were genuinely used.
  EXPECT_GT(w.sim.stats().syscalls_monitored, 10u);
  EXPECT_GT(w.sim.stats().syscalls_unmonitored, 10u);
}

TEST(ProtocolTest, MasterRunAheadBoundedByRb) {
  // The master can run ahead of the slaves only until the RB (sub-buffer) fills;
  // then it must wait for the flush barrier. With a slow slave (high per-replica
  // dilation would be symmetric, so we use a tiny RB instead), the master's lead in
  // *entries* can never exceed the sub-buffer capacity.
  SimWorld w(404);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_size = 128 * 1024;
  opts.max_ranks = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/ahead", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(1024);
    for (int i = 0; i < 300; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 1024);
    }
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  // Multiple flush barriers occurred: the run-ahead window was repeatedly closed.
  EXPECT_GT(w.sim.stats().rb_resets, 2u);
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/ahead")->size(), 300u * 1024u);
}

TEST(ProtocolTest, SevenReplicasHeavyIpmonTraffic) {
  // The paper evaluates up to 7 replicas; stress the RB protocol at that width.
  SimWorld w(405);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 7;
  opts.level = PolicyLevel::kNonsocketRw;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/seven", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(512);
    GuestAddr st = g.Alloc(sizeof(GuestStat));
    for (int i = 0; i < 200; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 512);
      co_await g.Fstat(static_cast<int>(fd), st);
    }
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/seven")->size(), 200u * 512u);
  // Six slaves consumed each of the master's entries.
  EXPECT_GT(w.sim.stats().rb_entries, 390u);
}

TEST(ProtocolTest, DivergenceInSeventhReplicaDetected) {
  SimWorld w(406);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 7;
  opts.level = PolicyLevel::kNonsocketRw;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/div7", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    std::string payload =
        g.process()->replica_index == 6 ? "evil-....." : "benign....";
    g.Poke(buf, payload.data(), 10);
    co_await g.Write(static_cast<int>(fd), buf, 10);
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_TRUE(mvee.divergence_detected());
}

TEST(ProtocolTest, VaranToleratesAnArgumentMismatch) {
  // The VARAN-like monitor is reliability-oriented (paper §6): a slave whose
  // arguments differ from the master's is counted, not shut down, and it still
  // takes the master's results instead of executing its own call.
  SimWorld w(407);
  RemonOptions opts;
  opts.mode = MveeMode::kVaranLike;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/varan-mismatch", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(16);
    std::string mine = "replica-" + std::to_string(g.process()->replica_index);
    g.Poke(buf, mine.data(), mine.size());
    co_await g.Write(static_cast<int>(fd), buf, mine.size());
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_EQ(*w.fs.ReadWholeFile("/tmp/varan-mismatch"), "replica-0");
  EXPECT_EQ(mvee.ipmon(0)->mismatches_tolerated(), 0u);
  EXPECT_EQ(mvee.ipmon(1)->mismatches_tolerated(), 1u);
}

// What each replica's epoll_wait returned, and the run's monitored-call count.
struct CrossMonitorEpollRun {
  bool own_cookie[2] = {false, false};
  uint64_t monitored = 0;
  bool divergence = true;
};

// epoll_ctl ADD with cookie A, then MOD to cookie B, both replicated by IP-MON at
// SOCKET_RW, then one epoll_wait with `maxevents` slots. A small out-buffer fits
// the rank's RB sub-buffer; 8192 slots (96 KiB) do not, so IP-MON forwards that
// epoll_wait to GHUMVEE, which must translate the master's cookie through the
// shadow IP-MON recorded.
CrossMonitorEpollRun RunCrossMonitorEpoll(int maxevents) {
  SimWorld w(408);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kSocketRw;
  opts.rb_size = 128 * 1024;
  opts.max_ranks = 2;
  Remon mvee(&w.kernel, opts);
  CrossMonitorEpollRun run;
  mvee.Launch([&run, maxevents](Guest& g) -> GuestTask<void> {
    GuestAddr cookie_a = g.Alloc(64);  // Replica-local "pointers" (paper §3.9).
    GuestAddr cookie_b = g.Alloc(64);
    GuestAddr pfd = g.Alloc(8);
    co_await g.Pipe(pfd);
    int rfd = static_cast<int>(g.PeekU32(pfd));
    int wfd = static_cast<int>(g.PeekU32(pfd + 4));
    int epfd = static_cast<int>(co_await g.EpollCreate1());
    GuestAddr ev = g.Alloc(sizeof(GuestEpollEvent));
    GuestEpollEvent e{kPollIn, cookie_a};
    g.Poke(ev, &e, sizeof(e));
    co_await g.EpollCtl(epfd, kEpollCtlAdd, rfd, ev);
    e.data = cookie_b;
    g.Poke(ev, &e, sizeof(e));
    co_await g.EpollCtl(epfd, kEpollCtlMod, rfd, ev);
    GuestAddr buf = g.Alloc(8);
    g.Poke(buf, "!", 1);
    co_await g.Write(wfd, buf, 1);
    GuestAddr events =
        g.Alloc(static_cast<uint64_t>(maxevents) * sizeof(GuestEpollEvent));
    int64_t n = co_await g.EpollWait(epfd, events, maxevents, -1);
    GuestEpollEvent got{0, 0};
    g.Peek(events, &got, sizeof(got));
    run.own_cookie[g.process()->replica_index] = n == 1 && got.data == cookie_b;
  });
  w.Run();
  run.monitored = w.sim.stats().syscalls_monitored;
  run.divergence = mvee.divergence_detected();
  return run;
}

TEST(ProtocolTest, EpollWaitForwardedToGhumveeUsesIpmonsShadow) {
  CrossMonitorEpollRun in_rb = RunCrossMonitorEpoll(4);
  CrossMonitorEpollRun forwarded = RunCrossMonitorEpoll(8192);
  for (const CrossMonitorEpollRun* run : {&in_rb, &forwarded}) {
    EXPECT_FALSE(run->divergence);
    EXPECT_TRUE(run->own_cookie[0]);
    EXPECT_TRUE(run->own_cookie[1]);
  }
  // The oversized epoll_wait took one lockstep round; every other call is the same.
  EXPECT_EQ(forwarded.monitored, in_rb.monitored + 1);
}

// --- The result payload codec (CaptureResults / ApplyResults) ----------------------

// Two replicas' memories with one scratch mapping each, at different addresses.
struct CodecWorld {
  CodecWorld() {
    for (int i = 0; i < 2; ++i) {
      p[i] = w.NewProcess("codec-r" + std::to_string(i), i);
      base[i] = p[i]->mem().FindFreeRange(p[i]->layout.mmap_hint, 4 * kPageSize);
      EXPECT_TRUE(p[i]->mem().MapFixed(base[i], 4 * kPageSize, kProtRead | kProtWrite,
                                       false, "codec"));
    }
  }
  std::vector<uint8_t> Capture(const SyscallRequest& req, int64_t ret,
                               const EpollShadowMap& shadow) {
    std::vector<uint8_t> payload;
    CaptureResults(p[0], req, ret, shadow,
                   [this](GuestAddr addr, void* out, uint64_t len) {
                     return p[0]->mem().Read(addr, out, len).ok;
                   },
                   &payload);
    return payload;
  }
  uint64_t Apply(const SyscallRequest& req, int64_t ret, const EpollShadowMap& shadow,
                 const std::vector<uint8_t>& payload) {
    return ApplyResults(p[1], req, ret, shadow, payload,
                        [this](GuestAddr addr, const void* data, uint64_t len) {
                          return p[1]->mem().Write(addr, data, len).ok;
                        });
  }
  // readv(fd, iov, n) in replica `i` with iovecs at base + 1 KiB and buffers of
  // `lens` bytes from base + 2 KiB (replica 1's 256 bytes further on).
  SyscallRequest Readv(int i, const std::vector<uint64_t>& lens) {
    GuestAddr iov = base[i] + 1024;
    GuestAddr buf = base[i] + 2048 + static_cast<uint64_t>(i) * 256;
    for (size_t j = 0; j < lens.size(); ++j) {
      GuestIovec v{buf, lens[j]};
      EXPECT_TRUE(p[i]->mem().Write(iov + j * sizeof(v), &v, sizeof(v)).ok);
      buf += lens[j] + 64;
    }
    return SyscallRequest{Sys::kReadv, {3, iov, lens.size(), 0, 0, 0}};
  }
  std::string Peek(int i, GuestAddr addr, uint64_t len) {
    std::string out(len, '\0');
    EXPECT_TRUE(p[i]->mem().Read(addr, out.data(), len).ok);
    return out;
  }

  SimWorld w{409};
  Process* p[2] = {nullptr, nullptr};
  GuestAddr base[2] = {0, 0};
};

TEST(ResultCodecTest, EpollWaitArrivesAsTheTargetsOwnCookies) {
  CodecWorld c;
  EpollShadowMap master_shadow;
  EpollShadowMap slave_shadow;
  master_shadow.Record(5, kEpollCtlAdd, 7, 0xa000);
  master_shadow.Record(5, kEpollCtlAdd, 9, 0xb000);
  slave_shadow.Record(5, kEpollCtlAdd, 7, 0x1100);
  slave_shadow.Record(5, kEpollCtlAdd, 9, 0x2200);
  GuestEpollEvent ready[2] = {{kPollIn, 0xb000}, {kPollIn, 0xa000}};
  ASSERT_TRUE(c.p[0]->mem().Write(c.base[0], ready, sizeof(ready)).ok);
  std::vector<uint8_t> payload =
      c.Capture(SyscallRequest{Sys::kEpollWait, {5, c.base[0], 8, 0, 0, 0}}, 2,
                master_shadow);
  EXPECT_EQ(c.Apply(SyscallRequest{Sys::kEpollWait, {5, c.base[1], 8, 0, 0, 0}}, 2,
                    slave_shadow, payload),
            1u);
  GuestEpollEvent got[2];
  ASSERT_TRUE(c.p[1]->mem().Read(c.base[1], got, sizeof(got)).ok);
  uint64_t first = got[0].data;  // Packed fields: copy before comparing.
  uint64_t second = got[1].data;
  uint32_t events = got[0].events;
  EXPECT_EQ(first, 0x2200u);
  EXPECT_EQ(second, 0x1100u);
  EXPECT_EQ(events, kPollIn);
}

TEST(ResultCodecTest, ReadvRegionsLandAtTheTargetsOwnAddresses) {
  CodecWorld c;
  EpollShadowMap shadow;
  SyscallRequest master = c.Readv(0, {4, 8});
  ASSERT_TRUE(c.p[0]->mem().Write(c.base[0] + 2048, "abcd", 4).ok);
  ASSERT_TRUE(c.p[0]->mem().Write(c.base[0] + 2048 + 68, "efghijkl", 8).ok);
  std::vector<uint8_t> payload = c.Capture(master, 12, shadow);
  // u64 count, then u64 len + bytes per region.
  EXPECT_EQ(payload.size(), 8u + (8 + 4) + (8 + 8));
  EXPECT_EQ(c.Apply(c.Readv(1, {4, 8}), 12, shadow, payload), 2u);
  GuestAddr slave_buf = c.base[1] + 2048 + 256;
  EXPECT_EQ(c.Peek(1, slave_buf, 4), "abcd");
  EXPECT_EQ(c.Peek(1, slave_buf + 68, 8), "efghijkl");
}

TEST(ResultCodecTest, ARegionRunningPastThePayloadIsNotWritten) {
  CodecWorld c;
  EpollShadowMap shadow;
  SyscallRequest master = c.Readv(0, {4, 8});
  ASSERT_TRUE(c.p[0]->mem().Write(c.base[0] + 2048, "abcd", 4).ok);
  ASSERT_TRUE(c.p[0]->mem().Write(c.base[0] + 2048 + 68, "efghijkl", 8).ok);
  std::vector<uint8_t> payload = c.Capture(master, 12, shadow);
  payload.pop_back();  // Region 2 claims 8 bytes; 7 remain.
  EXPECT_EQ(c.Apply(c.Readv(1, {4, 8}), 12, shadow, payload), 1u);
  GuestAddr slave_buf = c.base[1] + 2048 + 256;
  EXPECT_EQ(c.Peek(1, slave_buf, 4), "abcd");
  EXPECT_EQ(c.Peek(1, slave_buf + 68, 8), std::string(8, '\0'));
}

TEST(ResultCodecTest, ExtraPayloadRegionsAreNotWritten) {
  CodecWorld c;
  EpollShadowMap shadow;
  SyscallRequest master = c.Readv(0, {4, 8});
  ASSERT_TRUE(c.p[0]->mem().Write(c.base[0] + 2048, "abcd", 4).ok);
  ASSERT_TRUE(c.p[0]->mem().Write(c.base[0] + 2048 + 68, "efghijkl", 8).ok);
  std::vector<uint8_t> payload = c.Capture(master, 12, shadow);
  // The target has one 4-byte iovec: one region of the two.
  EXPECT_EQ(c.Apply(c.Readv(1, {4}), 12, shadow, payload), 1u);
  GuestAddr slave_buf = c.base[1] + 2048 + 256;
  EXPECT_EQ(c.Peek(1, slave_buf, 4), "abcd");
  EXPECT_EQ(c.Peek(1, slave_buf + 68, 8), std::string(8, '\0'));
}

}  // namespace
}  // namespace remon
