// End-to-end MVEE tests: lockstep monitoring, IP-MON replication, transparency,
// divergence detection, and the security properties of paper §4.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/core/remon.h"
#include "tests/test_util.h"

namespace remon {
namespace {

// A deterministic workload touching files, pipes, time, and memory; writes a summary
// into /tmp/out-<suffix>. Used to check transparency: the filesystem state after an
// MVEE run must equal the state after a native run.
ProgramFn FileWorkload(std::string suffix) {
  return [suffix](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/out-" + suffix, kO_CREAT | kO_RDWR);
    EXPECT_GE(fd, 0);
    GuestAddr buf = g.Alloc(256);
    for (int i = 0; i < 5; ++i) {
      co_await g.Compute(Micros(20));
      std::string line = "line" + std::to_string(i) + "\n";
      g.Poke(buf, line.data(), line.size());
      int64_t w = co_await g.Write(static_cast<int>(fd), buf, line.size());
      EXPECT_EQ(w, static_cast<int64_t>(line.size()));
    }
    // A few queries (BASE_LEVEL calls).
    GuestAddr tv = g.Alloc(sizeof(GuestTimeval));
    co_await g.Gettimeofday(tv);
    co_await g.Getpid();
    // Pipe round trip.
    GuestAddr pfd = g.Alloc(8);
    co_await g.Pipe(pfd);
    int rfd = static_cast<int>(g.PeekU32(pfd));
    int wfd = static_cast<int>(g.PeekU32(pfd + 4));
    g.Poke(buf, "through-pipe", 12);
    co_await g.Write(wfd, buf, 12);
    GuestAddr rbuf = g.Alloc(32);
    int64_t n = co_await g.Read(rfd, rbuf, 32);
    EXPECT_EQ(n, 12);
    g.Poke(buf, g.PeekString(rbuf, 12).data(), 12);
    co_await g.Write(static_cast<int>(fd), buf, 12);
    co_await g.Close(static_cast<int>(fd));
    co_await g.Close(rfd);
    co_await g.Close(wfd);
  };
}

std::string RunAndGetFile(SimWorld& w, MveeMode mode, int replicas, PolicyLevel level,
                          const std::string& suffix, Remon** out_remon = nullptr) {
  RemonOptions opts;
  opts.mode = mode;
  opts.replicas = replicas;
  opts.level = level;
  static std::vector<std::unique_ptr<Remon>> keepalive;
  keepalive.push_back(std::make_unique<Remon>(&w.kernel, opts));
  Remon* mvee = keepalive.back().get();
  if (out_remon != nullptr) {
    *out_remon = mvee;
  }
  mvee->Launch(FileWorkload(suffix), "wl-" + suffix);
  w.Run();
  EXPECT_TRUE(mvee->finished());
  return w.fs.ReadWholeFile("/tmp/out-" + suffix).value_or("<missing>");
}

TEST(MveeTest, NativeBaselineProducesExpectedOutput) {
  SimWorld w;
  std::string out = RunAndGetFile(w, MveeMode::kNative, 1, PolicyLevel::kNoIpmon, "native");
  EXPECT_EQ(out, "line0\nline1\nline2\nline3\nline4\nthrough-pipe");
}

TEST(MveeTest, GhumveeLockstepIsTransparent) {
  SimWorld native_world(7);
  std::string native = RunAndGetFile(native_world, MveeMode::kNative, 1,
                                     PolicyLevel::kNoIpmon, "a");
  SimWorld mvee_world(7);
  Remon* mvee = nullptr;
  std::string monitored = RunAndGetFile(mvee_world, MveeMode::kGhumveeOnly, 2,
                                        PolicyLevel::kNoIpmon, "a", &mvee);
  EXPECT_EQ(native, monitored);
  EXPECT_FALSE(mvee->divergence_detected());
  // Lockstep actually ran: monitored calls counted, ptrace stops happened.
  EXPECT_GT(mvee_world.sim.stats().syscalls_monitored, 10u);
  EXPECT_GT(mvee_world.sim.stats().ptrace_stops, 20u);
}

TEST(MveeTest, GhumveeThreeReplicasTransparent) {
  SimWorld native_world(9);
  std::string native = RunAndGetFile(native_world, MveeMode::kNative, 1,
                                     PolicyLevel::kNoIpmon, "b");
  SimWorld mvee_world(9);
  std::string monitored = RunAndGetFile(mvee_world, MveeMode::kGhumveeOnly, 3,
                                        PolicyLevel::kNoIpmon, "b");
  EXPECT_EQ(native, monitored);
}

TEST(MveeTest, RemonIpmonTransparent) {
  SimWorld native_world(11);
  std::string native = RunAndGetFile(native_world, MveeMode::kNative, 1,
                                     PolicyLevel::kNoIpmon, "c");
  SimWorld mvee_world(11);
  Remon* mvee = nullptr;
  std::string monitored = RunAndGetFile(mvee_world, MveeMode::kRemon, 2,
                                        PolicyLevel::kNonsocketRw, "c", &mvee);
  EXPECT_EQ(native, monitored);
  EXPECT_FALSE(mvee->divergence_detected());
  // The fast path actually engaged.
  EXPECT_GT(mvee_world.sim.stats().syscalls_unmonitored, 5u);
  EXPECT_GT(mvee_world.sim.stats().ikb_forward_ipmon, 5u);
  EXPECT_GT(mvee_world.sim.stats().tokens_issued, 5u);
  EXPECT_GT(mvee_world.sim.stats().rb_entries, 3u);
}

TEST(MveeTest, RemonBaseLevelRoutesOnlyBaseCalls) {
  SimWorld w(13);
  Remon* mvee = nullptr;
  RunAndGetFile(w, MveeMode::kRemon, 2, PolicyLevel::kBase, "d", &mvee);
  EXPECT_FALSE(mvee->divergence_detected());
  // Reads/writes stay monitored at BASE_LEVEL; only time/pid-style calls relax.
  EXPECT_GT(w.sim.stats().syscalls_unmonitored, 0u);
  EXPECT_GT(w.sim.stats().syscalls_monitored, 10u);
}

TEST(MveeTest, RemonIsFasterThanGhumveeOnly) {
  SimWorld gw(17);
  RunAndGetFile(gw, MveeMode::kGhumveeOnly, 2, PolicyLevel::kNoIpmon, "e");
  TimeNs ghumvee_time = gw.sim.now();
  SimWorld rw(17);
  RunAndGetFile(rw, MveeMode::kRemon, 2, PolicyLevel::kNonsocketRw, "e");
  TimeNs remon_time = rw.sim.now();
  EXPECT_LT(remon_time, ghumvee_time);
}

TEST(MveeTest, VaranLikeTransparent) {
  SimWorld native_world(19);
  std::string native = RunAndGetFile(native_world, MveeMode::kNative, 1,
                                     PolicyLevel::kNoIpmon, "f");
  SimWorld vw(19);
  Remon* mvee = nullptr;
  std::string monitored = RunAndGetFile(vw, MveeMode::kVaranLike, 2,
                                        PolicyLevel::kSocketRw, "f", &mvee);
  EXPECT_EQ(native, monitored);
  // No ptrace traffic at all: purely in-process.
  EXPECT_EQ(vw.sim.stats().ptrace_stops, 0u);
  EXPECT_GT(vw.sim.stats().rb_entries, 3u);
}

TEST(MveeTest, DivergentWriteDetected) {
  SimWorld w(23);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  // A "malicious input" that only affects replica 1 (asymmetric attack): the write
  // payload differs, so the argument signatures mismatch.
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/div.txt", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    bool compromised = g.process()->replica_index == 1;
    std::string payload = compromised ? "evil-data" : "good-data";
    g.Poke(buf, payload.data(), payload.size());
    co_await g.Write(static_cast<int>(fd), buf, 9);
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_TRUE(mvee.divergence_detected());
  ASSERT_FALSE(mvee.ghumvee()->divergences().empty());
  EXPECT_NE(mvee.ghumvee()->divergences()[0].reason.find("signature mismatch"),
            std::string::npos);
  // The malicious write never reached the filesystem (the master was 'good' but the
  // MVEE kills everyone before executing the mismatched call).
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/div.txt").value_or(""), "");
}

TEST(MveeTest, DivergentSyscallNumberDetected) {
  SimWorld w(29);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    co_await g.Getpid();
    if (g.process()->replica_index == 1) {
      co_await g.Gettid();  // Hijacked control flow: different call stream.
    } else {
      co_await g.Getuid();
    }
  });
  w.Run();
  EXPECT_TRUE(mvee.divergence_detected());
}

TEST(MveeTest, DclRopPayloadDetected) {
  // The paper's headline security story: a code-reuse payload carrying an absolute
  // code address can be valid in at most one replica under DCL. The other replica
  // faults, GHUMVEE sees the crash, and the MVEE shuts down.
  SimWorld w(31);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([&mvee](Guest& g) -> GuestTask<void> {
    co_await g.Getpid();
    // The attacker leaked a code address from the master and sends it to everyone.
    GuestAddr gadget = mvee.master()->layout.code_base + 0x40;
    bool ok = co_await g.TryExec(gadget);
    if (ok) {
      // Master: the gadget "runs" and attempts damage via a (monitored) syscall.
      co_await g.Open("/etc/shadow-analog", kO_CREAT | kO_RDWR);
    }
  });
  w.Run();
  EXPECT_TRUE(mvee.divergence_detected());
  ASSERT_FALSE(mvee.ghumvee()->divergences().empty());
  EXPECT_NE(mvee.ghumvee()->divergences()[0].reason.find("faulted"), std::string::npos);
  // The attacker's file operation never happened.
  EXPECT_EQ(w.fs.Resolve("/etc/shadow-analog"), nullptr);
}

TEST(MveeTest, SharedMemoryChannelDenied) {
  SimWorld w(37);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  int64_t shm_result = 1;
  int64_t mmap_result = 1;
  mvee.Launch([&](Guest& g) -> GuestTask<void> {
    // Application-keyed writable segment: a bi-directional channel -> denied.
    shm_result = co_await g.Shmget(0x1234, 8192, kIpcCreat);
    mmap_result = co_await g.Mmap(0, 8192, kProtRead | kProtWrite, kMapShared);
  });
  w.Run();
  EXPECT_EQ(shm_result, -kEPERM);
  EXPECT_EQ(mmap_result, -kEPERM);
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_EQ(w.sim.stats().shm_requests_denied, 2u);
}

TEST(MveeTest, ProcMapsFilteredUnderRemon) {
  SimWorld w(41);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  Remon mvee(&w.kernel, opts);
  std::string maps;
  mvee.Launch([&maps](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/proc/self/maps", kO_RDONLY);
    EXPECT_GE(fd, 0);
    GuestAddr buf = g.Alloc(8192);
    int64_t n = co_await g.Read(static_cast<int>(fd), buf, 8192);
    EXPECT_GT(n, 0);
    if (g.process()->replica_index == 0) {
      maps = g.PeekString(buf, static_cast<uint64_t>(n));
    }
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_FALSE(maps.empty());
  // The RB (sysv-shm) and IP-MON text must be hidden; ordinary regions stay visible.
  EXPECT_EQ(maps.find("ipmon"), std::string::npos);
  EXPECT_EQ(maps.find("sysv-shm"), std::string::npos);
  EXPECT_NE(maps.find("[heap]"), std::string::npos);
}

TEST(MveeTest, SlaveArgumentCheckCatchesRbTampering) {
  // Asymmetric attack at the IP-MON layer: a compromised replica issues a call with
  // different arguments. The slave's IP-MON compares its deep-copied args against the
  // master's RB record and triggers the intentional crash -> GHUMVEE shutdown.
  SimWorld w(43);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/t.txt", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    std::string payload = g.process()->replica_index == 1 ? "tampered!" : "original!";
    g.Poke(buf, payload.data(), payload.size());
    co_await g.Write(static_cast<int>(fd), buf, 9);  // Unmonitored at NONSOCKET_RW.
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_TRUE(mvee.divergence_detected());
}

TEST(MveeTest, MultithreadedReplicasWithSyncAgent) {
  SimWorld w(47);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.use_sync_agent = true;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([&mvee](Guest& g) -> GuestTask<void> {
    // Two worker threads each append to the same file; the sync agent serializes the
    // acquisition order so both replicas produce identical write sequences.
    int64_t fd = co_await g.Open("/tmp/mt.txt", kO_CREAT | kO_RDWR);
    GuestAddr lock_word = g.Alloc(4);
    GuestAddr done_count = g.Alloc(4);
    g.PokeU32(lock_word, 0);
    g.PokeU32(done_count, 0);
    SyncAgent* agent = mvee.sync_agent(g.process()->replica_index);

    auto worker = [fd, lock_word, done_count, agent](int id) {
      return [fd, lock_word, done_count, agent, id](Guest& wg) -> GuestTask<void> {
        GuestAddr buf = wg.Alloc(32);
        for (int i = 0; i < 3; ++i) {
          co_await wg.Compute(Micros(10 + 7 * id));
          if (agent != nullptr) {
            co_await agent->BeforeAcquire(wg, /*object_id=*/1);
          }
          // Lock via futex word (uncontended fast path modeled by direct poke).
          while (wg.PeekU32(lock_word) != 0) {
            co_await wg.Futex(lock_word, kFutexWait, 1);
          }
          wg.PokeU32(lock_word, 1);
          std::string line = "w" + std::to_string(id) + "." + std::to_string(i) + "\n";
          wg.Poke(buf, line.data(), line.size());
          co_await wg.Write(static_cast<int>(fd), buf, line.size());
          wg.PokeU32(lock_word, 0);
          co_await wg.Futex(lock_word, kFutexWake, 1);
        }
        wg.PokeU32(done_count, wg.PeekU32(done_count) + 1);
      };
    };
    uint64_t w0 = g.RegisterThreadFn(worker(0));
    uint64_t w1 = g.RegisterThreadFn(worker(1));
    co_await g.SpawnThread(w0);
    co_await g.SpawnThread(w1);
    while (g.PeekU32(done_count) < 2) {
      co_await g.SleepNs(Micros(200));
    }
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.finished());
  std::string out = w.fs.ReadWholeFile("/tmp/mt.txt").value_or("");
  EXPECT_EQ(out.size(), 6 * 5u);  // Six lines of five characters.
  EXPECT_GT(w.sim.stats().sync_ops_recorded, 0u);
  EXPECT_GT(w.sim.stats().sync_ops_replayed, 0u);
}

TEST(MveeTest, TokenForgeryForcedToGhumvee) {
  // An attacker who jumps over IP-MON's checks and restarts a call with a guessed
  // token must land in GHUMVEE (the 4' path), not in unmonitored execution.
  SimWorld w(53);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/tok.txt", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(16);
    g.Poke(buf, "x", 1);
    co_await g.Write(static_cast<int>(fd), buf, 1);
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  // Forge: directly call the verifier with a wrong token for the master thread.
  Thread* master_thread = mvee.master()->threads[0];
  EXPECT_FALSE(mvee.broker()->VerifyToken(master_thread, 0xdeadbeef, Sys::kWrite));
  EXPECT_GT(w.sim.stats().policy_violations, 0u);
}

TEST(MveeTest, SignalDeliveredConsistentlyUnderGhumvee) {
  SimWorld w(59);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  int handler_runs = 0;
  mvee.Launch([&handler_runs](Guest& g) -> GuestTask<void> {
    uint64_t cookie = g.RegisterHandler([&handler_runs](Guest&, int) -> GuestTask<void> {
      ++handler_runs;
      co_return;
    });
    co_await g.Sigaction(kSIGALRM, cookie);
    // Arm a 1 ms interval timer (master-only under lockstep); GHUMVEE defers the
    // master's SIGALRM and injects it into both replicas at a sync point.
    GuestAddr its = g.Alloc(sizeof(GuestItimerspec));
    GuestItimerspec spec;
    spec.it_value = GuestTimespec{0, Millis(1)};
    g.Poke(its, &spec, sizeof(spec));
    co_await g.Syscall(Sys::kSetitimer, 0, its, 0);
    for (int i = 0; i < 20; ++i) {
      co_await g.Compute(Micros(200));
      co_await g.Getpid();
    }
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.finished());
  // Both replicas ran the handler (once each).
  EXPECT_EQ(handler_runs, 2);
  EXPECT_GT(w.sim.stats().signals_deferred, 0u);
}

TEST(MveeTest, EpollDataPointersTranslatedUnderGhumvee) {
  SimWorld w(61);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  bool data_ok_master = false;
  bool data_ok_slave = false;
  mvee.Launch([&](Guest& g) -> GuestTask<void> {
    // Each replica uses a replica-local "pointer" as epoll data — exactly what
    // diversified programs do (paper §3.9).
    GuestAddr my_cookie = g.Alloc(64);  // Different address per replica.
    GuestAddr pfd = g.Alloc(8);
    co_await g.Pipe(pfd);
    int rfd = static_cast<int>(g.PeekU32(pfd));
    int wfd = static_cast<int>(g.PeekU32(pfd + 4));
    int64_t epfd = co_await g.EpollCreate1();
    GuestAddr ev = g.Alloc(sizeof(GuestEpollEvent));
    GuestEpollEvent e{kPollIn, my_cookie};
    g.Poke(ev, &e, sizeof(e));
    co_await g.EpollCtl(static_cast<int>(epfd), kEpollCtlAdd, rfd, ev);
    GuestAddr buf = g.Alloc(8);
    g.Poke(buf, "!", 1);
    co_await g.Write(wfd, buf, 1);
    GuestAddr events = g.Alloc(4 * sizeof(GuestEpollEvent));
    int64_t n = co_await g.EpollWait(static_cast<int>(epfd), events, 4, -1);
    EXPECT_EQ(n, 1);
    GuestEpollEvent got;
    g.Peek(events, &got, sizeof(got));
    // Every replica must see its OWN cookie, not the master's.
    if (g.process()->replica_index == 0) {
      data_ok_master = got.data == my_cookie;
    } else {
      data_ok_slave = got.data == my_cookie;
    }
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_TRUE(data_ok_master);
  EXPECT_TRUE(data_ok_slave);
}

// What each replica's GHUMVEE-only epoll_wait returned: the result and the event
// bytes it found in its own memory.
struct EpollWaitSeen {
  int64_t n[2] = {-1, -1};
  std::string events[2];
  uint64_t cookie[2] = {0, 0};
};

// One epoll_wait master call over a timerfd armed for 1 ms. With `timer_fired`
// the replicas first sleep past the expiry, so the master's call completes as
// it starts and its exit stop reaches GHUMVEE before the slave's fake-call exit
// stop; otherwise the master blocks and the slave's fake call parks first.
EpollWaitSeen RunTimerfdEpollWait(bool timer_fired) {
  SimWorld w(71);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  EpollWaitSeen seen;
  mvee.Launch([&seen, timer_fired](Guest& g) -> GuestTask<void> {
    size_t r = static_cast<size_t>(g.process()->replica_index);
    GuestAddr cookie = g.Alloc(64);  // A replica-local "pointer" as epoll data.
    seen.cookie[r] = cookie;
    int tfd = static_cast<int>(co_await g.TimerfdCreate());
    int epfd = static_cast<int>(co_await g.EpollCreate1());
    GuestAddr ev = g.Alloc(sizeof(GuestEpollEvent));
    GuestEpollEvent e{kPollIn, cookie};
    g.Poke(ev, &e, sizeof(e));
    co_await g.EpollCtl(epfd, kEpollCtlAdd, tfd, ev);
    GuestAddr its = g.Alloc(sizeof(GuestItimerspec));
    GuestItimerspec spec;
    spec.it_value.tv_nsec = Millis(1);
    g.Poke(its, &spec, sizeof(spec));
    co_await g.TimerfdSettime(tfd, its);
    if (timer_fired) {
      GuestAddr ts = g.Alloc(sizeof(GuestTimespec));
      GuestTimespec sleep{0, Millis(2)};
      g.Poke(ts, &sleep, sizeof(sleep));
      co_await g.Nanosleep(ts);
    }
    GuestAddr events = g.Alloc(4 * sizeof(GuestEpollEvent));
    seen.n[r] = co_await g.EpollWait(epfd, events, 4, -1);
    seen.events[r] = g.PeekString(events, sizeof(GuestEpollEvent));
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  return seen;
}

TEST(MveeTest, FakeCallEpollResultsIndependentOfExitStopOrder) {
  EpollWaitSeen master_first = RunTimerfdEpollWait(/*timer_fired=*/true);
  EpollWaitSeen slave_first = RunTimerfdEpollWait(/*timer_fired=*/false);
  for (const EpollWaitSeen* seen : {&master_first, &slave_first}) {
    for (size_t r = 0; r < 2; ++r) {
      ASSERT_EQ(seen->n[r], 1);
      GuestEpollEvent got;
      std::memcpy(&got, seen->events[r].data(), sizeof(got));
      // Copies: GuestEpollEvent is packed, so its fields cannot bind references.
      uint32_t events = got.events;
      uint64_t data = got.data;
      EXPECT_EQ(events, static_cast<uint32_t>(kPollIn));
      EXPECT_EQ(data, seen->cookie[r]);  // Each replica sees its own cookie.
    }
  }
  EXPECT_EQ(master_first.events[1], slave_first.events[1]);
}

TEST(MveeTest, SlaveKilledAtFakeCallExitStopEndsRound) {
  SimWorld w(67);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    GuestAddr pfd = g.Alloc(8);
    co_await g.Pipe(pfd);
    GuestAddr buf = g.Alloc(8);
    // Nobody writes: the master blocks in its read while the slave's fake read
    // parks at its exit stop.
    co_await g.Read(static_cast<int>(g.PeekU32(pfd)), buf, 8);
  });
  const TimeNs kill_at = Millis(1);
  bool slave_parked = false;
  w.sim.queue().ScheduleAt(kill_at, [&] {
    Thread* master = mvee.replicas()[0]->threads.front();
    Thread* slave = mvee.replicas()[1]->threads.front();
    slave_parked = master->state() == ThreadState::kBlocked &&
                   slave->state() == ThreadState::kPtraceStopped;
    w.kernel.KillProcessBySignal(mvee.replicas()[1], kSIGKILL);
  });
  w.Run(kill_at + mvee.ghumvee()->lockstep_timeout_ns);
  EXPECT_TRUE(slave_parked);
  ASSERT_TRUE(mvee.divergence_detected());
  // The dead slave ends the round at once, not at the lockstep watchdog.
  EXPECT_LT(mvee.ghumvee()->divergences()[0].when, kill_at + Millis(1));
  EXPECT_TRUE(mvee.finished());
}

TEST(MveeTest, ExitGroupWhileARankWaitsInAMasterCallIsClean) {
  SimWorld w(69);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    GuestAddr pfd = g.Alloc(8);
    co_await g.Pipe(pfd);
    int rfd = static_cast<int>(g.PeekU32(pfd));
    uint64_t reader = g.RegisterThreadFn([rfd](Guest& rg) -> GuestTask<void> {
      GuestAddr buf = rg.Alloc(8);
      co_await rg.Read(rfd, buf, 8);  // Never answered: exit_group ends it.
    });
    co_await g.SpawnThread(reader);
    co_await g.Compute(Micros(200));
    co_await g.ExitGroup(0);
  });
  w.Run(Seconds(1));
  // Every replica's exit_group takes the waiting rank down with it, in lockstep.
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
}

// Each replica's leg of a local call closes at that replica's own exit stop. The
// master's waiter returns from its body right after its futex call while the
// slave's waiter still blocks in the same call: the master's exit does not close
// the slave's leg, the round stays open until the slave's own exit stop, and
// nothing diverges.
TEST(MveeTest, LocalCallLegClosesAtEachReplicasOwnExitStop) {
  SimWorld w(71);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kBase;  // futex stays a GHUMVEE local call.
  Remon mvee(&w.kernel, opts);
  bool master_waiter_done = false;
  bool open_after_master_exit = false;
  mvee.Launch([&](Guest& g) -> GuestTask<void> {
    GuestAddr word = g.Alloc(8);
    // The master's futex word already moved on and the slave's has not, so the
    // master's wait returns at once (EAGAIN) while the slave's blocks until woken.
    bool master = g.process()->replica_index == 0;
    g.PokeU32(word, master ? 1 : 0);
    uint64_t waiter = g.RegisterThreadFn([&, word](Guest& tg) -> GuestTask<void> {
      co_await tg.Futex(word, kFutexWait, 0);
      master_waiter_done |= tg.process()->replica_index == 0;
    });
    co_await g.SpawnThread(waiter);
    while (!master_waiter_done) {
      co_await g.Compute(Micros(10));
    }
    co_await g.Compute(Millis(1));  // GHUMVEE handles the master waiter's exit.
    if (master) {
      open_after_master_exit = mvee.ghumvee()->RoundExecuting(/*rank=*/1);
    }
    co_await g.Futex(word, kFutexWake, 1);
  });
  w.Run(Seconds(1));
  EXPECT_TRUE(open_after_master_exit);
  EXPECT_FALSE(mvee.ghumvee()->RoundExecuting(1));
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
}

// Virtual time of a GHUMVEE-only run in which each of `threads` threads makes
// `calls` monitored getpid calls.
TimeNs MonitoredGetpidRunTime(int threads, int calls) {
  SimWorld w(73);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([threads, calls](Guest& g) -> GuestTask<void> {
    GuestAddr pfd = g.Alloc(8);
    co_await g.Pipe(pfd);
    int rfd = static_cast<int>(g.PeekU32(pfd));
    int wfd = static_cast<int>(g.PeekU32(pfd + 4));
    for (int t = 1; t < threads; ++t) {
      uint64_t fn = g.RegisterThreadFn([calls, wfd](Guest& hg) -> GuestTask<void> {
        for (int i = 0; i < calls; ++i) {
          co_await hg.Getpid();
        }
        GuestAddr done = hg.Alloc(8);
        co_await hg.Write(wfd, done, 1);
      });
      co_await g.SpawnThread(fn);
    }
    for (int i = 0; i < calls; ++i) {
      co_await g.Getpid();
    }
    GuestAddr buf = g.Alloc(8);
    for (int t = 1; t < threads; ++t) {
      co_await g.Read(rfd, buf, 1);
    }
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  return w.sim.now();
}

TEST(MveeTest, RanksLockstepInParallel) {
  constexpr int kCalls = 400;
  TimeNs one_rank = MonitoredGetpidRunTime(1, kCalls);
  TimeNs four_ranks = MonitoredGetpidRunTime(4, kCalls);
  // Each rank has its own monitor lane, so the ranks' rounds overlap instead of
  // queueing behind one another (one monitor for every rank takes about twice
  // as long here).
  EXPECT_LT(static_cast<double>(four_ranks), 1.25 * static_cast<double>(one_rank));
}

TEST(MveeTest, RbOverflowTriggersArbitratedReset) {
  SimWorld w(67);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_size = 256 * 1024;  // Tiny RB with many ranks -> small sub-buffers.
  opts.max_ranks = 4;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/rb.txt", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(2048);
    for (int i = 0; i < 200; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 2048);
    }
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.finished());
  EXPECT_GT(w.sim.stats().rb_resets, 0u);
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/rb.txt")->size(), 200u * 2048u);
}

// The file map is sized once, and no FD a replica can open falls outside it: the
// default FD table (1024) fits in one page, and a multi-page map raises the table
// to exactly the map's size. A replica that opens until EMFILE never has a
// descriptor dropped from the map, and its last one is tracked.
TEST(MveeTest, NoOpenableFdFallsPastTheFileMap) {
  for (int pages : {1, 2}) {
    SimWorld w(68);
    RemonOptions opts;
    opts.mode = MveeMode::kRemon;
    opts.replicas = 2;
    opts.level = PolicyLevel::kNonsocketRw;
    opts.file_map_pages = pages;
    Remon mvee(&w.kernel, opts);
    int64_t last_fd = -1;
    int64_t refused = 0;
    mvee.Launch([&last_fd, &refused](Guest& g) -> GuestTask<void> {
      while (true) {
        int64_t fd = co_await g.Open("/tmp/fd-fill", kO_CREAT | kO_RDWR);
        if (fd < 0) {
          refused = fd;
          break;
        }
        last_fd = fd;
      }
    });
    w.Run();
    EXPECT_FALSE(mvee.divergence_detected()) << pages;
    EXPECT_EQ(refused, -kEMFILE) << pages;
    EXPECT_GT(last_fd, 0) << pages;
    const FileMap* fm = mvee.ghumvee()->file_map();
    EXPECT_EQ(fm->out_of_range_sets(), 0u) << pages;
    EXPECT_TRUE(fm->IsValid(static_cast<int>(last_fd))) << pages;
  }
}

}  // namespace
}  // namespace remon
