// Edge-case tests for the kernel syscall surface and GHUMVEE's FD bookkeeping.

#include <gtest/gtest.h>

#include <array>

#include "src/core/remon.h"
#include "tests/test_util.h"

namespace remon {
namespace {

TEST(KernelEdgeTest, LseekWhenceSemantics) {
  SimWorld w;
  Process* p = w.NewProcess("lseek");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/seek", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(32);
    g.Poke(buf, "0123456789", 10);
    co_await g.Write(static_cast<int>(fd), buf, 10);
    EXPECT_EQ(co_await g.Lseek(static_cast<int>(fd), 0, kSeekSet), 0);
    EXPECT_EQ(co_await g.Lseek(static_cast<int>(fd), 4, kSeekCur), 4);
    EXPECT_EQ(co_await g.Lseek(static_cast<int>(fd), -2, kSeekEnd), 8);
    EXPECT_EQ(co_await g.Lseek(static_cast<int>(fd), -100, kSeekSet), -kEINVAL);
    // Seeking a pipe is ESPIPE.
    GuestAddr fds = g.Alloc(8);
    co_await g.Pipe(fds);
    EXPECT_EQ(co_await g.Lseek(static_cast<int>(g.PeekU32(fds)), 0, kSeekSet), -kESPIPE);
  });
  w.Run();
}

TEST(KernelEdgeTest, DupSharesOffsetDup2Replaces) {
  SimWorld w;
  Process* p = w.NewProcess("dup");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/dup", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(16);
    g.Poke(buf, "abcdef", 6);
    co_await g.Write(static_cast<int>(fd), buf, 6);
    int64_t dup_fd = co_await g.Dup(static_cast<int>(fd));
    EXPECT_GT(dup_fd, fd);
    // dup shares the open file description: the offset is common.
    EXPECT_EQ(co_await g.Lseek(static_cast<int>(dup_fd), 0, kSeekCur), 6);
    co_await g.Lseek(static_cast<int>(fd), 2, kSeekSet);
    EXPECT_EQ(co_await g.Lseek(static_cast<int>(dup_fd), 0, kSeekCur), 2);
    // dup2 onto an occupied slot silently closes it.
    int64_t other = co_await g.Open("/tmp/other", kO_CREAT | kO_RDWR);
    EXPECT_EQ(co_await g.Dup2(static_cast<int>(fd), static_cast<int>(other)), other);
    EXPECT_EQ(co_await g.Lseek(static_cast<int>(other), 0, kSeekCur), 2);
  });
  w.Run();
}

TEST(KernelEdgeTest, FcntlNonblockToggle) {
  SimWorld w;
  Process* p = w.NewProcess("fcntl");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr fds = g.Alloc(8);
    co_await g.Pipe(fds);
    int rfd = static_cast<int>(g.PeekU32(fds));
    int64_t flags = co_await g.Fcntl(rfd, kF_GETFL);
    EXPECT_EQ(flags & kO_NONBLOCK, 0);
    co_await g.Fcntl(rfd, kF_SETFL, static_cast<uint64_t>(flags | kO_NONBLOCK));
    GuestAddr buf = g.Alloc(8);
    EXPECT_EQ(co_await g.Read(rfd, buf, 8), -kEAGAIN);  // Now non-blocking.
    co_await g.Fcntl(rfd, kF_SETFL, static_cast<uint64_t>(flags & ~kO_NONBLOCK));
    flags = co_await g.Fcntl(rfd, kF_GETFL);
    EXPECT_EQ(flags & kO_NONBLOCK, 0);
  });
  w.Run();
}

// sendfile moves a file to a socket, which has no position, and into a regular
// file at the output's file position, which it advances, as on Linux.
TEST(KernelEdgeTest, SendfileToASocketOrAFile) {
  SimWorld w;
  w.fs.WriteWholeFile("/www/page.html", std::string(10000, 'x'));
  w.fs.WriteWholeFile("/tmp/sf-src", "1234");
  Process* server = w.NewProcess("sf-server", -1, w.server_machine);
  Process* client = w.NewProcess("sf-client", -1, w.client_machine);
  uint64_t received = 0;
  w.kernel.SpawnThread(server, [&](Guest& g) -> GuestTask<void> {
    int64_t lfd = co_await g.Socket(kAfInet, kSockStream);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = 80;
    g.Poke(sa, &addr, sizeof(addr));
    co_await g.Bind(static_cast<int>(lfd), sa, sizeof(addr));
    co_await g.Listen(static_cast<int>(lfd), 4);
    int64_t cfd = co_await g.Accept(static_cast<int>(lfd), 0, 0);
    int64_t file = co_await g.Open("/www/page.html", kO_RDONLY);
    int64_t sent = co_await g.Sendfile(static_cast<int>(cfd), static_cast<int>(file),
                                       0, 10000);
    EXPECT_EQ(sent, 10000);
    co_await g.Close(static_cast<int>(cfd));

    int dst = static_cast<int>(co_await g.Open("/tmp/sf-dst", kO_CREAT | kO_RDWR));
    int src = static_cast<int>(co_await g.Open("/tmp/sf-src", kO_RDONLY));
    GuestAddr buf = g.Alloc(16);
    g.Poke(buf, "xyz", 3);
    EXPECT_EQ(co_await g.Write(dst, buf, 3), 3);
    EXPECT_EQ(co_await g.Sendfile(dst, src, 0, 4), 4);
    EXPECT_EQ(co_await g.Lseek(dst, 0, kSeekCur), 7);
    EXPECT_EQ(co_await g.Lseek(src, 0, kSeekCur), 4);
    // A file output that reaches the filesystem's size limit ends the call with
    // what it wrote; it does not wait for room as a stream would.
    constexpr int64_t kNearLimit = static_cast<int64_t>(Filesystem::kMaxFileBytes) - 2;
    EXPECT_EQ(co_await g.Lseek(dst, kNearLimit, kSeekSet), kNearLimit);
    EXPECT_EQ(co_await g.Lseek(src, 0, kSeekSet), 0);
    EXPECT_EQ(co_await g.Sendfile(dst, src, 0, 4), 2);
    EXPECT_EQ(co_await g.Lseek(src, 0, kSeekCur), 2);
    EXPECT_EQ(co_await g.Sendfile(dst, src, 0, 2), -kEFBIG);
    EXPECT_EQ(co_await g.Ftruncate(dst, 7), 0);  // Drops the 4 GiB tail again.
  });
  w.kernel.SpawnThread(client, [&](Guest& g) -> GuestTask<void> {
    int64_t s = co_await g.Socket(kAfInet, kSockStream);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = 80;
    g.Poke(sa, &addr, sizeof(addr));
    co_await g.Connect(static_cast<int>(s), sa, sizeof(addr));
    GuestAddr buf = g.Alloc(4096);
    for (;;) {
      int64_t n = co_await g.Read(static_cast<int>(s), buf, 4096);
      if (n <= 0) {
        break;
      }
      received += static_cast<uint64_t>(n);
    }
  });
  w.Run();
  EXPECT_EQ(received, 10000u);
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/sf-dst"), std::optional<std::string>("xyz1234"));
}

TEST(KernelEdgeTest, GetdentsPaginatesViaSyscall) {
  SimWorld w;
  w.fs.Mkdir("/many");
  for (int i = 0; i < 10; ++i) {
    w.fs.WriteWholeFile("/many/f" + std::to_string(i), "");
  }
  Process* p = w.NewProcess("dents");
  int total = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/many", kO_RDONLY | kO_DIRECTORY);
    GuestAddr buf = g.Alloc(3 * sizeof(GuestDirent));
    for (;;) {
      int64_t n = co_await g.Getdents(static_cast<int>(fd), buf, 3 * sizeof(GuestDirent));
      if (n <= 0) {
        break;
      }
      total += static_cast<int>(n / sizeof(GuestDirent));
    }
  });
  w.Run();
  EXPECT_EQ(total, 10);
}

TEST(KernelEdgeTest, XattrsRoundTrip) {
  SimWorld w;
  w.fs.WriteWholeFile("/tmp/x", "data");
  Process* p = w.NewProcess("xattr");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr path = g.CString("/tmp/x");
    GuestAddr name = g.CString("user.tag");
    GuestAddr value = g.Alloc(16);
    g.Poke(value, "hello", 5);
    EXPECT_EQ(co_await g.Syscall(Sys::kSetxattr, path, name, value, 5), 0);
    GuestAddr out = g.Alloc(16);
    int64_t n = co_await g.Syscall(Sys::kGetxattr, path, name, out, 16);
    EXPECT_EQ(n, 5);
    EXPECT_EQ(g.PeekString(out, 5), "hello");
    GuestAddr missing = g.CString("user.none");
    EXPECT_EQ(co_await g.Syscall(Sys::kGetxattr, path, missing, out, 16), -kENODATA);
  });
  w.Run();
}

TEST(KernelEdgeTest, BrkGrowsAndReports) {
  SimWorld w;
  Process* p = w.NewProcess("brk");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t cur = co_await g.Brk(0);
    EXPECT_GT(cur, 0);
    int64_t grown = co_await g.Brk(static_cast<GuestAddr>(cur) + 65536);
    EXPECT_EQ(grown, cur + 65536);
    // Invalid request leaves the break unchanged.
    int64_t unchanged = co_await g.Brk(1);
    EXPECT_EQ(unchanged, grown);
  });
  w.Run();
}

TEST(KernelEdgeTest, SelectTimeoutAndReadiness) {
  SimWorld w;
  Process* p = w.NewProcess("select");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr fds = g.Alloc(8);
    co_await g.Pipe(fds);
    int rfd = static_cast<int>(g.PeekU32(fds));
    int wfd = static_cast<int>(g.PeekU32(fds + 4));
    GuestAddr set = g.Alloc(128);
    std::array<uint64_t, 16> bits{};
    bits[static_cast<size_t>(rfd) / 64] |= 1ULL << (rfd % 64);
    g.Poke(set, bits.data(), 128);
    GuestAddr tv = g.Alloc(sizeof(GuestTimeval));
    GuestTimeval timeout{0, 5000};  // 5 ms.
    g.Poke(tv, &timeout, sizeof(timeout));
    TimeNs before = g.kernel()->now();
    EXPECT_EQ(co_await g.Select(rfd + 1, set, 0, 0, tv), 0);  // Times out.
    EXPECT_GE(g.kernel()->now() - before, Millis(5));
    // Now with data: returns 1 and sets the bit.
    GuestAddr buf = g.Alloc(4);
    co_await g.Write(wfd, buf, 1);
    g.Poke(set, bits.data(), 128);
    EXPECT_EQ(co_await g.Select(rfd + 1, set, 0, 0, 0), 1);
    std::array<uint64_t, 16> out{};
    g.Peek(set, out.data(), 128);
    EXPECT_TRUE(out[static_cast<size_t>(rfd) / 64] & (1ULL << (rfd % 64)));
  });
  w.Run();
}

// --- GHUMVEE FD bookkeeping feeding the file map (paper §3.6) -------------------

TEST(FileMapTrackingTest, GhumveeTracksFdLifecycle) {
  SimWorld w(31);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kSocketRw;
  Remon mvee(&w.kernel, opts);
  int file_fd = -1;
  int pipe_rd = -1;
  int sock_fd = -1;
  int closed_fd = -1;
  mvee.Launch([&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/track", kO_CREAT | kO_RDWR);
    file_fd = static_cast<int>(fd);
    GuestAddr fds = g.Alloc(8);
    co_await g.Pipe(fds);
    pipe_rd = static_cast<int>(g.PeekU32(fds));
    int64_t s = co_await g.Socket(kAfInet, kSockStream | kSockNonblock);
    sock_fd = static_cast<int>(s);
    int64_t gone = co_await g.Open("/tmp/gone", kO_CREAT | kO_RDWR);
    closed_fd = static_cast<int>(gone);
    co_await g.Close(static_cast<int>(gone));
    // Toggle non-blocking on the file via fcntl: must reach the file map.
    int64_t flags = co_await g.Fcntl(file_fd, kF_GETFL);
    co_await g.Fcntl(file_fd, kF_SETFL, static_cast<uint64_t>(flags | kO_NONBLOCK));
  });
  w.Run();
  ASSERT_FALSE(mvee.divergence_detected());
  FileMap* fm = mvee.ghumvee()->file_map();
  EXPECT_EQ(fm->TypeOf(file_fd), FdType::kRegular);
  EXPECT_TRUE(fm->IsNonblocking(file_fd));
  EXPECT_EQ(fm->TypeOf(pipe_rd), FdType::kPipe);
  EXPECT_EQ(fm->TypeOf(sock_fd), FdType::kSocket);
  EXPECT_TRUE(fm->IsNonblocking(sock_fd));
  EXPECT_FALSE(fm->IsValid(closed_fd));
}

TEST(KernelEdgeTest, UnameAndSysinfoFillStructs) {
  SimWorld w;
  Process* p = w.NewProcess("uname");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr u = g.Alloc(sizeof(GuestUtsname));
    EXPECT_EQ(co_await g.Uname(u), 0);
    GuestUtsname uts;
    g.Peek(u, &uts, sizeof(uts));
    EXPECT_STREQ(uts.sysname, "Linux");
    EXPECT_STREQ(uts.machine, "x86_64");
    GuestAddr si = g.Alloc(sizeof(GuestSysinfo));
    EXPECT_EQ(co_await g.Syscall(Sys::kSysinfo, si), 0);
    GuestSysinfo info;
    g.Peek(si, &info, sizeof(info));
    EXPECT_GT(info.totalram, 0u);
  });
  w.Run();
}

// tgkill(tgid, tid, sig) reaches only a live thread of thread group `tgid`.
TEST(KernelEdgeTest, TgkillNeedsALiveThreadOfTheGroup) {
  SimWorld w;
  Process* p = w.NewProcess("tgkill");
  Process* other = w.NewProcess("other");
  int64_t other_tid = 0;
  w.kernel.SpawnThread(other, [&](Guest& g) -> GuestTask<void> {
    other_tid = co_await g.Gettid();
    co_await g.SleepNs(Millis(2));
  });
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    auto tgkill = [&g](int64_t tgid, int64_t tid, int sig) {
      return g.Syscall(Sys::kTgkill, static_cast<uint64_t>(tgid), static_cast<uint64_t>(tid),
                       static_cast<uint64_t>(sig));
    };
    int64_t pid = co_await g.Getpid();
    int64_t tid = co_await g.Gettid();
    co_await g.SleepNs(Micros(10));  // `other` has run.
    EXPECT_EQ(co_await tgkill(pid, tid, 0), 0);
    EXPECT_EQ(co_await tgkill(other->pid(), other_tid, 0), 0);
    // A live thread, but of another group.
    EXPECT_EQ(co_await tgkill(pid, other_tid, kSIGUSR1), -kESRCH);
    EXPECT_EQ(co_await tgkill(other->pid(), tid, kSIGUSR1), -kESRCH);
    EXPECT_EQ(co_await tgkill(0, tid, 0), -kEINVAL);
    EXPECT_EQ(co_await tgkill(pid, 0, 0), -kEINVAL);
    EXPECT_EQ(co_await tgkill(pid, tid, kNumSignals), -kEINVAL);

    // A thread that exited and was reaped.
    int64_t worker_tid = 0;
    uint64_t fn = g.RegisterThreadFn([&worker_tid](Guest& wg) -> GuestTask<void> {
      worker_tid = co_await wg.Gettid();
    });
    co_await g.SpawnThread(fn);
    co_await g.SleepNs(Millis(1));
    EXPECT_GT(worker_tid, 0);
    EXPECT_EQ(p->threads.size(), 1u);
    EXPECT_EQ(co_await tgkill(pid, worker_tid, kSIGUSR1), -kESRCH);
  });
  w.Run();
  EXPECT_EQ(w.sim.stats().signals_raised, 0u);
}

// An exited thread the kernel still holds (here the leader, kept as the process's
// zombie) is gone for tgkill too.
TEST(KernelEdgeTest, TgkillToAnExitedLeaderIsEsrch) {
  SimWorld w;
  Process* p = w.NewProcess("zombie-leader");
  int64_t result = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t pid = co_await g.Getpid();
    int64_t leader_tid = co_await g.Gettid();
    uint64_t fn = g.RegisterThreadFn([&result, pid, leader_tid](Guest& wg) -> GuestTask<void> {
      co_await wg.SleepNs(Millis(1));
      result = co_await wg.Syscall(Sys::kTgkill, static_cast<uint64_t>(pid),
                                   static_cast<uint64_t>(leader_tid),
                                   static_cast<uint64_t>(kSIGUSR1));
    });
    co_await g.SpawnThread(fn);
    // The leader returns (exits) while the worker lives on.
  });
  w.Run();
  EXPECT_EQ(result, -kESRCH);
  EXPECT_EQ(w.sim.stats().signals_raised, 0u);
  EXPECT_EQ(p->threads.size(), 1u);
  EXPECT_FALSE(p->threads.front()->alive());
}

TEST(KernelEdgeTest, RenameUnlinkUnderMvee) {
  SimWorld w(37);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/old-name", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(8);
    g.Poke(buf, "payload", 7);
    co_await g.Write(static_cast<int>(fd), buf, 7);
    co_await g.Close(static_cast<int>(fd));
    EXPECT_EQ(co_await g.Rename("/tmp/old-name", "/tmp/new-name"), 0);
    EXPECT_EQ(co_await g.Access("/tmp/old-name", 0), -kENOENT);
    EXPECT_EQ(co_await g.Access("/tmp/new-name", 0), 0);
    EXPECT_EQ(co_await g.Unlink("/tmp/new-name"), 0);
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.finished());
  EXPECT_EQ(w.fs.Resolve("/tmp/new-name"), nullptr);
}

// Guest time arguments: Linux rejects tv_sec < 0 or tv_nsec outside [0, 1e9) with
// EINVAL, and a valid timeout too long for virtual time never expires instead of
// overflowing. One case per syscall.

TEST(KernelEdgeTest, FutexWaitValidatesItsTimespec) {
  SimWorld w;
  Process* p = w.NewProcess("futex-ts");
  int64_t saturated = 1;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr word = g.Alloc(4);
    g.PokeU32(word, 0);
    GuestAddr ts = g.Alloc(sizeof(GuestTimespec));
    TimeNs start = g.kernel()->now();
    for (GuestTimespec bad : {GuestTimespec{-1, 0}, GuestTimespec{0, 2 * kSecond},
                              GuestTimespec{0, -1}}) {
      g.Poke(ts, &bad, sizeof(bad));
      EXPECT_EQ(co_await g.Futex(word, kFutexWait, 0, ts), -kEINVAL) << bad.tv_sec;
    }
    EXPECT_LT(g.kernel()->now() - start, Millis(1));  // Rejected without sleeping.
    EXPECT_EQ(g.kernel()->futex().queue_count(), 0u);
    // A timeout past the end of virtual time waits for the wake.
    GuestTimespec huge{INT64_MAX, 0};
    g.Poke(ts, &huge, sizeof(huge));
    uint64_t waker = g.RegisterThreadFn([word](Guest& wg) -> GuestTask<void> {
      co_await wg.SleepNs(Millis(1));
      co_await wg.Futex(word, kFutexWake, 1);
    });
    co_await g.SpawnThread(waker);
    saturated = co_await g.Futex(word, kFutexWait, 0, ts);
  });
  w.Run();
  EXPECT_EQ(saturated, 0);
}

TEST(KernelEdgeTest, NanosleepValidatesItsTimespec) {
  SimWorld w;
  Process* p = w.NewProcess("nanosleep-ts");
  bool woke_from_huge = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr ts = g.Alloc(sizeof(GuestTimespec));
    TimeNs start = g.kernel()->now();
    for (GuestTimespec bad : {GuestTimespec{-1, 0}, GuestTimespec{0, 2 * kSecond},
                              GuestTimespec{0, -1}}) {
      g.Poke(ts, &bad, sizeof(bad));
      EXPECT_EQ(co_await g.Nanosleep(ts), -kEINVAL) << bad.tv_nsec;
    }
    EXPECT_LT(g.kernel()->now() - start, Millis(1));  // Rejected without sleeping.
    GuestTimespec huge{INT64_MAX, kSecond - 1};
    g.Poke(ts, &huge, sizeof(huge));
    co_await g.Nanosleep(ts);
    woke_from_huge = true;
  });
  w.Run(Seconds(10));
  EXPECT_FALSE(woke_from_huge);  // Still asleep: the deadline saturated to never.
}

TEST(KernelEdgeTest, TimerfdSettimeValidatesItsTimespecs) {
  SimWorld w;
  Process* p = w.NewProcess("timerfd-ts");
  GuestItimerspec armed{};
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.TimerfdCreate());
    GuestAddr its = g.Alloc(sizeof(GuestItimerspec));
    GuestItimerspec bad_value;
    bad_value.it_value = GuestTimespec{0, kSecond};
    GuestItimerspec bad_interval;
    bad_interval.it_value = GuestTimespec{1, 0};
    bad_interval.it_interval = GuestTimespec{-1, 0};
    for (const GuestItimerspec& bad : {bad_value, bad_interval}) {
      g.Poke(its, &bad, sizeof(bad));
      EXPECT_EQ(co_await g.TimerfdSettime(fd, its), -kEINVAL);
    }
    GuestItimerspec huge;
    huge.it_value = GuestTimespec{INT64_MAX, 0};
    huge.it_interval = GuestTimespec{INT64_MAX, 0};
    g.Poke(its, &huge, sizeof(huge));
    EXPECT_EQ(co_await g.TimerfdSettime(fd, its), 0);
    co_await g.Syscall(Sys::kTimerfdGettime, static_cast<uint64_t>(fd), its);
    g.Peek(its, &armed, sizeof(armed));
  });
  w.Run();  // Returns: an expiry past the end of virtual time schedules nothing.
  EXPECT_EQ(armed.it_value.tv_sec, kTimeNever / kSecond);
  EXPECT_EQ(armed.it_interval.tv_sec, kTimeNever / kSecond);
}

TEST(KernelEdgeTest, SetitimerValidatesItsTimespecs) {
  SimWorld w;
  Process* p = w.NewProcess("setitimer-ts");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr its = g.Alloc(sizeof(GuestItimerspec));
    GuestItimerspec bad_value;
    bad_value.it_value = GuestTimespec{0, kSecond};
    GuestItimerspec negative;
    negative.it_value = GuestTimespec{-1, 0};
    GuestItimerspec bad_interval;
    bad_interval.it_value = GuestTimespec{1, 0};
    bad_interval.it_interval = GuestTimespec{0, -5};
    for (const GuestItimerspec& bad : {bad_value, negative, bad_interval}) {
      g.Poke(its, &bad, sizeof(bad));
      EXPECT_EQ(co_await g.Syscall(Sys::kSetitimer, 0, its), -kEINVAL);
    }
    GuestItimerspec huge;
    huge.it_value = GuestTimespec{INT64_MAX, 0};
    g.Poke(its, &huge, sizeof(huge));
    EXPECT_EQ(co_await g.Syscall(Sys::kSetitimer, 0, its), 0);
  });
  w.Run();
  EXPECT_EQ(w.sim.stats().signals_raised, 0u);  // No SIGALRM: it never expires.
  EXPECT_EQ(p->itimer_event, 0u);
}

// alarm takes an unsigned int: the register's high bits do not count.
TEST(KernelEdgeTest, AlarmSecondsAreAnUnsignedInt) {
  SimWorld w;
  Process* p = w.NewProcess("alarm-int");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    EXPECT_EQ(co_await g.Alarm((uint64_t{1} << 32) + 1), 0);  // alarm(1).
    co_await g.SleepNs(Seconds(5));
  });
  w.Run(Seconds(2));
  EXPECT_EQ(w.sim.stats().signals_raised, 1u);
  EXPECT_TRUE(p->exited);  // SIGALRM's default action.
}

TEST(KernelEdgeTest, SelectValidatesItsTimeval) {
  SimWorld w;
  Process* p = w.NewProcess("select-tv");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr tv = g.Alloc(sizeof(GuestTimeval));
    TimeNs start = g.kernel()->now();
    for (GuestTimeval bad : {GuestTimeval{-1, 0}, GuestTimeval{0, 1000000},
                             GuestTimeval{0, -1}}) {
      g.Poke(tv, &bad, sizeof(bad));
      EXPECT_EQ(co_await g.Select(0, 0, 0, 0, tv), -kEINVAL) << bad.tv_usec;
    }
    EXPECT_LT(g.kernel()->now() - start, Millis(1));  // Rejected without sleeping.
  });
  w.Run();
}

// poll and epoll_wait take an int timeout: only the register's low 32 bits count.
TEST(KernelEdgeTest, PollTimeoutIsAnInt) {
  SimWorld w;
  Process* p = w.NewProcess("poll-int");
  DurationNs waited = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr fds = g.Alloc(8);
    co_await g.Pipe(fds);
    GuestAddr pfd = g.Alloc(sizeof(GuestPollfd));
    GuestPollfd pf;
    pf.fd = static_cast<int>(g.PeekU32(fds));
    pf.events = static_cast<int16_t>(kPollIn);
    g.Poke(pfd, &pf, sizeof(pf));
    TimeNs start = g.kernel()->now();
    EXPECT_EQ(co_await g.Syscall(Sys::kPoll, pfd, 1, (uint64_t{1} << 32) + 5), 0);
    waited = g.kernel()->now() - start;
  });
  w.Run();
  EXPECT_GE(waited, Millis(5));
  EXPECT_LT(waited, Millis(6));
}

TEST(KernelEdgeTest, EpollWaitTimeoutIsAnInt) {
  SimWorld w;
  Process* p = w.NewProcess("epoll-int");
  DurationNs waited = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int epfd = static_cast<int>(co_await g.EpollCreate1());
    GuestAddr evs = g.Alloc(sizeof(GuestEpollEvent));
    TimeNs start = g.kernel()->now();
    EXPECT_EQ(co_await g.Syscall(Sys::kEpollWait, static_cast<uint64_t>(epfd), evs, 1,
                                 (uint64_t{1} << 32) + 5),
              0);
    waited = g.kernel()->now() - start;
  });
  w.Run();
  EXPECT_GE(waited, Millis(5));
  EXPECT_LT(waited, Millis(6));
}

// --- Guest lengths and offsets never size a host allocation ---------------------

// A read moves what lies before EOF: the guest's length (clamped to MAX_RW_COUNT)
// is only an upper bound, and the kernel's copy buffer holds the 3 file bytes.
TEST(KernelEdgeTest, HugeReadOfAShortFileMovesTheFileBytes) {
  SimWorld w;
  w.fs.WriteWholeFile("/tmp/short", "abc");
  Process* p = w.NewProcess("huge-read");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.Open("/tmp/short", kO_RDONLY));
    GuestAddr buf = g.Alloc(16);
    EXPECT_EQ(co_await g.Pread(fd, buf, uint64_t{1} << 46, 0), 3);
    EXPECT_EQ(g.PeekString(buf, 3), "abc");
    EXPECT_EQ(co_await g.Read(fd, buf, uint64_t{1} << 46), 3);
    EXPECT_EQ(co_await g.Read(fd, buf, uint64_t{1} << 46), 0);  // EOF.
    GuestAddr iov = g.Alloc(sizeof(GuestIovec));
    GuestIovec v{buf, uint64_t{1} << 46};
    g.Poke(iov, &v, sizeof(v));
    co_await g.Lseek(fd, 0, kSeekSet);
    EXPECT_EQ(co_await g.Readv(fd, iov, 1), 3);
  });
  w.Run();
}

TEST(KernelEdgeTest, NegativeLengthsAndOffsetsAreEinval) {
  SimWorld w;
  w.fs.WriteWholeFile("/tmp/neg", "abc");
  Process* p = w.NewProcess("negative");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.Open("/tmp/neg", kO_RDWR));
    GuestAddr buf = g.Alloc(16);
    EXPECT_EQ(co_await g.Ftruncate(fd, static_cast<uint64_t>(-1)), -kEINVAL);
    EXPECT_EQ(co_await g.Syscall(Sys::kTruncate, g.CString("/tmp/neg"),
                                 static_cast<uint64_t>(-4096)),
              -kEINVAL);
    EXPECT_EQ(co_await g.Read(fd, buf, static_cast<uint64_t>(-1)), -kEINVAL);
    EXPECT_EQ(co_await g.Write(fd, buf, static_cast<uint64_t>(-1)), -kEINVAL);
    EXPECT_EQ(co_await g.Pread(fd, buf, 1, static_cast<uint64_t>(-1)), -kEINVAL);
    EXPECT_EQ(co_await g.Pwrite(fd, buf, 1, static_cast<uint64_t>(-1)), -kEINVAL);
    EXPECT_EQ(w.fs.ReadWholeFile("/tmp/neg"), "abc");
  });
  w.Run();
}

// Files end at s_maxbytes: a write starting there, or a truncate past it, is EFBIG;
// a write running across it is cut short there.
TEST(KernelEdgeTest, FileSizeStopsAtTheFilesystemLimit) {
  SimWorld w;
  Process* p = w.NewProcess("efbig");
  std::shared_ptr<Inode> inode;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.Open("/tmp/big", kO_CREAT | kO_RDWR));
    inode = w.fs.Resolve("/tmp/big");
    GuestAddr buf = g.Alloc(16);
    g.Poke(buf, "xy", 2);
    EXPECT_EQ(co_await g.Pwrite(fd, buf, 1, uint64_t{1} << 46), -kEFBIG);
    EXPECT_EQ(co_await g.Pwrite(fd, buf, 1, Filesystem::kMaxFileBytes), -kEFBIG);
    EXPECT_EQ(co_await g.Ftruncate(fd, Filesystem::kMaxFileBytes + 1), -kEFBIG);
    EXPECT_EQ(inode->data.size(), 0u);
    EXPECT_EQ(co_await g.Pwrite(fd, buf, 2, Filesystem::kMaxFileBytes - 1), 1);
    EXPECT_EQ(inode->data.size(), Filesystem::kMaxFileBytes);
    EXPECT_EQ(inode->data.resident_pages(), 1u);  // Only the page written.
    EXPECT_EQ(co_await g.Ftruncate(fd, 0), 0);
    EXPECT_EQ(inode->data.resident_pages(), 0u);
  });
  w.Run();
  ASSERT_NE(inode, nullptr);
}

// A write's source must be mapped before the kernel sizes a buffer by its length.
TEST(KernelEdgeTest, WriteFromAnUnmappedSourceIsEfault) {
  SimWorld w;
  Process* p = w.NewProcess("efault");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.Open("/tmp/src", kO_CREAT | kO_RDWR));
    GuestAddr buf = g.Alloc(16);
    EXPECT_EQ(co_await g.Write(fd, buf, uint64_t{1} << 46), -kEFAULT);
    GuestAddr iov = g.Alloc(2 * sizeof(GuestIovec));
    GuestIovec v[2] = {{buf, 4}, {buf, uint64_t{1} << 46}};
    g.Poke(iov, v, sizeof(v));
    EXPECT_EQ(co_await g.Writev(fd, iov, 2), -kEFAULT);
    EXPECT_EQ(w.fs.ReadWholeFile("/tmp/src"), "");
  });
  w.Run();
}

// GHUMVEE serializes a monitored write's buffer for its lockstep compare: an
// unmapped source is a fault marker there too, not an allocation of its length.
TEST(KernelEdgeTest, MonitoredWriteFromAnUnmappedSourceIsEfault) {
  SimWorld w(38);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.Open("/tmp/monitored", kO_CREAT | kO_RDWR));
    GuestAddr buf = g.Alloc(16);
    EXPECT_EQ(co_await g.Write(fd, buf, uint64_t{1} << 46), -kEFAULT);
    co_await g.Close(fd);
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.finished());
}

TEST(KernelEdgeTest, WritevHonoursOAppend) {
  SimWorld w;
  Process* p = w.NewProcess("writev-append");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(
        co_await g.Open("/tmp/append", kO_CREAT | kO_WRONLY | kO_APPEND));
    GuestAddr buf = g.Alloc(16);
    g.Poke(buf, "xyz", 3);
    EXPECT_EQ(co_await g.Write(fd, buf, 3), 3);
    co_await g.Lseek(fd, 0, kSeekSet);
    GuestAddr iov = g.Alloc(2 * sizeof(GuestIovec));
    GuestIovec v[2] = {{buf, 1}, {buf + 1, 1}};
    g.Poke(iov, v, sizeof(v));
    EXPECT_EQ(co_await g.Writev(fd, iov, 2), 2);
    EXPECT_EQ(co_await g.Lseek(fd, 0, kSeekCur), 5);
  });
  w.Run();
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/append"), "xyzxy");
}

// --- One read path and one write path --------------------------------------------

// How a read- or write-family call takes its buffer.
enum class Wrap { kPlain, kIovec, kMsghdr };

struct IoForm {
  Sys nr;
  Wrap wrap;
  bool positional;
  bool socket;  // Refuses a descriptor that is not a socket.
};

constexpr IoForm kReadForms[] = {
    {Sys::kRead, Wrap::kPlain, false, false},    {Sys::kPread64, Wrap::kPlain, true, false},
    {Sys::kReadv, Wrap::kIovec, false, false},   {Sys::kPreadv, Wrap::kIovec, true, false},
    {Sys::kRecvfrom, Wrap::kPlain, false, true}, {Sys::kRecvmsg, Wrap::kMsghdr, false, true},
    {Sys::kRecvmmsg, Wrap::kMsghdr, false, true},
};

constexpr IoForm kWriteForms[] = {
    {Sys::kWrite, Wrap::kPlain, false, false},   {Sys::kPwrite64, Wrap::kPlain, true, false},
    {Sys::kWritev, Wrap::kIovec, false, false},  {Sys::kPwritev, Wrap::kIovec, true, false},
    {Sys::kSendto, Wrap::kPlain, false, true},   {Sys::kSendmsg, Wrap::kMsghdr, false, true},
    {Sys::kSendmmsg, Wrap::kMsghdr, false, true},
};

// Calls `form` on `len` bytes at `buf` (and at `offset` when positional): a vectored
// form wraps the buffer in one iovec at `scratch`, a msghdr form in a msghdr after
// that iovec.
SyscallAwait CallIo(Guest& g, const IoForm& form, int fd, GuestAddr buf, uint64_t len,
                    uint64_t offset, GuestAddr scratch) {
  GuestIovec v{buf, len};
  g.Poke(scratch, &v, sizeof(v));
  GuestMsghdr hdr;
  hdr.msg_iov = scratch;
  hdr.msg_iovlen = 1;
  g.Poke(scratch + sizeof(v), &hdr, sizeof(hdr));
  uint64_t pos = form.positional ? offset : 0;
  uint64_t ufd = static_cast<uint64_t>(fd);
  switch (form.wrap) {
    case Wrap::kIovec:
      return g.Syscall(form.nr, ufd, scratch, 1, pos);
    case Wrap::kMsghdr:
      return g.Syscall(form.nr, ufd, scratch + sizeof(v));
    case Wrap::kPlain:
    default:
      return g.Syscall(form.nr, ufd, buf, len, pos);
  }
}

// A connected stream pair inside one process: {the connecting end, the accepted end}.
GuestTask<std::pair<int, int>> SocketPair(Guest& g, uint16_t port) {
  int lfd = static_cast<int>(co_await g.Socket(kAfInet, kSockStream));
  GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
  GuestSockaddrIn addr;
  addr.sin_port = port;
  addr.sin_addr = kInaddrLoopback;
  g.Poke(sa, &addr, sizeof(addr));
  co_await g.Bind(lfd, sa, sizeof(addr));
  co_await g.Listen(lfd, 4);
  int cfd = static_cast<int>(co_await g.Socket(kAfInet, kSockStream));
  EXPECT_EQ(co_await g.Connect(cfd, sa, sizeof(addr)), 0);
  int afd = static_cast<int>(co_await g.Accept(lfd, 0, 0));
  co_return std::pair<int, int>{cfd, afd};
}

// An address no process maps: below the start of user space.
constexpr GuestAddr kUnmappedBuf = 0x100;

// Every read-family call against one file state and one socket state: each edge
// input gives the result of the call's one-segment twin (read, or pread64 for the
// positional calls), and a socket call on any other descriptor is ENOTSOCK.
TEST(KernelEdgeTest, ReadFamilyMatchesItsOneSegmentTwin) {
  SimWorld w;
  w.fs.WriteWholeFile("/tmp/rd", "abcdef");
  w.fs.Mkdir("/tmp/rd-dir");
  Process* p = w.NewProcess("read-family");
  bool finished = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.Open("/tmp/rd", kO_RDONLY));
    int dir = static_cast<int>(co_await g.Open("/tmp/rd-dir", kO_RDONLY | kO_DIRECTORY));
    auto [peer, sock] = co_await SocketPair(g, 7001);
    GuestAddr buf = g.Alloc(16);
    GuestAddr scratch = g.Alloc(sizeof(GuestIovec) + sizeof(GuestMsghdr));
    GuestAddr src = g.Alloc(8);
    g.Poke(src, "abcdef", 6);
    const uint64_t kNeg = static_cast<uint64_t>(-1);
    struct Input {
      const char* what;
      int fd;
      GuestAddr buf;
      uint64_t len;
      uint64_t offset;
    };
    const Input inputs[] = {
        {"4 bytes at 1", fd, buf, 4, 1},       {"negative length", fd, buf, kNeg, 1},
        {"negative offset", fd, buf, 4, kNeg}, {"unmapped buffer", fd, kUnmappedBuf, 4, 1},
        {"bad fd", 999, buf, 4, 1},            {"directory", dir, buf, 4, 1},
    };
    for (const Input& in : inputs) {
      int64_t twin[2] = {};  // Plain, positional.
      for (const IoForm& form : kReadForms) {
        g.Poke(buf, "--------", 8);
        co_await g.Lseek(fd, 1, kSeekSet);
        int64_t got = co_await CallIo(g, form, in.fd, in.buf, in.len, in.offset, scratch);
        int64_t offset_after = co_await g.Lseek(fd, 0, kSeekCur);
        if (form.nr == Sys::kRead || form.nr == Sys::kPread64) {
          twin[form.positional] = got;
        }
        int64_t want = twin[form.positional];
        if (form.socket && in.fd != 999) {
          want = -kENOTSOCK;
        }
        EXPECT_EQ(got, want) << SysName(form.nr) << ": " << in.what;
        if (got == 4) {
          EXPECT_EQ(g.PeekString(buf, 4), "bcde") << SysName(form.nr);
          EXPECT_EQ(offset_after, form.positional ? 1 : 5) << SysName(form.nr);
        } else {
          EXPECT_EQ(offset_after, 1) << SysName(form.nr) << ": " << in.what;
        }
      }
    }
    // The same stream state for each call that reads a socket.
    for (const IoForm& form : kReadForms) {
      if (form.positional) {
        continue;
      }
      co_await g.Write(peer, src, 6);
      g.Poke(buf, "--------", 8);
      EXPECT_EQ(co_await CallIo(g, form, sock, buf, 4, 0, scratch), 4) << SysName(form.nr);
      EXPECT_EQ(g.PeekString(buf, 4), "abcd") << SysName(form.nr);
      EXPECT_EQ(co_await g.Read(sock, buf, 16), 2) << SysName(form.nr);
    }
    finished = true;
  });
  w.Run();
  EXPECT_TRUE(finished);
}

// Every write-family call against one file state and one socket state, matched
// against its one-segment twin (write, or pwrite64 for the positional calls).
TEST(KernelEdgeTest, WriteFamilyMatchesItsOneSegmentTwin) {
  SimWorld w;
  w.fs.Mkdir("/tmp/wr-dir");
  Process* p = w.NewProcess("write-family");
  bool finished = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.Open("/tmp/wr", kO_CREAT | kO_RDWR));
    int dir = static_cast<int>(co_await g.Open("/tmp/wr-dir", kO_RDONLY | kO_DIRECTORY));
    auto [peer, sock] = co_await SocketPair(g, 7002);
    GuestAddr src = g.Alloc(16);
    g.Poke(src, "WXYZ", 4);
    GuestAddr init = g.Alloc(8);
    g.Poke(init, "abcdef", 6);
    GuestAddr buf = g.Alloc(16);
    GuestAddr scratch = g.Alloc(sizeof(GuestIovec) + sizeof(GuestMsghdr));
    const uint64_t kNeg = static_cast<uint64_t>(-1);
    struct Input {
      const char* what;
      int fd;
      GuestAddr buf;
      uint64_t len;
      uint64_t offset;
    };
    const Input inputs[] = {
        {"4 bytes at 1", fd, src, 4, 1},       {"negative length", fd, src, kNeg, 1},
        {"negative offset", fd, src, 4, kNeg}, {"unmapped buffer", fd, kUnmappedBuf, 4, 1},
        {"bad fd", 999, src, 4, 1},            {"directory", dir, src, 4, 1},
    };
    for (const Input& in : inputs) {
      int64_t twin[2] = {};
      for (const IoForm& form : kWriteForms) {
        co_await g.Ftruncate(fd, 0);
        co_await g.Pwrite(fd, init, 6, 0);
        co_await g.Lseek(fd, 1, kSeekSet);
        int64_t got = co_await CallIo(g, form, in.fd, in.buf, in.len, in.offset, scratch);
        int64_t offset_after = co_await g.Lseek(fd, 0, kSeekCur);
        if (form.nr == Sys::kWrite || form.nr == Sys::kPwrite64) {
          twin[form.positional] = got;
        }
        int64_t want = twin[form.positional];
        if (form.socket && in.fd != 999) {
          want = -kENOTSOCK;
        }
        EXPECT_EQ(got, want) << SysName(form.nr) << ": " << in.what;
        EXPECT_EQ(w.fs.ReadWholeFile("/tmp/wr"), got == 4 ? "aWXYZf" : "abcdef")
            << SysName(form.nr) << ": " << in.what;
        EXPECT_EQ(offset_after, got == 4 && !form.positional ? 5 : 1)
            << SysName(form.nr) << ": " << in.what;
      }
    }
    for (const IoForm& form : kWriteForms) {
      if (form.positional) {
        continue;
      }
      EXPECT_EQ(co_await CallIo(g, form, sock, src, 4, 0, scratch), 4) << SysName(form.nr);
      g.Poke(buf, "--------", 8);
      EXPECT_EQ(co_await g.Read(peer, buf, 16), 4) << SysName(form.nr);
      EXPECT_EQ(g.PeekString(buf, 4), "WXYZ") << SysName(form.nr);
    }
    finished = true;
  });
  w.Run();
  EXPECT_TRUE(finished);
}

// A description opened for one direction refuses the other: every read-family
// call on a write-only descriptor and every write-family call on a read-only one
// is EBADF, the buffer and the file's bytes untouched. The two checks Linux makes
// first still win: a socket call on a non-socket is ENOTSOCK, and a positional
// call on a pipe ESPIPE. sendfile checks both of its descriptors.
TEST(KernelEdgeTest, AccessModeRefusesTheOtherDirection) {
  SimWorld w;
  w.fs.WriteWholeFile("/tmp/am", "abcdef");
  w.fs.WriteWholeFile("/tmp/am-src", "1234");
  Process* p = w.NewProcess("access-mode");
  bool finished = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int ro = static_cast<int>(co_await g.Open("/tmp/am", kO_RDONLY));
    int wo = static_cast<int>(co_await g.Open("/tmp/am", kO_WRONLY));
    int src_ro = static_cast<int>(co_await g.Open("/tmp/am-src", kO_RDONLY));
    int src_wo = static_cast<int>(co_await g.Open("/tmp/am-src", kO_WRONLY));
    GuestAddr fds = g.Alloc(8);
    co_await g.Syscall(Sys::kPipe2, fds, kO_NONBLOCK);
    int pipe_rd = static_cast<int>(g.PeekU32(fds));
    int pipe_wr = static_cast<int>(g.PeekU32(fds + 4));
    GuestAddr buf = g.Alloc(16);
    GuestAddr scratch = g.Alloc(sizeof(GuestIovec) + sizeof(GuestMsghdr));
    auto refused = [](const IoForm& form, bool pipe) -> int64_t {
      if (form.socket) {
        return -kENOTSOCK;
      }
      return form.positional && pipe ? -kESPIPE : -kEBADF;
    };
    for (int fd : {wo, pipe_wr}) {
      for (const IoForm& form : kReadForms) {
        g.Poke(buf, "--------", 8);
        EXPECT_EQ(co_await CallIo(g, form, fd, buf, 4, 0, scratch),
                  refused(form, fd == pipe_wr))
            << SysName(form.nr) << " on fd " << fd;
        EXPECT_EQ(g.PeekString(buf, 8), "--------") << SysName(form.nr);
      }
    }
    g.Poke(buf, "WXYZ", 4);
    for (int fd : {ro, pipe_rd}) {
      for (const IoForm& form : kWriteForms) {
        EXPECT_EQ(co_await CallIo(g, form, fd, buf, 4, 0, scratch),
                  refused(form, fd == pipe_rd))
            << SysName(form.nr) << " on fd " << fd;
      }
    }
    EXPECT_EQ(w.fs.ReadWholeFile("/tmp/am"), "abcdef");
    EXPECT_EQ(co_await g.Sendfile(ro, src_ro, 0, 4), -kEBADF);  // Out is read-only.
    EXPECT_EQ(co_await g.Sendfile(wo, src_wo, 0, 4), -kEBADF);  // In is write-only.
    EXPECT_EQ(w.fs.ReadWholeFile("/tmp/am"), "abcdef");
    EXPECT_EQ(co_await g.Lseek(src_ro, 0, kSeekCur), 0);
    // The pipe carried nothing either way.
    EXPECT_EQ(co_await g.Read(pipe_rd, buf, 16), -kEAGAIN);
    finished = true;
  });
  w.Run();
  EXPECT_TRUE(finished);
}

// pread64, pwrite64, preadv and pwritev on a pipe or a socket are ESPIPE and move
// no byte: what was queued is still there for the next plain read, and nothing
// reaches the other end.
TEST(KernelEdgeTest, PositionalIoOnAStreamIsEspipe) {
  SimWorld w;
  Process* p = w.NewProcess("positional-stream");
  bool finished = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr fds = g.Alloc(8);
    co_await g.Syscall(Sys::kPipe2, fds, kO_NONBLOCK);
    int pipe_rd = static_cast<int>(g.PeekU32(fds));
    int pipe_wr = static_cast<int>(g.PeekU32(fds + 4));
    auto [peer, sock] = co_await SocketPair(g, 7004);
    co_await g.Fcntl(sock, kF_SETFL, kO_NONBLOCK);
    co_await g.Fcntl(peer, kF_SETFL, kO_NONBLOCK);
    GuestAddr src = g.Alloc(8);
    g.Poke(src, "abc", 3);
    GuestAddr buf = g.Alloc(16);
    GuestAddr scratch = g.Alloc(sizeof(GuestIovec) + sizeof(GuestMsghdr));
    co_await g.Write(pipe_wr, src, 3);
    co_await g.Write(peer, src, 3);
    for (const IoForm& form : kReadForms) {
      if (form.positional) {
        for (int fd : {pipe_rd, sock}) {
          EXPECT_EQ(co_await CallIo(g, form, fd, buf, 3, 0, scratch), -kESPIPE)
              << SysName(form.nr) << " on fd " << fd;
        }
      }
    }
    for (int fd : {pipe_rd, sock}) {
      g.Poke(buf, "---", 3);
      EXPECT_EQ(co_await g.Read(fd, buf, 16), 3) << "fd " << fd;
      EXPECT_EQ(g.PeekString(buf, 3), "abc") << "fd " << fd;
    }
    for (const IoForm& form : kWriteForms) {
      if (form.positional) {
        for (int fd : {pipe_wr, sock}) {
          EXPECT_EQ(co_await CallIo(g, form, fd, src, 3, 0, scratch), -kESPIPE)
              << SysName(form.nr) << " on fd " << fd;
        }
      }
    }
    EXPECT_EQ(co_await g.Read(pipe_rd, buf, 16), -kEAGAIN);
    EXPECT_EQ(co_await g.Read(peer, buf, 16), -kEAGAIN);
    finished = true;
  });
  w.Run();
  EXPECT_TRUE(finished);
}

// select reads readiness through poll's check: over one set of descriptors (an
// empty pipe, a pipe holding data, a pipe's write end, a connected socket, a
// closed fd) both report the same readiness, except that poll reports the closed
// fd as an error and select skips it.
TEST(KernelEdgeTest, PollAndSelectAgreeOnReadiness) {
  SimWorld w;
  Process* p = w.NewProcess("poll-select");
  bool finished = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr pipes = g.Alloc(16);
    co_await g.Pipe(pipes);
    co_await g.Pipe(pipes + 8);
    int empty_rd = static_cast<int>(g.PeekU32(pipes));
    int full_rd = static_cast<int>(g.PeekU32(pipes + 8));
    int full_wr = static_cast<int>(g.PeekU32(pipes + 12));
    GuestAddr byte = g.Alloc(8);
    co_await g.Write(full_wr, byte, 1);
    auto [peer, sock] = co_await SocketPair(g, 7003);
    const int closed = 40;
    const int fds[] = {empty_rd, full_rd, full_wr, sock, closed};
    constexpr int kN = 5;

    GuestAddr pfds = g.Alloc(kN * sizeof(GuestPollfd));
    for (int i = 0; i < kN; ++i) {
      GuestPollfd pf;
      pf.fd = fds[i];
      pf.events = static_cast<int16_t>(kPollIn | kPollOut);
      g.Poke(pfds + i * sizeof(GuestPollfd), &pf, sizeof(pf));
    }
    int64_t polled = co_await g.Syscall(Sys::kPoll, pfds, kN, 0);

    GuestAddr rd = g.Alloc(128);
    GuestAddr wr = g.Alloc(128);
    std::array<uint64_t, 16> bits{};
    for (int fd : fds) {
      bits[static_cast<size_t>(fd) / 64] |= 1ULL << (fd % 64);
    }
    g.Poke(rd, bits.data(), 128);
    g.Poke(wr, bits.data(), 128);
    GuestAddr tv = g.Alloc(sizeof(GuestTimeval));
    int64_t selected = co_await g.Select(closed + 1, rd, wr, 0, tv);
    std::array<uint64_t, 16> rd_out{};
    std::array<uint64_t, 16> wr_out{};
    g.Peek(rd, rd_out.data(), 128);
    g.Peek(wr, wr_out.data(), 128);

    int poll_ready = 0;
    int select_bits = 0;
    for (int i = 0; i < kN; ++i) {
      GuestPollfd pf;
      g.Peek(pfds + i * sizeof(GuestPollfd), &pf, sizeof(pf));
      uint32_t revents = static_cast<uint16_t>(pf.revents);
      poll_ready += revents != 0 ? 1 : 0;
      int fd = fds[i];
      bool in_rd = (rd_out[static_cast<size_t>(fd) / 64] >> (fd % 64)) & 1;
      bool in_wr = (wr_out[static_cast<size_t>(fd) / 64] >> (fd % 64)) & 1;
      select_bits += (in_rd ? 1 : 0) + (in_wr ? 1 : 0);
      if (fd == closed) {
        EXPECT_EQ(revents, kPollErr);
        EXPECT_FALSE(in_rd || in_wr);
        continue;
      }
      EXPECT_EQ(in_rd, (revents & (kPollIn | kPollHup | kPollErr)) != 0) << fd;
      EXPECT_EQ(in_wr, (revents & (kPollOut | kPollErr)) != 0) << fd;
    }
    EXPECT_EQ(polled, poll_ready);
    EXPECT_EQ(selected, select_bits);
    // The pipe holding data is readable, its write end and the socket writable; the
    // empty pipe is neither. poll also counts the closed fd.
    EXPECT_EQ(polled, 4);
    EXPECT_EQ(selected, 3);
    finished = true;
  });
  w.Run();
  EXPECT_TRUE(finished);
}

}  // namespace
}  // namespace remon
