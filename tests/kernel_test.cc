// Integration tests for the simulated kernel: guest coroutines performing system
// calls, blocking I/O, threads + futexes, signals, sockets, epoll event loops.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/remon.h"
#include "tests/test_util.h"

namespace remon {
namespace {

TEST(KernelTest, TrivialProgramRunsToCompletion) {
  SimWorld w;
  Process* p = w.NewProcess("trivial");
  bool ran = false;
  w.kernel.SpawnThread(p, [&ran](Guest& g) -> GuestTask<void> {
    int64_t pid = co_await g.Getpid();
    EXPECT_GT(pid, 0);
    ran = true;
  });
  w.Run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(p->exited);
}

TEST(KernelTest, ComputeAdvancesVirtualTime) {
  SimWorld w;
  Process* p = w.NewProcess("compute");
  TimeNs end_time = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    co_await g.Compute(Millis(5));
    end_time = g.kernel()->now();
  });
  w.Run();
  EXPECT_GE(end_time, Millis(5));
  EXPECT_LT(end_time, Millis(6));
}

TEST(KernelTest, FileWriteReadRoundTrip) {
  SimWorld w;
  Process* p = w.NewProcess("files");
  std::string got;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/test.txt", kO_CREAT | kO_RDWR);
    EXPECT_GE(fd, 0);
    GuestAddr buf = g.Alloc(64);
    g.Poke(buf, "content!", 8);
    EXPECT_EQ(co_await g.Write(static_cast<int>(fd), buf, 8), 8);
    EXPECT_EQ(co_await g.Lseek(static_cast<int>(fd), 0, kSeekSet), 0);
    GuestAddr rbuf = g.Alloc(64);
    int64_t n = co_await g.Read(static_cast<int>(fd), rbuf, 64);
    EXPECT_EQ(n, 8);
    got = g.PeekString(rbuf, 8);
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_EQ(got, "content!");
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/test.txt").value_or(""), "content!");
}

TEST(KernelTest, StatAndAccess) {
  SimWorld w;
  w.fs.WriteWholeFile("/tmp/x.dat", "12345");
  Process* p = w.NewProcess("stat");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr st = g.Alloc(sizeof(GuestStat));
    EXPECT_EQ(co_await g.Stat("/tmp/x.dat", st), 0);
    GuestStat s;
    g.Peek(st, &s, sizeof(s));
    // Copy out of the packed struct: EXPECT_EQ binds a reference, and a
    // reference to a misaligned packed member is UB (UBSan flags it).
    uint64_t st_size = s.st_size;
    EXPECT_EQ(st_size, 5u);
    EXPECT_EQ(co_await g.Access("/tmp/x.dat", 0), 0);
    EXPECT_EQ(co_await g.Access("/tmp/missing", 0), -kENOENT);
  });
  w.Run();
}

TEST(KernelTest, PipeBlockingHandoff) {
  SimWorld w;
  Process* p = w.NewProcess("pipes");
  std::string got;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr fds = g.Alloc(8);
    EXPECT_EQ(co_await g.Pipe(fds), 0);
    int rfd = static_cast<int>(g.PeekU32(fds));
    int wfd = static_cast<int>(g.PeekU32(fds + 4));

    // Reader thread blocks until the main thread writes.
    uint64_t reader = g.RegisterThreadFn([&got, rfd](Guest& rg) -> GuestTask<void> {
      GuestAddr buf = rg.Alloc(32);
      int64_t n = co_await rg.Read(rfd, buf, 32);
      EXPECT_EQ(n, 5);
      got = rg.PeekString(buf, 5);
    });
    co_await g.SpawnThread(reader);
    co_await g.Compute(Micros(50));  // Ensure the reader blocks first.
    GuestAddr buf = g.Alloc(8);
    g.Poke(buf, "hello", 5);
    EXPECT_EQ(co_await g.Write(wfd, buf, 5), 5);
  });
  w.Run();
  EXPECT_EQ(got, "hello");
}

TEST(KernelTest, NonblockingReadReturnsEagain) {
  SimWorld w;
  Process* p = w.NewProcess("nb");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr fds = g.Alloc(8);
    co_await g.Syscall(Sys::kPipe2, fds, kO_NONBLOCK);
    int rfd = static_cast<int>(g.PeekU32(fds));
    GuestAddr buf = g.Alloc(8);
    EXPECT_EQ(co_await g.Read(rfd, buf, 8), -kEAGAIN);
  });
  w.Run();
}

TEST(KernelTest, NanosleepAdvancesClock) {
  SimWorld w;
  Process* p = w.NewProcess("sleep");
  TimeNs woke = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    EXPECT_EQ(co_await g.SleepNs(Millis(20)), 0);
    woke = g.kernel()->now();
  });
  w.Run();
  EXPECT_GE(woke, Millis(20));
}

TEST(KernelTest, FutexWaitWake) {
  SimWorld w;
  Process* p = w.NewProcess("futex");
  bool waiter_done = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr word = g.Alloc(4);
    g.PokeU32(word, 0);
    uint64_t waiter = g.RegisterThreadFn([&, word](Guest& wg) -> GuestTask<void> {
      EXPECT_EQ(co_await wg.Futex(word, kFutexWait, 0), 0);
      waiter_done = true;
    });
    co_await g.SpawnThread(waiter);
    co_await g.Compute(Micros(100));
    g.PokeU32(word, 1);
    int64_t woken = co_await g.Futex(word, kFutexWake, 1);
    EXPECT_EQ(woken, 1);
  });
  w.Run();
  EXPECT_TRUE(waiter_done);
  EXPECT_EQ(w.sim.stats().futex_waits, 1u);
  EXPECT_EQ(w.sim.stats().futex_wakes, 1u);
}

TEST(KernelTest, FutexValueMismatchReturnsEagain) {
  SimWorld w;
  Process* p = w.NewProcess("futex2");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr word = g.Alloc(4);
    g.PokeU32(word, 7);
    EXPECT_EQ(co_await g.Futex(word, kFutexWait, 0), -kEAGAIN);
  });
  w.Run();
}

TEST(KernelTest, FutexTimeout) {
  SimWorld w;
  Process* p = w.NewProcess("futex3");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr word = g.Alloc(4);
    g.PokeU32(word, 0);
    GuestAddr ts = g.Alloc(sizeof(GuestTimespec));
    GuestTimespec spec{0, Millis(5)};
    g.Poke(ts, &spec, sizeof(spec));
    EXPECT_EQ(co_await g.Futex(word, kFutexWait, 0, ts), -kETIMEDOUT);
  });
  w.Run();
}

// A futex queue lives only while a waiter is parked on it: it survives a partial
// wake and a wake whose callback parks again on the same word, and is gone after
// the wake that empties it or the Remove that takes its last waiter.
TEST(FutexTableTest, QueueLivesOnlyWhileAWaiterIsParked) {
  FutexTable futex;
  auto frame = std::make_unique<Page>();
  int woken = 0;
  auto count = [&woken] { ++woken; };

  WaitQueue& q = futex.QueueFor(frame.get(), 8);
  q.AddWaiter(count);
  q.AddWaiter(count);
  EXPECT_EQ(futex.Wake(frame.get(), 8, 1), 1);
  EXPECT_EQ(futex.queue_count(), 1u);  // The second waiter is still parked.
  EXPECT_EQ(futex.Find(frame.get(), 8), &q);

  // The woken waiter parks again on its word from inside the wake.
  q.AddWaiter([&] {
    ++woken;
    futex.QueueFor(frame.get(), 8).AddWaiter(count);
  });
  EXPECT_EQ(futex.Wake(frame.get(), 8, 2), 2);
  EXPECT_EQ(futex.queue_count(), 1u);
  EXPECT_EQ(futex.Wake(frame.get(), 8, 1), 1);  // Empties it.
  EXPECT_EQ(woken, 4);
  EXPECT_EQ(futex.queue_count(), 0u);
  EXPECT_EQ(futex.Find(frame.get(), 8), nullptr);
  EXPECT_EQ(futex.Wake(frame.get(), 8, 1), 0);

  // A wake-all empties it too; a wake on the stack keeps it until it returns.
  WaitQueue& all = futex.QueueFor(frame.get(), 16);
  size_t during_wake = 0;
  all.AddWaiter([&] { during_wake = futex.queue_count(); });
  all.AddWaiter(count);
  all.Wake();
  EXPECT_EQ(during_wake, 1u);
  EXPECT_EQ(futex.queue_count(), 0u);

  // The last waiter leaving without a wake (a timeout, a signal) retires it.
  WaitQueue& timed = futex.QueueFor(frame.get(), 24);
  uint64_t first = timed.AddWaiter(count);
  uint64_t second = timed.AddWaiter(count);
  timed.Remove(first);
  EXPECT_EQ(futex.queue_count(), 1u);
  futex.QueueFor(frame.get(), 24).Remove(second);
  EXPECT_EQ(futex.queue_count(), 0u);

  // An observer keeps its queue; a wake without a waiter leaves a fresh queue for
  // the waiter about to park on it.
  WaitQueue& observed = futex.QueueFor(frame.get(), 32);
  uint64_t obs = observed.AddObserver([] {});
  WaitQueue& fresh = futex.QueueFor(frame.get(), 40);
  observed.Wake();
  fresh.Wake();
  EXPECT_EQ(futex.queue_count(), 2u);
  fresh.AddWaiter(count);
  EXPECT_EQ(futex.Wake(frame.get(), 40, 1), 1);
  observed.Remove(obs);
  EXPECT_EQ(futex.queue_count(), 0u);
  EXPECT_EQ(woken, 6);
}

// The last waiter leaving without a wake retires its queue: a timeout, a signal
// and a kill each leave the table empty.
TEST(FutexLifetimeTest, TimeoutRetiresTheQueue) {
  SimWorld w;
  Process* p = w.NewProcess("futex-timeout");
  int64_t result = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr word = g.Alloc(4);
    g.PokeU32(word, 0);
    GuestAddr ts = g.Alloc(sizeof(GuestTimespec));
    GuestTimespec spec{0, Millis(5)};
    g.Poke(ts, &spec, sizeof(spec));
    result = co_await g.Futex(word, kFutexWait, 0, ts);
  });
  w.Run(Millis(1));
  EXPECT_EQ(w.kernel.futex().queue_count(), 1u);
  w.Run();
  EXPECT_EQ(result, -kETIMEDOUT);
  EXPECT_EQ(w.kernel.futex().queue_count(), 0u);
}

TEST(FutexLifetimeTest, SignalRetiresTheQueue) {
  SimWorld w;
  Process* p = w.NewProcess("futex-eintr");
  int64_t result = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    uint64_t cookie = g.RegisterHandler([](Guest&, int) -> GuestTask<void> { co_return; });
    co_await g.Sigaction(kSIGUSR2, cookie);
    GuestAddr word = g.Alloc(4);
    g.PokeU32(word, 0);
    int64_t pid = co_await g.Getpid();
    int64_t tid = co_await g.Gettid();
    uint64_t poker = g.RegisterThreadFn([pid, tid](Guest& pg) -> GuestTask<void> {
      co_await pg.Compute(Millis(1));
      co_await pg.Syscall(Sys::kTgkill, static_cast<uint64_t>(pid),
                          static_cast<uint64_t>(tid), static_cast<uint64_t>(kSIGUSR2));
    });
    co_await g.SpawnThread(poker);
    result = co_await g.Futex(word, kFutexWait, 0);
  });
  w.Run(Micros(500));
  EXPECT_EQ(w.kernel.futex().queue_count(), 1u);
  w.Run();
  EXPECT_EQ(result, -kEINTR);
  EXPECT_EQ(w.kernel.futex().queue_count(), 0u);
}

TEST(FutexLifetimeTest, KilledWaiterRetiresTheQueue) {
  SimWorld w;
  Process* p = w.NewProcess("futex-kill");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr word = g.Alloc(4);
    g.PokeU32(word, 0);
    uint64_t fn = g.RegisterThreadFn([word](Guest& wg) -> GuestTask<void> {
      co_await wg.Futex(word, kFutexWait, 0);
      ADD_FAILURE() << "a killed thread resumed";
    });
    co_await g.SpawnThread(fn);
    co_await g.SpawnThread(fn);
    co_await g.SleepNs(Millis(1));
    co_await g.ExitGroup(0);
  });
  w.Run(Micros(500));
  EXPECT_EQ(w.kernel.futex().queue_count(), 1u);  // Both park on one word.
  w.Run();
  EXPECT_TRUE(p->exited);
  EXPECT_EQ(w.kernel.futex().queue_count(), 0u);
}

// FUTEX_WAKE looks its key up without faulting the page in: a wake on an untouched
// page of a lazy (System V) mapping wakes nobody and leaves it untouched, a wake
// on a page only another attacher touched finds that attacher's waiter, and an
// address outside every mapping is EFAULT.
TEST(FutexLifetimeTest, WakeFaultsNoPageIn) {
  SimWorld w;
  Process* waiter = w.NewProcess("shm-waiter");
  Process* waker = w.NewProcess("shm-waker");
  int64_t waited = 1;
  w.kernel.SpawnThread(waiter, [&](Guest& g) -> GuestTask<void> {
    int64_t id = co_await g.Shmget(4242, 2 * kPageSize, kIpcCreat);
    GuestAddr base = static_cast<GuestAddr>(co_await g.Shmat(static_cast<int>(id)));
    waited = co_await g.Futex(base + kPageSize, kFutexWait, 0);
  });
  w.kernel.SpawnThread(waker, [&](Guest& g) -> GuestTask<void> {
    co_await g.Compute(Millis(1));
    int64_t id = co_await g.Shmget(4242, 2 * kPageSize, 0);
    GuestAddr base = static_cast<GuestAddr>(co_await g.Shmat(static_cast<int>(id)));
    uint64_t mapped = waker->mem().mapped_bytes();
    uint64_t resident = w.shm.resident_pages();
    EXPECT_EQ(co_await g.Futex(base, kFutexWake, 1), 0);
    EXPECT_EQ(waker->mem().mapped_bytes(), mapped);
    EXPECT_EQ(w.shm.resident_pages(), resident);
    EXPECT_EQ(co_await g.Futex(base + kPageSize, kFutexWake, 1), 1);
    EXPECT_EQ(waker->mem().mapped_bytes(), mapped);
    EXPECT_EQ(w.shm.resident_pages(), resident);
    EXPECT_EQ(co_await g.Futex(base + 64 * kPageSize, kFutexWake, 1), -kEFAULT);
  });
  w.Run();
  EXPECT_EQ(waited, 0);
  EXPECT_EQ(w.kernel.futex().queue_count(), 0u);
  EXPECT_EQ(w.sim.stats().futex_wakes, 2u);
}

TEST(KernelTest, ThreadsShareAddressSpace) {
  SimWorld w;
  Process* p = w.NewProcess("threads");
  uint32_t observed = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr shared_word = g.Alloc(4);
    g.PokeU32(shared_word, 0);
    uint64_t child = g.RegisterThreadFn([shared_word](Guest& cg) -> GuestTask<void> {
      cg.PokeU32(shared_word, 4242);
      co_return;
    });
    int64_t tid = co_await g.SpawnThread(child);
    EXPECT_GT(tid, 0);
    co_await g.Compute(Micros(100));
    observed = g.PeekU32(shared_word);
  });
  w.Run();
  EXPECT_EQ(observed, 4242u);
}

TEST(KernelTest, SignalHandlerRuns) {
  SimWorld w;
  Process* p = w.NewProcess("signals");
  int handled_sig = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    uint64_t cookie = g.RegisterHandler(
        [&handled_sig](Guest& hg, int sig) -> GuestTask<void> {
          handled_sig = sig;
          co_return;
        });
    EXPECT_EQ(co_await g.Sigaction(kSIGUSR1, cookie), 0);
    int64_t pid = co_await g.Getpid();
    EXPECT_EQ(co_await g.Kill(static_cast<int>(pid), kSIGUSR1), 0);
    // Delivery happens at the syscall boundary; one more call flushes it.
    co_await g.Getpid();
  });
  w.Run();
  EXPECT_EQ(handled_sig, kSIGUSR1);
  EXPECT_EQ(w.sim.stats().signals_delivered, 1u);
}

TEST(KernelTest, SignalInterruptsBlockingCall) {
  SimWorld w;
  Process* p = w.NewProcess("eintr");
  int64_t result = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    uint64_t cookie = g.RegisterHandler([](Guest&, int) -> GuestTask<void> { co_return; });
    co_await g.Sigaction(kSIGUSR2, cookie);
    GuestAddr fds = g.Alloc(8);
    co_await g.Pipe(fds);
    int rfd = static_cast<int>(g.PeekU32(fds));
    GuestAddr buf = g.Alloc(8);
    // A second thread signals us while we are blocked in read().
    int64_t pid = co_await g.Getpid();
    int64_t main_tid = co_await g.Gettid();
    uint64_t poker = g.RegisterThreadFn([pid, main_tid](Guest& pg) -> GuestTask<void> {
      co_await pg.Compute(Millis(1));
      co_await pg.Syscall(Sys::kTgkill, static_cast<uint64_t>(pid),
                          static_cast<uint64_t>(main_tid), static_cast<uint64_t>(kSIGUSR2));
    });
    co_await g.SpawnThread(poker);
    result = co_await g.Read(rfd, buf, 8);
  });
  w.Run();
  EXPECT_EQ(result, -kEINTR);
}

TEST(KernelTest, FatalSignalKillsProcess) {
  SimWorld w;
  Process* p = w.NewProcess("fatal");
  bool after = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t pid = co_await g.Getpid();
    co_await g.Kill(static_cast<int>(pid), kSIGTERM);
    co_await g.Getpid();  // Delivery point.
    after = true;
  });
  w.Run();
  EXPECT_FALSE(after);
  EXPECT_TRUE(p->exited);
  EXPECT_EQ(p->exit_code, 128 + kSIGTERM);
}

TEST(KernelTest, SegfaultOnWildAccess) {
  SimWorld w;
  Process* p = w.NewProcess("segv");
  bool after = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    uint8_t byte = 0;
    bool ok = co_await g.TryPeek(0xdead000000, &byte, 1);
    EXPECT_FALSE(ok);
    after = true;  // Unreachable: no handler -> SIGSEGV kills the process.
  });
  w.Run();
  EXPECT_FALSE(after);
  EXPECT_TRUE(p->exited);
  EXPECT_EQ(p->exit_code, 128 + kSIGSEGV);
}

TEST(KernelTest, SegfaultWithHandlerResumesFalse) {
  SimWorld w;
  Process* p = w.NewProcess("segv2");
  bool handler_ran = false;
  bool resumed = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    uint64_t cookie = g.RegisterHandler([&](Guest&, int sig) -> GuestTask<void> {
      handler_ran = sig == kSIGSEGV;
      co_return;
    });
    co_await g.Sigaction(kSIGSEGV, cookie);
    uint8_t byte = 0;
    bool ok = co_await g.TryPeek(0xdead000000, &byte, 1);
    EXPECT_FALSE(ok);
    resumed = true;
  });
  w.Run();
  EXPECT_TRUE(handler_ran);
  EXPECT_TRUE(resumed);
}

TEST(KernelTest, TryExecRespectsDcl) {
  SimWorld w;
  Process* a = w.NewProcess("replica-a", 0);
  Process* b = w.NewProcess("replica-b", 1);
  // An address inside replica A's code region is executable there...
  GuestAddr a_code = a->layout.code_base + 0x100;
  bool a_ok = false;
  bool b_after = false;
  w.kernel.SpawnThread(a, [&, a_code](Guest& g) -> GuestTask<void> {
    a_ok = co_await g.TryExec(a_code);
  });
  // ...but faults in replica B (disjoint code layout).
  w.kernel.SpawnThread(b, [&, a_code](Guest& g) -> GuestTask<void> {
    co_await g.TryExec(a_code);
    b_after = true;
  });
  w.Run();
  EXPECT_TRUE(a_ok);
  EXPECT_FALSE(b_after);
  EXPECT_TRUE(b->exited);
  EXPECT_EQ(b->exit_code, 128 + kSIGSEGV);
}

TEST(KernelTest, SocketClientServerExchange) {
  SimWorld w;
  Process* server = w.NewProcess("server", -1, w.server_machine);
  Process* client = w.NewProcess("client", -1, w.client_machine);
  std::string server_got;
  std::string client_got;

  w.kernel.SpawnThread(server, [&](Guest& g) -> GuestTask<void> {
    int64_t lfd = co_await g.Socket(kAfInet, kSockStream);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = 8080;
    addr.sin_addr = 0;  // server machine
    g.Poke(sa, &addr, sizeof(addr));
    EXPECT_EQ(co_await g.Bind(static_cast<int>(lfd), sa, sizeof(addr)), 0);
    EXPECT_EQ(co_await g.Listen(static_cast<int>(lfd), 8), 0);
    int64_t cfd = co_await g.Accept(static_cast<int>(lfd), 0, 0);
    EXPECT_GE(cfd, 0);
    GuestAddr buf = g.Alloc(64);
    int64_t n = co_await g.Read(static_cast<int>(cfd), buf, 64);
    EXPECT_GT(n, 0);
    server_got = g.PeekString(buf, static_cast<uint64_t>(n));
    g.Poke(buf, "RESPONSE", 8);
    co_await g.Write(static_cast<int>(cfd), buf, 8);
    co_await g.Close(static_cast<int>(cfd));
  });

  w.kernel.SpawnThread(client, [&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Socket(kAfInet, kSockStream);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = 8080;
    addr.sin_addr = 0;
    g.Poke(sa, &addr, sizeof(addr));
    EXPECT_EQ(co_await g.Connect(static_cast<int>(fd), sa, sizeof(addr)), 0);
    GuestAddr buf = g.Alloc(64);
    g.Poke(buf, "REQUEST", 7);
    EXPECT_EQ(co_await g.Write(static_cast<int>(fd), buf, 7), 7);
    int64_t n = co_await g.Read(static_cast<int>(fd), buf, 64);
    EXPECT_EQ(n, 8);
    client_got = g.PeekString(buf, 8);
    co_await g.Close(static_cast<int>(fd));
  });

  w.Run();
  EXPECT_EQ(server_got, "REQUEST");
  EXPECT_EQ(client_got, "RESPONSE");
}

TEST(KernelTest, EpollDrivenEcho) {
  SimWorld w;
  Process* server = w.NewProcess("epsrv", -1, w.server_machine);
  Process* client = w.NewProcess("epcli", -1, w.client_machine);
  std::string echoed;

  w.kernel.SpawnThread(server, [&](Guest& g) -> GuestTask<void> {
    int64_t lfd = co_await g.Socket(kAfInet, kSockStream);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = 80;
    g.Poke(sa, &addr, sizeof(addr));
    co_await g.Bind(static_cast<int>(lfd), sa, sizeof(addr));
    co_await g.Listen(static_cast<int>(lfd), 8);
    int64_t epfd = co_await g.EpollCreate1();
    GuestAddr ev = g.Alloc(sizeof(GuestEpollEvent));
    GuestEpollEvent e{kPollIn, 0x11};
    g.Poke(ev, &e, sizeof(e));
    EXPECT_EQ(co_await g.EpollCtl(static_cast<int>(epfd), kEpollCtlAdd,
                                  static_cast<int>(lfd), ev), 0);
    GuestAddr events = g.Alloc(8 * sizeof(GuestEpollEvent));
    // Wait for the connection.
    int64_t n = co_await g.EpollWait(static_cast<int>(epfd), events, 8, -1);
    EXPECT_EQ(n, 1);
    GuestEpollEvent got;
    g.Peek(events, &got, sizeof(got));
    // Copy out of the packed member before EXPECT_EQ binds a reference to it.
    uint64_t got_data = got.data;
    EXPECT_EQ(got_data, 0x11u);
    int64_t cfd = co_await g.Accept(static_cast<int>(lfd), 0, 0);
    GuestEpollEvent e2{kPollIn, 0x22};
    g.Poke(ev, &e2, sizeof(e2));
    co_await g.EpollCtl(static_cast<int>(epfd), kEpollCtlAdd, static_cast<int>(cfd), ev);
    // Wait for data on the connection.
    n = co_await g.EpollWait(static_cast<int>(epfd), events, 8, -1);
    EXPECT_GE(n, 1);
    GuestAddr buf = g.Alloc(64);
    int64_t r = co_await g.Read(static_cast<int>(cfd), buf, 64);
    co_await g.Write(static_cast<int>(cfd), buf, static_cast<uint64_t>(r));
  });

  w.kernel.SpawnThread(client, [&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Socket(kAfInet, kSockStream);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = 80;
    g.Poke(sa, &addr, sizeof(addr));
    co_await g.Connect(static_cast<int>(fd), sa, sizeof(addr));
    GuestAddr buf = g.Alloc(16);
    g.Poke(buf, "echo-me", 7);
    co_await g.Write(static_cast<int>(fd), buf, 7);
    int64_t n = co_await g.Read(static_cast<int>(fd), buf, 16);
    echoed = g.PeekString(buf, static_cast<uint64_t>(n));
  });

  w.Run();
  EXPECT_EQ(echoed, "echo-me");
}

TEST(KernelTest, PollWithTimeout) {
  SimWorld w;
  Process* p = w.NewProcess("poll");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr fds_arr = g.Alloc(8);
    co_await g.Pipe(fds_arr);
    int rfd = static_cast<int>(g.PeekU32(fds_arr));
    GuestAddr pfd = g.Alloc(sizeof(GuestPollfd));
    GuestPollfd pf;
    pf.fd = rfd;
    pf.events = static_cast<int16_t>(kPollIn);
    g.Poke(pfd, &pf, sizeof(pf));
    TimeNs before = g.kernel()->now();
    EXPECT_EQ(co_await g.Poll(pfd, 1, 10), 0);  // 10 ms timeout, no data.
    EXPECT_GE(g.kernel()->now() - before, Millis(10));
  });
  w.Run();
}

TEST(KernelTest, GetdentsEnumeratesDirectory) {
  SimWorld w;
  w.fs.Mkdir("/data");
  w.fs.WriteWholeFile("/data/one", "1");
  w.fs.WriteWholeFile("/data/two", "2");
  Process* p = w.NewProcess("dents");
  std::vector<std::string> names;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/data", kO_RDONLY | kO_DIRECTORY);
    EXPECT_GE(fd, 0);
    GuestAddr buf = g.Alloc(8 * sizeof(GuestDirent));
    int64_t n = co_await g.Getdents(static_cast<int>(fd), buf, 8 * sizeof(GuestDirent));
    for (int64_t off = 0; off < n; off += sizeof(GuestDirent)) {
      GuestDirent d;
      g.Peek(buf + static_cast<uint64_t>(off), &d, sizeof(d));
      names.emplace_back(d.d_name);
    }
  });
  w.Run();
  EXPECT_EQ(names, (std::vector<std::string>{"one", "two"}));
}

TEST(KernelTest, ProcMapsVisibleToGuest) {
  SimWorld w;
  Process* p = w.NewProcess("maps");
  std::string maps;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/proc/self/maps", kO_RDONLY);
    EXPECT_GE(fd, 0);
    GuestAddr buf = g.Alloc(4096);
    int64_t n = co_await g.Read(static_cast<int>(fd), buf, 4096);
    EXPECT_GT(n, 0);
    maps = g.PeekString(buf, static_cast<uint64_t>(n));
  });
  w.Run();
  EXPECT_NE(maps.find("[heap]"), std::string::npos);
  EXPECT_NE(maps.find("[stack]"), std::string::npos);
}

TEST(KernelTest, MmapMunmapLifecycle) {
  SimWorld w;
  Process* p = w.NewProcess("mm");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t addr = co_await g.Mmap(0, 16384, kProtRead | kProtWrite, kMapPrivate);
    EXPECT_GT(addr, 0);
    g.PokeU64(static_cast<GuestAddr>(addr), 77);
    EXPECT_EQ(g.PeekU64(static_cast<GuestAddr>(addr)), 77u);
    EXPECT_EQ(co_await g.Munmap(static_cast<GuestAddr>(addr), 16384), 0);
    bool ok = co_await g.TryPeek(static_cast<GuestAddr>(addr), nullptr, 0);
    (void)ok;
    co_return;
  });
  w.Run();
}

// Anonymous mmap is demand-paged, as on Linux: mapping 64 MiB allocates no frame,
// and the first write to a page makes exactly that page resident. MAP_FIXED onto
// a mapped range replaces the pages it overlaps and leaves the rest.
TEST(MemorySyscallTest, MmapIsDemandPaged) {
  SimWorld w;
  Process* p = w.NewProcess("lazy-mmap");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    constexpr uint64_t kLen = 64 * 1024 * 1024;
    uint64_t before = p->mem().mapped_bytes();
    int64_t addr = co_await g.Mmap(0, kLen, kProtRead | kProtWrite, kMapPrivate);
    EXPECT_GT(addr, 0);
    EXPECT_EQ(p->mem().mapped_bytes(), before);
    GuestAddr base = static_cast<GuestAddr>(addr);
    EXPECT_EQ(g.PeekU64(base + kLen / 2), 0u);  // A read makes nothing resident.
    EXPECT_EQ(p->mem().mapped_bytes(), before);
    g.PokeU64(base + kLen / 2, 7);
    EXPECT_EQ(p->mem().mapped_bytes(), before + kPageSize);
    g.PokeU64(base + kPageSize, 9);
    EXPECT_EQ(co_await g.Mmap(base + kPageSize, kPageSize, kProtRead,
                              kMapPrivate | kMapFixed),
              static_cast<int64_t>(base + kPageSize));
    EXPECT_EQ(g.PeekU64(base + kPageSize), 0u);  // The replaced page is fresh.
    EXPECT_EQ(g.PeekU64(base + kLen / 2), 7u);
  });
  w.Run();
}

TEST(MemorySyscallTest, MunmapOfAPrivateSliceReleasesItsFrames) {
  SimWorld w;
  Process* p = w.NewProcess("munmap-slice");
  GuestAddr base = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    base = static_cast<GuestAddr>(
        co_await g.Mmap(0, 4 * kPageSize, kProtRead | kProtWrite, kMapPrivate));
    for (uint64_t page = 0; page < 4; ++page) {
      g.PokeU64(base + page * kPageSize, 100 + page);
    }
    uint64_t touched = p->mem().mapped_bytes();
    EXPECT_EQ(co_await g.Munmap(base + kPageSize, 2 * kPageSize), 0);
    EXPECT_EQ(p->mem().mapped_bytes(), touched - 2 * kPageSize);
    EXPECT_EQ(g.PeekU64(base), 100u);
    EXPECT_EQ(g.PeekU64(base + 3 * kPageSize), 103u);
  });
  w.Run();
  uint64_t v = 0;
  EXPECT_FALSE(p->mem().Read(base + kPageSize, &v, sizeof(v)).ok);
  EXPECT_FALSE(p->mem().Read(base + 2 * kPageSize, &v, sizeof(v)).ok);
}

// A shrink releases the tail's frames, so growing back exposes zeroes, not the
// bytes the tail held before.
TEST(MemorySyscallTest, MremapShrinkThenGrowReadsZeroesInTheTail) {
  SimWorld w;
  Process* p = w.NewProcess("mremap");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr base = static_cast<GuestAddr>(
        co_await g.Mmap(0, 4 * kPageSize, kProtRead | kProtWrite, kMapPrivate));
    for (uint64_t page = 0; page < 4; ++page) {
      g.PokeU64(base + page * kPageSize + 8, 0xabcd00 + page);
    }
    uint64_t touched = p->mem().mapped_bytes();
    EXPECT_EQ(co_await g.Syscall(Sys::kMremap, base, 4 * kPageSize, kPageSize),
              static_cast<int64_t>(base));
    EXPECT_EQ(p->mem().mapped_bytes(), touched - 3 * kPageSize);
    EXPECT_EQ(co_await g.Syscall(Sys::kMremap, base, kPageSize, 4 * kPageSize),
              static_cast<int64_t>(base));
    EXPECT_EQ(g.PeekU64(base + 8), 0xabcd00u);
    for (uint64_t page = 1; page < 4; ++page) {
      EXPECT_EQ(g.PeekU64(base + page * kPageSize + 8), 0u) << page;
    }
    EXPECT_EQ(p->mem().mapped_bytes(), touched - 3 * kPageSize);
  });
  w.Run();
}

// As on Linux, a start address that is not page-aligned is EINVAL for every call
// that takes one, and the mapping it points into is left as it was.
TEST(MemorySyscallTest, MisalignedStartAddressIsEinval) {
  SimWorld w;
  Process* p = w.NewProcess("misaligned");
  GuestAddr base = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    base = static_cast<GuestAddr>(
        co_await g.Mmap(0, 2 * kPageSize, kProtRead | kProtWrite, kMapPrivate));
    g.PokeU64(base, 41);
    EXPECT_EQ(co_await g.Syscall(Sys::kMprotect, base + 1, kPageSize, kProtRead),
              -kEINVAL);
    EXPECT_EQ(co_await g.Mmap(base + 5, kPageSize, kProtRead, kMapPrivate | kMapFixed),
              -kEINVAL);
    EXPECT_EQ(co_await g.Syscall(Sys::kMremap, base + 1, kPageSize, 2 * kPageSize),
              -kEINVAL);
  });
  w.Run();
  uint64_t v = 42;
  EXPECT_TRUE(p->mem().Write(base + 8, &v, sizeof(v)).ok);  // The mprotect did not apply.
  EXPECT_TRUE(p->mem().Read(base, &v, sizeof(v)).ok);
  EXPECT_EQ(v, 41u);
}

TEST(MemorySyscallTest, MunmapOfAMisalignedStartKeepsTheFirstPage) {
  SimWorld w;
  Process* p = w.NewProcess("munmap-misaligned");
  GuestAddr base = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    base = static_cast<GuestAddr>(
        co_await g.Mmap(0, 2 * kPageSize, kProtRead | kProtWrite, kMapPrivate));
    g.PokeU64(base, 17);
    EXPECT_EQ(co_await g.Munmap(base + 1, 1), -kEINVAL);
  });
  w.Run();
  uint64_t v = 0;
  EXPECT_TRUE(p->mem().Read(base, &v, sizeof(v)).ok);
  EXPECT_EQ(v, 17u);
}

TEST(MemorySyscallTest, MunmapOfLengthZeroIsEinval) {
  SimWorld w;
  Process* p = w.NewProcess("munmap-zero");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr base = static_cast<GuestAddr>(
        co_await g.Mmap(0, kPageSize, kProtRead | kProtWrite, kMapPrivate));
    EXPECT_EQ(co_await g.Munmap(base, 0), -kEINVAL);
    EXPECT_EQ(co_await g.Munmap(base, kPageSize), 0);
  });
  w.Run();
}

// As on Linux, a range running past the end of user space is EINVAL: nothing is
// unmapped, neither the page at its start nor the thread stacks above it.
TEST(MemorySyscallTest, MunmapPastTheEndOfUserSpaceIsEinval) {
  SimWorld w;
  Process* p = w.NewProcess("munmap-huge");
  GuestAddr base = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    base = static_cast<GuestAddr>(
        co_await g.Mmap(0, kPageSize, kProtRead | kProtWrite, kMapPrivate));
    g.PokeU64(base, 23);
    EXPECT_EQ(co_await g.Munmap(base, 1ULL << 46), -kEINVAL);
    EXPECT_TRUE(p->mem().Covers(p->layout.stack_top - 8, 8, kProtRead | kProtWrite));
  });
  w.Run();
  uint64_t v = 0;
  EXPECT_TRUE(p->mem().Read(base, &v, sizeof(v)).ok);
  EXPECT_EQ(v, 23u);
}

// As on Linux, a new length of 0, one whose page rounding wraps, or one ending past
// user space is EINVAL, and the mapping is left as it was.
TEST(MemorySyscallTest, MremapToABadLengthIsEinval) {
  SimWorld w;
  Process* p = w.NewProcess("mremap-bad-len");
  GuestAddr base = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    base = static_cast<GuestAddr>(
        co_await g.Mmap(0, 2 * kPageSize, kProtRead | kProtWrite, kMapPrivate));
    g.PokeU64(base, 31);
    g.PokeU64(base + kPageSize, 32);
    for (uint64_t bad : {uint64_t{0}, ~uint64_t{0}, uint64_t{1} << 47}) {
      EXPECT_EQ(co_await g.Syscall(Sys::kMremap, base, 2 * kPageSize, bad), -kEINVAL) << bad;
    }
  });
  w.Run();
  uint64_t v = 0;
  EXPECT_TRUE(p->mem().Read(base, &v, sizeof(v)).ok);
  EXPECT_EQ(v, 31u);
  EXPECT_TRUE(p->mem().Read(base + kPageSize, &v, sizeof(v)).ok);
  EXPECT_EQ(v, 32u);
}

TEST(MemorySyscallTest, MremapOfASysvAttachCannotGrow) {
  SimWorld w;
  Process* p = w.NewProcess("mremap-shm");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t id = co_await g.Shmget(ShmRegistry::kIpcPrivate, 2 * kPageSize, kIpcCreat);
    GuestAddr base = static_cast<GuestAddr>(co_await g.Shmat(static_cast<int>(id)));
    EXPECT_EQ(co_await g.Syscall(Sys::kMremap, base, 2 * kPageSize, 4 * kPageSize),
              -kENOMEM);
    g.PokeU64(base + kPageSize, 5);
    EXPECT_EQ(g.PeekU64(base + kPageSize), 5u);
  });
  w.Run();
}

// Two processes attach one segment: the first to detach leaves the other's view,
// and the bytes either one wrote, intact.
TEST(MemorySyscallTest, ShmdtOfOneAttacherLeavesTheOthersBytes) {
  SimWorld w;
  Process* a = w.NewProcess("shmdt-a");
  Process* b = w.NewProcess("shmdt-b");
  GuestAddr a_base = 0;
  uint64_t seen_by_b = 0;
  w.kernel.SpawnThread(a, [&](Guest& g) -> GuestTask<void> {
    int64_t id = co_await g.Shmget(4343, 2 * kPageSize, kIpcCreat);
    a_base = static_cast<GuestAddr>(co_await g.Shmat(static_cast<int>(id)));
    g.PokeU64(a_base, 11);
    co_await g.Compute(Millis(1));  // B attaches and writes.
    EXPECT_EQ(co_await g.Shmdt(a_base), 0);
    EXPECT_EQ(co_await g.Shmdt(a_base), -kEINVAL);
  });
  w.kernel.SpawnThread(b, [&](Guest& g) -> GuestTask<void> {
    co_await g.Compute(Micros(500));
    int64_t id = co_await g.Shmget(4343, 2 * kPageSize, 0);
    GuestAddr base = static_cast<GuestAddr>(co_await g.Shmat(static_cast<int>(id)));
    g.PokeU64(base + kPageSize, 22);
    co_await g.Compute(Millis(1));  // A detaches.
    seen_by_b = g.PeekU64(base) * 100 + g.PeekU64(base + kPageSize);
  });
  w.Run();
  EXPECT_EQ(seen_by_b, 11u * 100 + 22u);
  uint64_t v = 0;
  EXPECT_FALSE(a->mem().Read(a_base, &v, sizeof(v)).ok);
}

// IPC_RMID while attached only marks the segment: its frames stay until the last
// attacher detaches, then the segment and its frames go.
TEST(MemorySyscallTest, ShmctlRmidKeepsTheFramesUntilTheLastDetach) {
  SimWorld w;
  Process* p = w.NewProcess("shm-rmid");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int id = static_cast<int>(co_await g.Shmget(ShmRegistry::kIpcPrivate, kPageSize, kIpcCreat));
    GuestAddr first = static_cast<GuestAddr>(co_await g.Shmat(id));
    GuestAddr second = static_cast<GuestAddr>(co_await g.Shmat(id));
    g.PokeU64(first, 0x5eed);
    EXPECT_EQ(co_await g.Syscall(Sys::kShmctl, static_cast<uint64_t>(id), kIpcRmid), 0);
    EXPECT_NE(w.shm.Find(id), nullptr);
    EXPECT_EQ(co_await g.Shmdt(first), 0);
    EXPECT_EQ(w.shm.resident_pages(), 1u);
    EXPECT_EQ(g.PeekU64(second), 0x5eedu);
    EXPECT_EQ(co_await g.Shmdt(second), 0);
    EXPECT_EQ(w.shm.Find(id), nullptr);
    EXPECT_EQ(w.shm.resident_pages(), 0u);
  });
  w.Run();
}

// madvise(MADV_DONTNEED) frees a private mapping's frames, as on Linux: the pages
// read as zeroes and leave the resident set; the pages outside the range keep
// their bytes. The length rounds up to whole pages.
TEST(MemorySyscallTest, MadviseDontneedZeroFillsAPrivateMapping) {
  SimWorld w;
  Process* p = w.NewProcess("madvise-private");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr base = static_cast<GuestAddr>(
        co_await g.Mmap(0, 4 * kPageSize, kProtRead | kProtWrite, kMapPrivate));
    for (uint64_t page = 0; page < 4; ++page) {
      g.PokeU64(base + page * kPageSize + 16, 0x600 + page);
    }
    uint64_t touched = p->mem().mapped_bytes();
    EXPECT_EQ(co_await g.Syscall(Sys::kMadvise, base + kPageSize, 2 * kPageSize - 1,
                                 kMadvDontneed),
              0);
    EXPECT_EQ(p->mem().mapped_bytes(), touched - 2 * kPageSize);
    EXPECT_EQ(g.PeekU64(base + 16), 0x600u);
    EXPECT_EQ(g.PeekU64(base + kPageSize + 16), 0u);
    EXPECT_EQ(g.PeekU64(base + 2 * kPageSize + 16), 0u);
    EXPECT_EQ(g.PeekU64(base + 3 * kPageSize + 16), 0x603u);
    // A range with a hole in it is ENOMEM, and its mapped pages are freed all the same.
    EXPECT_EQ(co_await g.Munmap(base + kPageSize, kPageSize), 0);
    EXPECT_EQ(co_await g.Syscall(Sys::kMadvise, base, 4 * kPageSize, kMadvDontneed), -kENOMEM);
    EXPECT_EQ(g.PeekU64(base + 16), 0u);
    EXPECT_EQ(g.PeekU64(base + 3 * kPageSize + 16), 0u);
    EXPECT_EQ(p->mem().mapped_bytes(), touched - 4 * kPageSize);
  });
  w.Run();
}

// A MAP_SHARED mapping and a SysV attachment keep their bytes under
// MADV_DONTNEED, as on Linux, where the page cache still holds them.
TEST(MemorySyscallTest, MadviseDontneedKeepsASharedMappingsBytes) {
  SimWorld w;
  Process* p = w.NewProcess("madvise-shared");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr anon = static_cast<GuestAddr>(
        co_await g.Mmap(0, kPageSize, kProtRead | kProtWrite, kMapShared | kMapAnonymous));
    int64_t id = co_await g.Shmget(ShmRegistry::kIpcPrivate, kPageSize, kIpcCreat);
    GuestAddr shm = static_cast<GuestAddr>(co_await g.Shmat(static_cast<int>(id)));
    g.PokeU64(anon, 0xa5);
    g.PokeU64(shm, 0x5a);
    EXPECT_EQ(co_await g.Syscall(Sys::kMadvise, anon, kPageSize, kMadvDontneed), 0);
    EXPECT_EQ(co_await g.Syscall(Sys::kMadvise, shm, kPageSize, kMadvDontneed), 0);
    EXPECT_EQ(g.PeekU64(anon), 0xa5u);
    EXPECT_EQ(g.PeekU64(shm), 0x5au);
    EXPECT_EQ(w.shm.resident_pages(), 1u);
  });
  w.Run();
}

// Any other advice (MADV_NORMAL, MADV_WILLNEED, ...) changes nothing.
TEST(MemorySyscallTest, MadviseOtherAdviceIsANoOp) {
  SimWorld w;
  Process* p = w.NewProcess("madvise-other");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr base = static_cast<GuestAddr>(
        co_await g.Mmap(0, kPageSize, kProtRead | kProtWrite, kMapPrivate));
    g.PokeU64(base, 77);
    uint64_t touched = p->mem().mapped_bytes();
    for (uint64_t advice : {0u, 1u, 2u, 3u}) {
      EXPECT_EQ(co_await g.Syscall(Sys::kMadvise, base, kPageSize, advice), 0) << advice;
    }
    EXPECT_EQ(g.PeekU64(base), 77u);
    EXPECT_EQ(p->mem().mapped_bytes(), touched);
  });
  w.Run();
}

TEST(MemorySyscallTest, MadviseOfAMisalignedStartIsEinval) {
  SimWorld w;
  Process* p = w.NewProcess("madvise-misaligned");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr base = static_cast<GuestAddr>(
        co_await g.Mmap(0, 2 * kPageSize, kProtRead | kProtWrite, kMapPrivate));
    g.PokeU64(base + kPageSize, 88);
    EXPECT_EQ(co_await g.Syscall(Sys::kMadvise, base + 8, kPageSize, kMadvDontneed),
              -kEINVAL);
    EXPECT_EQ(g.PeekU64(base + kPageSize), 88u);
  });
  w.Run();
}

// A futex key is the word's frame, so a page a waiter is parked on keeps its frame
// under MADV_DONTNEED and is zeroed in place: the waiter still wakes.
TEST(MemorySyscallTest, MadviseDontneedKeepsAParkedWaitersFrame) {
  SimWorld w;
  Process* p = w.NewProcess("madvise-futex");
  int64_t waited = -1;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr base = static_cast<GuestAddr>(
        co_await g.Mmap(0, kPageSize, kProtRead | kProtWrite, kMapPrivate));
    g.PokeU64(base + 64, 0xdead);
    uint64_t waiter = g.RegisterThreadFn([base, &waited](Guest& wg) -> GuestTask<void> {
      waited = co_await wg.Futex(base, kFutexWait, 0);
    });
    co_await g.SpawnThread(waiter);
    co_await g.Compute(Micros(100));  // The waiter parks.
    EXPECT_EQ(co_await g.Syscall(Sys::kMadvise, base, kPageSize, kMadvDontneed), 0);
    EXPECT_EQ(g.PeekU64(base + 64), 0u);
    EXPECT_EQ(co_await g.Futex(base, kFutexWake, 1), 1);
  });
  w.Run();
  EXPECT_EQ(waited, 0);
}

// ru_maxrss is a high-water mark, as on Linux: unmapping what was touched does
// not lower it.
TEST(MemorySyscallTest, GetrusageMaxrssIsAHighWaterMark) {
  SimWorld w;
  Process* p = w.NewProcess("maxrss");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    constexpr uint64_t kPages = 8;
    GuestAddr ru = g.Alloc(sizeof(GuestRusage));
    uint64_t before = p->mem().mapped_bytes();
    GuestAddr base = static_cast<GuestAddr>(
        co_await g.Mmap(0, kPages * kPageSize, kProtRead | kProtWrite, kMapPrivate));
    for (uint64_t page = 0; page < kPages; ++page) {
      g.PokeU64(base + page * kPageSize, page);
    }
    EXPECT_EQ(co_await g.Munmap(base, kPages * kPageSize), 0);
    EXPECT_EQ(co_await g.Syscall(Sys::kGetrusage, 0, ru), 0);
    GuestRusage usage;
    g.Peek(ru, &usage, sizeof(usage));
    EXPECT_GE(static_cast<uint64_t>(usage.ru_maxrss) * 1024, before + kPages * kPageSize);
  });
  w.Run();
}

TEST(KernelTest, ShmSharedBetweenProcesses) {
  SimWorld w;
  Process* a = w.NewProcess("shm-a");
  Process* b = w.NewProcess("shm-b");
  uint32_t seen = 0;
  w.kernel.SpawnThread(a, [&](Guest& g) -> GuestTask<void> {
    int64_t id = co_await g.Shmget(777, 8192, kIpcCreat);
    EXPECT_GE(id, 0);
    int64_t addr = co_await g.Shmat(static_cast<int>(id));
    EXPECT_GT(addr, 0);
    g.PokeU32(static_cast<GuestAddr>(addr), 31337);
  });
  w.kernel.SpawnThread(b, [&](Guest& g) -> GuestTask<void> {
    co_await g.Compute(Millis(1));  // Let A create it first.
    int64_t id = co_await g.Shmget(777, 8192, 0);
    EXPECT_GE(id, 0);
    int64_t addr = co_await g.Shmat(static_cast<int>(id));
    EXPECT_GT(addr, 0);
    seen = g.PeekU32(static_cast<GuestAddr>(addr));
  });
  w.Run();
  EXPECT_EQ(seen, 31337u);
}

TEST(KernelTest, TimerFdFires) {
  SimWorld w;
  Process* p = w.NewProcess("timer");
  uint64_t expirations = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.TimerfdCreate();
    GuestAddr its = g.Alloc(sizeof(GuestItimerspec));
    GuestItimerspec spec;
    spec.it_value = GuestTimespec{0, Millis(5)};
    g.Poke(its, &spec, sizeof(spec));
    EXPECT_EQ(co_await g.TimerfdSettime(static_cast<int>(fd), its), 0);
    GuestAddr buf = g.Alloc(8);
    EXPECT_EQ(co_await g.Read(static_cast<int>(fd), buf, 8), 8);
    expirations = g.PeekU64(buf);
  });
  w.Run();
  EXPECT_EQ(expirations, 1u);
}

TEST(KernelTest, ExitGroupStopsAllThreads) {
  SimWorld w;
  Process* p = w.NewProcess("exitgrp");
  bool other_finished = false;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    uint64_t forever = g.RegisterThreadFn([&other_finished](Guest& fg) -> GuestTask<void> {
      co_await fg.SleepNs(Seconds(100));
      other_finished = true;
    });
    co_await g.SpawnThread(forever);
    co_await g.Compute(Micros(10));
    co_await g.ExitGroup(3);
  });
  w.Run();
  EXPECT_TRUE(p->exited);
  EXPECT_EQ(p->exit_code, 3);
  EXPECT_FALSE(other_finished);
}

TEST(KernelTest, GettimeofdayMatchesVirtualClock) {
  SimWorld w;
  Process* p = w.NewProcess("time");
  int64_t sec = -1;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    co_await g.SleepNs(Seconds(2));
    GuestAddr tv = g.Alloc(sizeof(GuestTimeval));
    co_await g.Gettimeofday(tv);
    GuestTimeval val;
    g.Peek(tv, &val, sizeof(val));
    sec = val.tv_sec;
  });
  w.Run();
  EXPECT_EQ(sec, 2);
}

TEST(KernelTest, UnknownSyscallReturnsEnosys) {
  SimWorld w;
  Process* p = w.NewProcess("nosys");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    EXPECT_EQ(co_await g.Syscall(Sys::kFork), -kENOSYS);
    EXPECT_EQ(co_await g.Syscall(Sys::kExecve), -kENOSYS);
  });
  w.Run();
}

TEST(KernelTest, StatsCountSyscalls) {
  SimWorld w;
  Process* p = w.NewProcess("stats");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    for (int i = 0; i < 10; ++i) {
      co_await g.Getpid();
    }
  });
  w.Run();
  EXPECT_GE(w.sim.stats().syscalls_total, 10u);
}

// --- Thread reaping -------------------------------------------------------------
//
// An exited thread is destroyed — Thread, Guest, program callable, stack — once
// its frames are gone, no queued event captures it and its tracer (if any) has
// consumed its exit. A process's leader stays as long as the process, like a
// Linux thread-group leader's zombie.

// The threads the kernel may still hold: the live ones plus each process's
// exited leader.
size_t LiveThreadsAndExitedLeaders(const Kernel& k) {
  size_t n = 0;
  for (const auto& p : k.processes()) {
    n += static_cast<size_t>(Kernel::LiveThreadCount(p.get()));
    if (!p->threads.empty() && !p->threads.front()->alive()) {
      ++n;
    }
  }
  return n;
}

TEST(ThreadReapTest, ExitedThreadsAreReapedAndRanksKeepCounting) {
  SimWorld w;
  Process* p = w.NewProcess("reap");
  int late_rank = -1;
  GuestAddr late_stack_end = 0;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    for (int i = 0; i < 3; ++i) {
      uint64_t fn = g.RegisterThreadFn([](Guest& wg) -> GuestTask<void> {
        co_await wg.Compute(Micros(20));
      });
      EXPECT_GT(co_await g.SpawnThread(fn), 0);
    }
    co_await g.SleepNs(Millis(1));
    // All three exited and were reaped, stacks included; their CPU time stays.
    EXPECT_EQ(p->threads.size(), 1u);
    EXPECT_EQ(g.kernel()->thread_count(), 1u);
    for (int rank = 1; rank <= 3; ++rank) {
      EXPECT_EQ(p->mem().FindVma(Kernel::ThreadStackTop(*p, rank) - 1), nullptr) << rank;
    }
    EXPECT_GE(p->TotalCpuNs(), 3 * Micros(20));

    // The next thread takes the next spawn index (not threads.size()), so its rank
    // and its stack are the ones it would have had with nothing reaped.
    uint64_t late = g.RegisterThreadFn([](Guest& lg) -> GuestTask<void> {
      co_await lg.SleepNs(Millis(1));
    });
    int64_t tid = co_await g.SpawnThread(late);
    EXPECT_GT(tid, 0);
    if (p->threads.size() == 2 && p->threads[1]->tid() == tid) {
      late_rank = p->threads[1]->rank();
      const Vma* stack = p->mem().FindVma(Kernel::ThreadStackTop(*p, late_rank) - 1);
      if (stack != nullptr && stack->name == "[stack]") {
        late_stack_end = stack->end();
      }
    }
    // clone consumes its registration.
    EXPECT_EQ(co_await g.SpawnThread(late), -kEINVAL);
    EXPECT_EQ(co_await g.SpawnThread(1000), -kEINVAL);
  });
  w.Run();
  EXPECT_EQ(late_rank, 4);
  EXPECT_EQ(late_stack_end, p->layout.stack_top - 4 * (4ULL << 20));
  EXPECT_EQ(w.kernel.thread_count(), LiveThreadsAndExitedLeaders(w.kernel));
  EXPECT_EQ(w.kernel.thread_count(), 1u);
}

TEST(ThreadReapTest, ThreadKilledMidChargeIsReapedWhenItsChargeEnds) {
  SimWorld w;
  Process* p = w.NewProcess("midcharge");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    uint64_t fn = g.RegisterThreadFn([](Guest& wg) -> GuestTask<void> {
      co_await wg.Compute(Millis(10));
      ADD_FAILURE() << "a killed thread resumed";
    });
    co_await g.SpawnThread(fn);
    co_await g.SleepNs(Millis(1));
    co_await g.ExitGroup(0);
  });
  w.Run(Millis(2));
  ASSERT_TRUE(p->exited);
  // The worker is dead, but the event ending its 10 ms charge still captures it.
  EXPECT_EQ(p->threads.size(), 2u);
  EXPECT_EQ(w.kernel.thread_count(), 2u);
  w.Run();
  EXPECT_EQ(w.kernel.thread_count(), LiveThreadsAndExitedLeaders(w.kernel));
  EXPECT_EQ(p->threads.size(), 1u);
}

TEST(ThreadReapTest, ThreadKilledWhileBlockedWithTimeoutIsReapedAtOnce) {
  SimWorld w;
  Process* p = w.NewProcess("blocked");
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    GuestAddr word = g.Alloc(4);
    g.PokeU32(word, 0);
    GuestAddr ts = g.Alloc(sizeof(GuestTimespec));
    GuestTimespec spec{0, Millis(50)};
    g.Poke(ts, &spec, sizeof(spec));
    uint64_t fn = g.RegisterThreadFn([word, ts](Guest& wg) -> GuestTask<void> {
      co_await wg.Futex(word, kFutexWait, 0, ts);
      ADD_FAILURE() << "a killed thread resumed";
    });
    co_await g.SpawnThread(fn);
    co_await g.SleepNs(Millis(1));
    co_await g.ExitGroup(0);
  });
  w.Run(Millis(2));
  ASSERT_TRUE(p->exited);
  // Killing it cancelled its timeout: nothing captures the thread any more.
  EXPECT_EQ(w.kernel.thread_count(), LiveThreadsAndExitedLeaders(w.kernel));
  EXPECT_EQ(p->threads.size(), 1u);
  w.Run();
  EXPECT_EQ(w.kernel.thread_count(), 1u);
}

TEST(ThreadReapTest, SigkillReapsEveryThreadButTheLeader) {
  SimWorld w;
  Process* victim = w.NewProcess("victim");
  Process* killer = w.NewProcess("killer");
  w.kernel.SpawnThread(victim, [&](Guest& g) -> GuestTask<void> {
    GuestAddr fds = g.Alloc(8);
    co_await g.Pipe(fds);
    int rfd = static_cast<int>(g.PeekU32(fds));
    for (int i = 0; i < 3; ++i) {
      uint64_t fn = g.RegisterThreadFn([rfd](Guest& wg) -> GuestTask<void> {
        GuestAddr buf = wg.Alloc(8);
        co_await wg.Read(rfd, buf, 8);
        ADD_FAILURE() << "a killed thread resumed";
      });
      co_await g.SpawnThread(fn);
    }
    GuestAddr buf = g.Alloc(8);
    co_await g.Read(rfd, buf, 8);
  });
  w.kernel.SpawnThread(killer, [&](Guest& g) -> GuestTask<void> {
    co_await g.SleepNs(Millis(1));
    EXPECT_EQ(victim->threads.size(), 4u);
    EXPECT_EQ(co_await g.Kill(victim->pid(), kSIGKILL), 0);
  });
  w.Run();
  EXPECT_TRUE(victim->exited);
  EXPECT_EQ(victim->exit_code, 128 + kSIGKILL);
  EXPECT_EQ(victim->threads.size(), 1u);
  EXPECT_EQ(w.kernel.thread_count(), LiveThreadsAndExitedLeaders(w.kernel));
  EXPECT_EQ(w.kernel.thread_count(), 2u);  // The two leaders.
}

// A traced thread outlives its exit until GHUMVEE consumes it (kThreadExit, or
// kProcessExit for the threads a shutdown took down), then it is reaped.
TEST(ThreadReapTest, TracedThreadsAreReapedThroughADivergenceShutdown) {
  SimWorld w(61);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  size_t retained_after_join = 0;
  size_t live_after_join = 0;
  mvee.Launch([&](Guest& g) -> GuestTask<void> {
    GuestAddr join = g.Alloc(8);
    co_await g.Pipe(join);
    int join_rd = static_cast<int>(g.PeekU32(join));
    int join_wr = static_cast<int>(g.PeekU32(join + 4));
    for (int i = 0; i < 3; ++i) {
      uint64_t fn = g.RegisterThreadFn([join_wr](Guest& wg) -> GuestTask<void> {
        co_await wg.Getpid();
        GuestAddr d = wg.Alloc(1);
        wg.Poke(d, "D", 1);
        co_await wg.Write(join_wr, d, 1);
      });
      co_await g.SpawnThread(fn);
    }
    GuestAddr sink = g.Alloc(4);
    for (int i = 0; i < 3; ++i) {
      co_await g.Read(join_rd, sink, 1);
    }
    co_await g.SleepNs(Millis(5));
    if (g.process()->replica_index == 0) {
      retained_after_join = g.kernel()->thread_count();
      live_after_join = LiveThreadsAndExitedLeaders(*g.kernel());
    }
    // Hijacked control flow in replica 1: GHUMVEE shuts the set down.
    if (g.process()->replica_index == 1) {
      co_await g.Gettid();
    } else {
      co_await g.Getuid();
    }
  });
  w.Run();
  EXPECT_TRUE(mvee.divergence_detected());
  EXPECT_EQ(live_after_join, 2u);  // Both replicas' leaders.
  EXPECT_EQ(retained_after_join, live_after_join);
  EXPECT_EQ(w.kernel.thread_count(), LiveThreadsAndExitedLeaders(w.kernel));
  EXPECT_EQ(w.kernel.thread_count(), 2u);
}

}  // namespace
}  // namespace remon
