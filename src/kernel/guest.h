// Guest: the facade through which workload coroutines interact with the simulated
// kernel.
//
// A workload is a coroutine `GuestTask<void> Body(Guest& g)` that awaits system calls
// (`co_await g.Read(fd, buf, n)`), compute bursts (`co_await g.Compute(Micros(50))`),
// and helper operations. System calls go through the full MVEE pipeline: IK-B gate,
// then either IP-MON replication or GHUMVEE's ptrace lockstep, exactly as the real
// system routes the raw syscall instruction.
//
// Guest memory helpers come in two flavors:
//  * Poke/Peek — CHECK-fail on fault; for workload-owned buffers (programmer errors).
//  * TryPoke/TryPeek/TryExec — return faults; used by attack payloads, where a fault
//    raises SIGSEGV like a real wild pointer would.

#ifndef SRC_KERNEL_GUEST_H_
#define SRC_KERNEL_GUEST_H_

#include <coroutine>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/abi.h"
#include "src/kernel/kernel.h"
#include "src/kernel/process.h"
#include "src/kernel/thread.h"
#include "src/sim/task.h"

namespace remon {

// Awaitable performing one system call through the full kernel pipeline.
struct SyscallAwait {
  Thread* t;
  SyscallRequest req;
  int64_t result = 0;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    t->kernel()->OnSyscallFromGuest(t, req, &result, h);
  }
  int64_t await_resume() const { return result; }
};

// Awaitable for a guest compute burst (CPU time with replica-contention dilation).
struct ComputeAwait {
  Thread* t;
  DurationNs duration;

  bool await_ready() const { return duration <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    t->kernel()->RunGuestCompute(t, duration, [t = t, h] {
      if (t->alive()) {
        h.resume();
      }
    });
  }
  void await_resume() const {}
};

class Guest {
 public:
  explicit Guest(Thread* t) : t_(t) {}

  Thread* thread() const { return t_; }
  Process* process() const { return t_->process(); }
  Kernel* kernel() const { return t_->kernel(); }

  // --- Core awaitables -----------------------------------------------------------

  SyscallAwait Syscall(Sys nr, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                       uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0) {
    return SyscallAwait{t_, SyscallRequest{nr, {a0, a1, a2, a3, a4, a5}}};
  }
  ComputeAwait Compute(DurationNs d) { return ComputeAwait{t_, d}; }

  // --- Guest memory helpers ---------------------------------------------------

  // Bump-allocates zeroed guest memory from the heap region ("static data").
  // Allocation order is deterministic, so replicas allocate the same objects at
  // replica-specific addresses — the property the monitors' deep compares rely on.
  GuestAddr Alloc(uint64_t size, uint64_t align = 16);

  // Copies a NUL-terminated string into fresh guest memory; returns its address.
  GuestAddr CString(std::string_view s);

  void Poke(GuestAddr addr, const void* data, uint64_t len);
  void Peek(GuestAddr addr, void* out, uint64_t len) const;
  void PokeU64(GuestAddr addr, uint64_t v) { Poke(addr, &v, 8); }
  uint64_t PeekU64(GuestAddr addr) const {
    uint64_t v = 0;
    Peek(addr, &v, 8);
    return v;
  }
  void PokeU32(GuestAddr addr, uint32_t v) { Poke(addr, &v, 4); }
  uint32_t PeekU32(GuestAddr addr) const {
    uint32_t v = 0;
    Peek(addr, &v, 4);
    return v;
  }
  std::string PeekString(GuestAddr addr, uint64_t len) const;

  // Fault-raising variants for attack payloads. Awaiting yields true on success; on a
  // bad address the thread takes SIGSEGV exactly like a real wild access — by default
  // that kills the (replica) process, and under an MVEE the monitor observes the
  // signal stop and flags divergence. If the program installed a SIGSEGV handler, the
  // await resumes with false after the handler runs.
  struct MemAccessAwait {
    Thread* t;
    GuestAddr addr;
    void* out = nullptr;
    const void* in = nullptr;
    uint64_t len = 0;
    enum class Op { kRead, kWrite, kExec, kAlwaysFault } op = Op::kRead;
    bool ok = true;

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    bool await_resume() const { return ok; }
  };
  MemAccessAwait TryPoke(GuestAddr addr, const void* data, uint64_t len) {
    return MemAccessAwait{t_, addr, nullptr, data, len, MemAccessAwait::Op::kWrite};
  }
  MemAccessAwait TryPeek(GuestAddr addr, void* out, uint64_t len) {
    return MemAccessAwait{t_, addr, out, nullptr, len, MemAccessAwait::Op::kRead};
  }
  // Simulates an indirect branch to `target`: succeeds only if `target` lies in an
  // executable mapping of *this* replica. Under DCL a code address harvested from (or
  // crafted for) another replica faults here, producing the divergence MVEEs detect.
  MemAccessAwait TryExec(GuestAddr target) {
    return MemAccessAwait{t_, target, nullptr, nullptr, 0, MemAccessAwait::Op::kExec};
  }
  // Unconditionally raises SIGSEGV at `addr`.
  MemAccessAwait Fault(GuestAddr addr) {
    return MemAccessAwait{t_, addr, nullptr, nullptr, 0, MemAccessAwait::Op::kAlwaysFault};
  }

  // --- Registration helpers (deterministic across replicas) -------------------

  // Registers a signal handler body; returns its cookie for use with Sigaction.
  uint64_t RegisterHandler(SignalHandlerFn fn);
  // Registers a thread entry point; returns the index to pass to SpawnThread, which
  // consumes it (one registration, one clone).
  uint64_t RegisterThreadFn(ProgramFn fn);

  // --- System call sugar --------------------------------------------------------

  SyscallAwait Open(std::string_view path, int flags) {
    return Syscall(Sys::kOpen, CString(path), static_cast<uint64_t>(flags));
  }
  SyscallAwait Close(int fd) { return Syscall(Sys::kClose, U(fd)); }
  SyscallAwait Read(int fd, GuestAddr buf, uint64_t n) {
    return Syscall(Sys::kRead, U(fd), buf, n);
  }
  SyscallAwait Write(int fd, GuestAddr buf, uint64_t n) {
    return Syscall(Sys::kWrite, U(fd), buf, n);
  }
  SyscallAwait Pread(int fd, GuestAddr buf, uint64_t n, uint64_t ofs) {
    return Syscall(Sys::kPread64, U(fd), buf, n, ofs);
  }
  SyscallAwait Pwrite(int fd, GuestAddr buf, uint64_t n, uint64_t ofs) {
    return Syscall(Sys::kPwrite64, U(fd), buf, n, ofs);
  }
  SyscallAwait Readv(int fd, GuestAddr iov, int cnt) {
    return Syscall(Sys::kReadv, U(fd), iov, U(cnt));
  }
  SyscallAwait Writev(int fd, GuestAddr iov, int cnt) {
    return Syscall(Sys::kWritev, U(fd), iov, U(cnt));
  }
  SyscallAwait Lseek(int fd, int64_t ofs, int whence) {
    return Syscall(Sys::kLseek, U(fd), static_cast<uint64_t>(ofs), U(whence));
  }
  SyscallAwait Stat(std::string_view path, GuestAddr out) {
    return Syscall(Sys::kStat, CString(path), out);
  }
  SyscallAwait Fstat(int fd, GuestAddr out) { return Syscall(Sys::kFstat, U(fd), out); }
  SyscallAwait Access(std::string_view path, int mode) {
    return Syscall(Sys::kAccess, CString(path), U(mode));
  }
  SyscallAwait Getdents(int fd, GuestAddr buf, uint64_t n) {
    return Syscall(Sys::kGetdents, U(fd), buf, n);
  }
  SyscallAwait Unlink(std::string_view path) { return Syscall(Sys::kUnlink, CString(path)); }
  SyscallAwait Mkdir(std::string_view path) { return Syscall(Sys::kMkdir, CString(path)); }
  SyscallAwait Rename(std::string_view a, std::string_view b) {
    return Syscall(Sys::kRename, CString(a), CString(b));
  }
  SyscallAwait Fsync(int fd) { return Syscall(Sys::kFsync, U(fd)); }
  SyscallAwait Ftruncate(int fd, uint64_t len) { return Syscall(Sys::kFtruncate, U(fd), len); }

  SyscallAwait Pipe(GuestAddr fds_out) { return Syscall(Sys::kPipe, fds_out); }
  SyscallAwait Dup(int fd) { return Syscall(Sys::kDup, U(fd)); }
  SyscallAwait Dup2(int fd, int newfd) { return Syscall(Sys::kDup2, U(fd), U(newfd)); }
  SyscallAwait Fcntl(int fd, int cmd, uint64_t arg = 0) {
    return Syscall(Sys::kFcntl, U(fd), U(cmd), arg);
  }
  SyscallAwait Ioctl(int fd, uint64_t cmd, uint64_t arg) {
    return Syscall(Sys::kIoctl, U(fd), cmd, arg);
  }

  SyscallAwait Socket(int domain, int type) {
    return Syscall(Sys::kSocket, U(domain), U(type));
  }
  SyscallAwait Bind(int fd, GuestAddr addr, uint64_t len) {
    return Syscall(Sys::kBind, U(fd), addr, len);
  }
  SyscallAwait Listen(int fd, int backlog) { return Syscall(Sys::kListen, U(fd), U(backlog)); }
  SyscallAwait Accept(int fd, GuestAddr addr, GuestAddr lenp) {
    return Syscall(Sys::kAccept, U(fd), addr, lenp);
  }
  SyscallAwait Accept4(int fd, GuestAddr addr, GuestAddr lenp, int flags) {
    return Syscall(Sys::kAccept4, U(fd), addr, lenp, U(flags));
  }
  SyscallAwait Connect(int fd, GuestAddr addr, uint64_t len) {
    return Syscall(Sys::kConnect, U(fd), addr, len);
  }
  SyscallAwait Recvfrom(int fd, GuestAddr buf, uint64_t n, int flags = 0) {
    return Syscall(Sys::kRecvfrom, U(fd), buf, n, U(flags));
  }
  SyscallAwait Sendto(int fd, GuestAddr buf, uint64_t n, int flags = 0) {
    return Syscall(Sys::kSendto, U(fd), buf, n, U(flags));
  }
  SyscallAwait Sendfile(int out_fd, int in_fd, GuestAddr ofs_ptr, uint64_t count) {
    return Syscall(Sys::kSendfile, U(out_fd), U(in_fd), ofs_ptr, count);
  }
  SyscallAwait Shutdown(int fd, int how) { return Syscall(Sys::kShutdown, U(fd), U(how)); }
  SyscallAwait Getsockopt(int fd, int level, int opt, GuestAddr val, GuestAddr lenp) {
    return Syscall(Sys::kGetsockopt, U(fd), U(level), U(opt), val, lenp);
  }
  SyscallAwait Setsockopt(int fd, int level, int opt, GuestAddr val, uint64_t len) {
    return Syscall(Sys::kSetsockopt, U(fd), U(level), U(opt), val, len);
  }
  SyscallAwait Getsockname(int fd, GuestAddr addr, GuestAddr lenp) {
    return Syscall(Sys::kGetsockname, U(fd), addr, lenp);
  }

  SyscallAwait EpollCreate1(int flags = 0) { return Syscall(Sys::kEpollCreate1, U(flags)); }
  SyscallAwait EpollCtl(int epfd, int op, int fd, GuestAddr ev) {
    return Syscall(Sys::kEpollCtl, U(epfd), U(op), U(fd), ev);
  }
  SyscallAwait EpollWait(int epfd, GuestAddr evs, int maxevents, int timeout_ms) {
    return Syscall(Sys::kEpollWait, U(epfd), evs, U(maxevents),
                   static_cast<uint64_t>(timeout_ms));
  }
  SyscallAwait Poll(GuestAddr fds, uint64_t nfds, int timeout_ms) {
    return Syscall(Sys::kPoll, fds, nfds, static_cast<uint64_t>(timeout_ms));
  }
  SyscallAwait Select(int nfds, GuestAddr readfds, GuestAddr writefds, GuestAddr exceptfds,
                      GuestAddr timeout) {
    return Syscall(Sys::kSelect, U(nfds), readfds, writefds, exceptfds, timeout);
  }

  SyscallAwait Mmap(GuestAddr addr, uint64_t len, int prot, int flags) {
    return Syscall(Sys::kMmap, addr, len, U(prot), U(flags));
  }
  SyscallAwait Munmap(GuestAddr addr, uint64_t len) { return Syscall(Sys::kMunmap, addr, len); }
  SyscallAwait Mprotect(GuestAddr addr, uint64_t len, int prot) {
    return Syscall(Sys::kMprotect, addr, len, U(prot));
  }
  SyscallAwait Brk(GuestAddr addr) { return Syscall(Sys::kBrk, addr); }
  SyscallAwait Shmget(int key, uint64_t size, int flags) {
    return Syscall(Sys::kShmget, U(key), size, U(flags));
  }
  SyscallAwait Shmat(int shmid, GuestAddr addr = 0) {
    return Syscall(Sys::kShmat, U(shmid), addr);
  }
  SyscallAwait Shmdt(GuestAddr addr) { return Syscall(Sys::kShmdt, addr); }

  SyscallAwait Getpid() { return Syscall(Sys::kGetpid); }
  SyscallAwait Gettid() { return Syscall(Sys::kGettid); }
  SyscallAwait Getuid() { return Syscall(Sys::kGetuid); }
  SyscallAwait Gettimeofday(GuestAddr tv) { return Syscall(Sys::kGettimeofday, tv); }
  SyscallAwait ClockGettime(int clk, GuestAddr ts) {
    return Syscall(Sys::kClockGettime, U(clk), ts);
  }
  SyscallAwait Nanosleep(GuestAddr req_ts, GuestAddr rem_ts = 0) {
    return Syscall(Sys::kNanosleep, req_ts, rem_ts);
  }
  // Convenience: sleep for `d` (allocates the timespec internally).
  SyscallAwait SleepNs(DurationNs d);
  SyscallAwait SchedYield() { return Syscall(Sys::kSchedYield); }
  SyscallAwait Uname(GuestAddr buf) { return Syscall(Sys::kUname, buf); }
  SyscallAwait Getrandom(GuestAddr buf, uint64_t n) {
    return Syscall(Sys::kGetrandom, buf, n);
  }

  SyscallAwait Futex(GuestAddr uaddr, int op, uint32_t val, GuestAddr timeout = 0) {
    return Syscall(Sys::kFutex, uaddr, U(op), val, timeout);
  }
  SyscallAwait SpawnThread(uint64_t fn_index) { return Syscall(Sys::kClone, fn_index); }
  SyscallAwait Exit(int code) { return Syscall(Sys::kExit, U(code)); }
  SyscallAwait ExitGroup(int code) { return Syscall(Sys::kExitGroup, U(code)); }
  SyscallAwait Kill(int pid, int sig) { return Syscall(Sys::kKill, U(pid), U(sig)); }
  SyscallAwait Sigaction(int sig, uint64_t handler_cookie) {
    return Syscall(Sys::kRtSigaction, U(sig), handler_cookie);
  }
  SyscallAwait Alarm(uint64_t seconds) { return Syscall(Sys::kAlarm, seconds); }
  SyscallAwait Pause() { return Syscall(Sys::kPause); }

  SyscallAwait TimerfdCreate() { return Syscall(Sys::kTimerfdCreate); }
  SyscallAwait TimerfdSettime(int fd, GuestAddr new_value) {
    return Syscall(Sys::kTimerfdSettime, U(fd), 0, new_value);
  }
  SyscallAwait Eventfd(uint32_t initval) { return Syscall(Sys::kEventfd, initval); }

 private:
  static uint64_t U(int v) { return static_cast<uint64_t>(static_cast<int64_t>(v)); }

  Thread* t_;
};

}  // namespace remon

#endif  // SRC_KERNEL_GUEST_H_
