// Guest-visible ABI structures.
//
// These are the byte layouts that guest programs place in simulated memory and that
// system calls read/write through AddressSpace. They intentionally mirror (simplified
// forms of) the x86-64 Linux structures, because the monitors must deep-copy and
// deep-compare them — the paper calls out exactly this "plethora of specialized
// functions that compare and copy complex data structures" as monitor attack surface.

#ifndef SRC_KERNEL_ABI_H_
#define SRC_KERNEL_ABI_H_

#include <cstdint>

#include "src/mem/page.h"

namespace remon {

// open(2) flags.
inline constexpr int kO_RDONLY = 0x0;
inline constexpr int kO_WRONLY = 0x1;
inline constexpr int kO_RDWR = 0x2;
inline constexpr int kO_ACCMODE = 0x3;
inline constexpr int kO_CREAT = 0x40;
inline constexpr int kO_EXCL = 0x80;
inline constexpr int kO_TRUNC = 0x200;
inline constexpr int kO_APPEND = 0x400;
inline constexpr int kO_NONBLOCK = 0x800;
inline constexpr int kO_DIRECTORY = 0x10000;
inline constexpr int kO_CLOEXEC = 0x80000;

// lseek whence.
inline constexpr int kSeekSet = 0;
inline constexpr int kSeekCur = 1;
inline constexpr int kSeekEnd = 2;

// fcntl commands.
inline constexpr int kF_DUPFD = 0;
inline constexpr int kF_GETFD = 1;
inline constexpr int kF_SETFD = 2;
inline constexpr int kF_GETFL = 3;
inline constexpr int kF_SETFL = 4;

// ioctl requests.
inline constexpr uint64_t kIoctlFionbio = 0x5421;
inline constexpr uint64_t kIoctlFionread = 0x541B;

// mmap flags.
inline constexpr int kMapShared = 0x01;
inline constexpr int kMapPrivate = 0x02;
inline constexpr int kMapFixed = 0x10;
inline constexpr int kMapAnonymous = 0x20;

// madvise advice.
inline constexpr int kMadvDontneed = 4;

// futex ops.
inline constexpr int kFutexWait = 0;
inline constexpr int kFutexWake = 1;

// epoll.
inline constexpr int kEpollCtlAdd = 1;
inline constexpr int kEpollCtlDel = 2;
inline constexpr int kEpollCtlMod = 3;

// poll/epoll event bits.
inline constexpr uint32_t kPollIn = 0x001;
inline constexpr uint32_t kPollOut = 0x004;
inline constexpr uint32_t kPollErr = 0x008;
inline constexpr uint32_t kPollHup = 0x010;
inline constexpr uint32_t kPollRdHup = 0x2000;

// socket domains/types.
inline constexpr int kAfInet = 2;
inline constexpr int kSockStream = 1;
inline constexpr int kSockDgram = 2;
// Mirrors Linux SOCK_NONBLOCK.
inline constexpr int kSockNonblock = 0x800;

// shutdown how.
inline constexpr int kShutRd = 0;
inline constexpr int kShutWr = 1;
inline constexpr int kShutRdWr = 2;

// shmget flags.
inline constexpr int kIpcCreat = 0x200;
inline constexpr int kIpcRmid = 0;

// Signals.
inline constexpr int kSIGHUP = 1;
inline constexpr int kSIGINT = 2;
inline constexpr int kSIGQUIT = 3;
inline constexpr int kSIGILL = 4;
inline constexpr int kSIGABRT = 6;
inline constexpr int kSIGKILL = 9;
inline constexpr int kSIGUSR1 = 10;
inline constexpr int kSIGSEGV = 11;
inline constexpr int kSIGUSR2 = 12;
inline constexpr int kSIGPIPE = 13;
inline constexpr int kSIGALRM = 14;
inline constexpr int kSIGTERM = 15;
inline constexpr int kSIGCHLD = 17;
inline constexpr int kSIGSYS = 31;
inline constexpr int kNumSignals = 64;

// sigaction "handler" sentinels.
inline constexpr uint64_t kSigDfl = 0;
inline constexpr uint64_t kSigIgn = 1;

#pragma pack(push, 1)

struct GuestTimespec {
  int64_t tv_sec = 0;
  int64_t tv_nsec = 0;
};

struct GuestTimeval {
  int64_t tv_sec = 0;
  int64_t tv_usec = 0;
};

struct GuestStat {
  uint64_t st_ino = 0;
  uint32_t st_mode = 0;  // Type in high bits: 1=reg, 2=dir, 3=symlink, 4=pipe, 5=sock.
  uint64_t st_size = 0;
  uint64_t st_blocks = 0;
  int64_t st_mtime_ns = 0;
};

struct GuestIovec {
  GuestAddr iov_base = 0;
  uint64_t iov_len = 0;
};

struct GuestMsghdr {
  GuestAddr msg_name = 0;  // sockaddr
  uint32_t msg_namelen = 0;
  GuestAddr msg_iov = 0;  // GuestIovec[]
  uint64_t msg_iovlen = 0;
  GuestAddr msg_control = 0;
  uint64_t msg_controllen = 0;
  uint32_t msg_flags = 0;
};

// A sin_addr naming the caller's own machine (127.0.0.1): the same bytes in every
// replica, wherever each one runs, so a loopback bind/connect compares equal.
inline constexpr uint32_t kInaddrLoopback = 0x7f000001;

struct GuestSockaddrIn {
  uint16_t sin_family = kAfInet;
  uint16_t sin_port = 0;       // Host byte order (simulation-private ABI).
  uint32_t sin_addr = 0;       // Simulated machine id, or kInaddrLoopback.
  uint8_t sin_zero[8] = {0};
};

struct GuestEpollEvent {
  uint32_t events = 0;
  uint64_t data = 0;  // Opaque; often a *pointer* in real programs — the reason the
                      // paper needs IP-MON's shadow mapping (§3.9).
};

struct GuestPollfd {
  int32_t fd = 0;
  int16_t events = 0;
  int16_t revents = 0;
};

struct GuestDirent {
  uint64_t d_ino = 0;
  uint8_t d_type = 0;
  char d_name[56] = {0};
};

struct GuestItimerspec {
  GuestTimespec it_interval;
  GuestTimespec it_value;
};

struct GuestSigaction {
  uint64_t handler = kSigDfl;  // kSigDfl, kSigIgn, or a guest handler cookie.
  uint64_t mask = 0;
  uint32_t flags = 0;
};

struct GuestRusage {
  GuestTimeval ru_utime;
  GuestTimeval ru_stime;
  int64_t ru_maxrss = 0;
};

struct GuestSysinfo {
  int64_t uptime = 0;
  uint64_t totalram = 0;
  uint64_t freeram = 0;
  uint16_t procs = 0;
};

struct GuestUtsname {
  char sysname[65] = {0};
  char nodename[65] = {0};
  char release[65] = {0};
  char version[65] = {0};
  char machine[65] = {0};
};

#pragma pack(pop)

}  // namespace remon

#endif  // SRC_KERNEL_ABI_H_
