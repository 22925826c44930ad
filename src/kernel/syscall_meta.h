// The unified per-system-call descriptor registry shared by every layer that
// classifies calls: the kernel's dispatcher, GHUMVEE's lockstep comparison, IP-MON's
// replication fast path, and the relaxation policy.
//
// The paper's listing 1 shows how handlers describe each call: CHECKREG compares a
// scalar argument across replicas, CHECKPOINTER compares only *nullness* (diversified
// replicas legitimately pass different pointer values), CHECKBUFFER/CHECKSTRING deep-
// compare pointed-to content, and REPLICATEBUFFER copies result data from the master
// into the slaves. ReMon's security argument rests on every component interpreting a
// call the *same way*; this module is the single source of truth. One descriptor per
// syscall declaratively encodes:
//
//  * argument classes (scalar / in-buffer / out-buffer / fd / fd-array),
//  * CALCSIZE / PRECALL / POSTCALL region computation,
//  * fd-type semantics for the conditional relaxation policy (which FD argument or
//    FD list decides socket-vs-file routing),
//  * blocking prediction for the slaves' spin-vs-futex wait choice (§3.7),
//  * FD-lifecycle effects that keep the IP-MON file map authoritative (§3.6),
//  * the default policy class (Table 1 exemption levels, lockstep execution mode),
//  * the kernel marshalling strategy (which handler family executes the call).
//
// Adding a syscall is one table row in syscall_meta.cc; GHUMVEE, IP-MON, the policy
// engine, and the kernel dispatcher all pick it up from there.
//
// Derived operations:
//  * SerializeCallSignature — canonical byte string of the comparable content of a
//    call; two replicas diverge iff their signatures differ.
//  * CollectOutRegions — the guest regions a completed call wrote, for replication.
//  * EstimateDataSize — upper bound of RB space the call can need (CALCSIZE).
//  * EffectiveFdType / PredictBlocking / ControlNeedsMonitor — FD-routing helpers.

#ifndef SRC_KERNEL_SYSCALL_META_H_
#define SRC_KERNEL_SYSCALL_META_H_

#include <cstdint>
#include <vector>

#include "src/kernel/process.h"
#include "src/kernel/sysno.h"
#include "src/kernel/thread.h"
#include "src/vfs/file.h"

namespace remon {

// How an argument participates in the cross-replica equivalence check.
enum class In : uint8_t {
  kNone,        // Unused.
  kValue,       // CHECKREG: raw value must match.
  kPtr,         // CHECKPOINTER: only nullness must match.
  kCStr,        // CHECKSTRING: NUL-terminated content must match.
  kBuf,         // CHECKBUFFER: `size_arg` bytes of content must match.
  kStruct,      // Fixed-size content must match (`fixed` bytes).
  kIovecIn,     // iovec array (count in `size_arg`): per-segment lengths + content.
  kMsghdrIn,    // msghdr: embedded iovec content.
  kPollfds,     // pollfd array (count in `size_arg`): fd + events fields.
  kEpollEvent,  // epoll_event: `events` only — `data` is a replica-local pointer.
  kSockaddr,    // sockaddr content (`size_arg` holds the length argument index).
};

struct InArg {
  In kind = In::kNone;
  int size_arg = -1;    // Index of the argument holding a byte count / element count.
  uint32_t fixed = 0;   // Fixed byte size for kStruct.
};

// How result data written by the kernel is located for master->slave replication.
enum class Out : uint8_t {
  kNone,
  kBufRet,       // min(ret, args[size_arg]) bytes at args[arg].
  kBufFixed,     // `fixed` bytes at args[arg] (only when ret == 0).
  kIovecRet,     // Scatter `ret` bytes across the iovec array at args[arg].
  kMsghdrRet,    // Scatter `ret` bytes across the msghdr's iovec.
  kPollfds,      // pollfd array revents (count = args[size_arg]).
  kEpollEvents,  // `ret` epoll_event records at args[arg] (shadow-mapped by IP-MON).
  kSockaddrVR,   // sockaddr at args[arg] with value-result length at args[size_arg].
  kU32,          // 4 bytes at args[arg].
  kU64,          // 8 bytes at args[arg].
  kFd2,          // Two int32 fds at args[arg] (pipe).
  kFdSets,       // select() read/write fd_sets at args[1]/args[2], 128 bytes each.
};

struct OutArg {
  Out kind = Out::kNone;
  int arg = -1;
  int size_arg = -1;
  uint32_t fixed = 0;
};

// Blocking prediction for the slaves' wait-strategy choice (paper §3.7): whether an
// unmonitored call may put the master to sleep, in which case the slaves arm the
// entry's futex condvar instead of spinning.
enum class BlockPred : uint8_t {
  kNever,          // The call completes immediately.
  kAlways,         // The call sleeps by design (nanosleep, pause, select, futex).
  kTimeoutMs,      // Blocks iff the ms-timeout argument (`timeout_arg`) is nonzero.
  kFdNonblocking,  // Blocks iff the FD argument is not in O_NONBLOCK mode.
};

// Which FD(s) the conditional relaxation policy inspects (paper Table 1 right
// column): the call's routing depends on the "most sensitive" descriptor involved.
enum class FdScan : uint8_t {
  kNone,     // No FD argument; policy sees FdType::kFree.
  kFdArg,    // Single descriptor at args[fd_arg].
  kPollfds,  // pollfd array at args[0], count at args[1].
  kFdSets,   // select() fd_sets at args[1]/args[2], nfds at args[0].
};

// FD-lifecycle effect: how a *monitored* completion updates the IP-MON file map
// (§3.6). GHUMVEE applies these after the master executes.
enum class FdEffect : uint8_t {
  kNone,
  kCreatesFd,     // Successful return value is a new descriptor.
  kClosesFd,      // args[0] descriptor goes away on success.
  kCreatesFdPair, // Two descriptors written to args[0] (pipe/pipe2).
  kSetsFdFlags,   // May toggle O_NONBLOCK (fcntl F_SETFL / ioctl FIONBIO).
};

// Control-command gate: fcntl/ioctl sub-commands that mutate FD metadata GHUMVEE
// owns must stay monitored even when the policy would exempt the call.
enum class CtlGate : uint8_t { kNone, kFcntl, kIoctl };

// Kernel marshalling strategy: which handler family executes the call. The read and
// write families take their buffer's shape (plain, iovec, msghdr) and the socket-only
// rule from the row's argument kinds (DataArgOf), not from here; the two flags below
// name what no argument kind says.
enum class ExecKind : uint8_t {
  kFast,       // Non-blocking, handled synchronously by SysFast.
  kRead,       // read, pread64, readv, preadv, recvfrom, recvmsg, recvmmsg.
  kWrite,      // write, pwrite64, writev, pwritev, sendto, sendmsg, sendmmsg.
  kSendfile,
  kAccept,
  kConnect,
  kPoll,
  kSelect,
  kEpollWait,
  kNanosleep,
  kFutex,
  kPause,
};

inline constexpr uint8_t kExecPositional = 1u << 0;  // pread64/pwrite64/preadv/pwritev.
inline constexpr uint8_t kExecFlagsArg = 1u << 1;    // accept4's flags argument.

// Default policy class (paper §3.4, Table 1). Values mirror PolicyLevel in
// src/core/policy.h (kNever == kNoIpmon); the policy engine casts between them.
enum class PolicyClass : uint8_t {
  kNever = 0,      // Never exempt (always monitored).
  kBase = 1,
  kNonsockRo = 2,
  kNonsockRw = 3,
  kSockRo = 4,
  kSockRw = 5,
};

struct SyscallDesc {
  InArg in[6];
  OutArg outs[3];
  int fd_arg = -1;        // Index of the primary FD argument (file-map lookups).
  int timeout_arg = -1;   // Index of the ms-timeout argument for BlockPred::kTimeoutMs.
  BlockPred block = BlockPred::kNever;
  FdScan fd_scan = FdScan::kNone;
  FdEffect fd_effect = FdEffect::kNone;
  CtlGate ctl_gate = CtlGate::kNone;
  ExecKind exec = ExecKind::kFast;
  uint8_t exec_flags = 0;

  // Default policy classification (Table 1 + lockstep execution mode).
  PolicyClass uncond = PolicyClass::kNever;        // Unconditional exemption level.
  PolicyClass cond_nonsock = PolicyClass::kNever;  // Conditional: non-socket FDs.
  PolicyClass cond_sock = PolicyClass::kNever;     // Conditional: socket FDs.
  bool local = false;      // Lockstep executes the call in *every* replica.
  bool forced_cp = false;  // Could tamper with IP-MON/RB: never exempt (§3.1).

  bool registered = false;  // Set for every row in the table; the tests assert it.

  bool may_block() const { return block != BlockPred::kNever; }
  bool returns_fd() const { return fd_effect == FdEffect::kCreatesFd; }
  bool conditional() const { return cond_nonsock != PolicyClass::kNever; }
};

// Descriptor for `nr`; every valid syscall has one.
const SyscallDesc& DescOf(Sys nr);

// Keyed digest over the entire descriptor table, field by field in syscall-number
// order. Part of the config digest an attested transport join presents (wire v4,
// src/core/rb_auth.h): two monitors that would classify even one call differently
// — different argument classes, policy defaults, FD semantics — must not form a
// replica set, because every downstream equivalence check assumes the registry is
// the shared single source of truth.
uint64_t DescriptorRegistryDigest();

// Index of the pathname (kCStr) argument, or -1. Lets path-based handlers share one
// marshalling body across the plain and the *at variants (open/openat, ...).
inline int PathArg(const SyscallDesc& d) {
  for (int i = 0; i < 6; ++i) {
    if (d.in[i].kind == In::kCStr) {
      return i;
    }
  }
  return -1;
}

// Read-only FD metadata consulted by the classification helpers. Implemented by the
// IP-MON file map (core layer); defined here so kernel-layer code stays independent.
class FdInfoSource {
 public:
  virtual ~FdInfoSource() = default;
  virtual bool FdValid(int fd) const = 0;
  virtual FdType FdTypeOf(int fd) const = 0;
  virtual bool FdNonblocking(int fd) const = 0;
};

// The FD type the conditional relaxation policy should judge this call by: the
// single FD argument, or the "most sensitive" descriptor in a poll/select FD list
// (socket outranks regular; unknown/special forces CP monitoring).
FdType EffectiveFdType(Process* p, const SyscallRequest& req, const FdInfoSource& fds);

// Whether the slaves should sleep on the entry's condvar instead of spinning.
bool PredictBlocking(const SyscallRequest& req, const FdInfoSource& fds);

// True when a control call's sub-command mutates FD metadata GHUMVEE owns
// (fcntl F_SETFL / F_DUPFD, ioctl FIONBIO) and must therefore stay monitored.
bool ControlNeedsMonitor(const SyscallRequest& req);

// Canonical byte string of the call's comparable content (the monitors' deep compare
// input). Unreadable guest memory contributes a fault marker instead of aborting.
std::vector<uint8_t> SerializeCallSignature(Process* p, const SyscallRequest& req);

// The data buffer of a read- or write-family call, as its row's argument kinds name
// it: a plain buffer at args[arg] of args[size_arg] bytes, an iovec array at
// args[arg] of args[size_arg] segments, or a msghdr at args[arg] whose iovec holds
// the data. `socket` is set when the row names a socket address or a msghdr: the
// call then refuses a descriptor that is not a socket.
enum class DataShape : uint8_t { kNone, kBuf, kIovec, kMsghdr };
struct DataArg {
  DataShape shape = DataShape::kNone;
  int arg = -1;
  int size_arg = -1;
  bool socket = false;
};
DataArg DataArgOf(const SyscallDesc& d);

// A guest memory region written by a completed call.
struct OutRegion {
  GuestAddr addr = 0;
  uint64_t len = 0;
  bool is_epoll_events = false;  // Needs the epoll data shadow mapping.
};

// The regions a call that returned `ret` wrote in the calling process.
std::vector<OutRegion> CollectOutRegions(Process* p, const SyscallRequest& req, int64_t ret);

// Upper bound of the bytes the call's arguments + results can occupy in the RB.
uint64_t EstimateDataSize(Process* p, const SyscallRequest& req);

}  // namespace remon

#endif  // SRC_KERNEL_SYSCALL_META_H_
