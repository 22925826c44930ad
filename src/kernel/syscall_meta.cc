#include "src/kernel/syscall_meta.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/core/rb_auth.h"
#include "src/kernel/abi.h"
#include "src/sim/check.h"

namespace remon {

namespace {

constexpr InArg V() { return InArg{In::kValue, -1, 0}; }
constexpr InArg P() { return InArg{In::kPtr, -1, 0}; }
constexpr InArg S() { return InArg{In::kCStr, -1, 0}; }
constexpr InArg B(int size_arg) { return InArg{In::kBuf, size_arg, 0}; }
constexpr InArg St(uint32_t size) { return InArg{In::kStruct, -1, size}; }
constexpr InArg Iov(int cnt_arg) { return InArg{In::kIovecIn, cnt_arg, 0}; }
constexpr InArg Msg() { return InArg{In::kMsghdrIn, -1, 0}; }
constexpr InArg Pfd(int cnt_arg) { return InArg{In::kPollfds, cnt_arg, 0}; }
constexpr InArg Eev() { return InArg{In::kEpollEvent, -1, 0}; }
constexpr InArg Sa(int len_arg) { return InArg{In::kSockaddr, len_arg, 0}; }

constexpr OutArg OBufRet(int arg, int size_arg) { return OutArg{Out::kBufRet, arg, size_arg, 0}; }
constexpr OutArg OFix(int arg, uint32_t size) { return OutArg{Out::kBufFixed, arg, -1, size}; }
constexpr OutArg OIov(int arg, int cnt_arg) { return OutArg{Out::kIovecRet, arg, cnt_arg, 0}; }
constexpr OutArg OMsg(int arg) { return OutArg{Out::kMsghdrRet, arg, -1, 0}; }
constexpr OutArg OPfd(int arg, int cnt_arg) { return OutArg{Out::kPollfds, arg, cnt_arg, 0}; }
constexpr OutArg OEp(int arg) { return OutArg{Out::kEpollEvents, arg, -1, 0}; }
constexpr OutArg OSa(int arg, int len_arg) { return OutArg{Out::kSockaddrVR, arg, len_arg, 0}; }
constexpr OutArg OU32(int arg) { return OutArg{Out::kU32, arg, -1, 0}; }
constexpr OutArg OU64(int arg) { return OutArg{Out::kU64, arg, -1, 0}; }
constexpr OutArg OFd2(int arg) { return OutArg{Out::kFd2, arg, -1, 0}; }
constexpr OutArg OSel() { return OutArg{Out::kFdSets, -1, -1, 0}; }

using PC = PolicyClass;

// Fluent registration handle: one chained Row per syscall is the whole contract —
// argument classes, out-regions, FD semantics, blocking prediction, policy class,
// and the kernel marshalling strategy.
class Row {
 public:
  explicit Row(SyscallDesc* d) : d_(d) { d_->registered = true; }

  Row& In(std::initializer_list<InArg> args) {
    int i = 0;
    for (const InArg& a : args) {
      d_->in[i++] = a;
    }
    return *this;
  }
  Row& Out(std::initializer_list<OutArg> outs) {
    int i = 0;
    for (const OutArg& o : outs) {
      d_->outs[i++] = o;
    }
    return *this;
  }
  // `n` scalar (CHECKREG) arguments.
  Row& Scalars(int n) {
    for (int i = 0; i < n; ++i) {
      d_->in[i] = V();
    }
    return *this;
  }
  Row& Fd(int arg) {
    d_->fd_arg = arg;
    d_->fd_scan = FdScan::kFdArg;
    return *this;
  }
  Row& ScanPollfds() { d_->fd_scan = FdScan::kPollfds; return *this; }
  Row& ScanFdSets() { d_->fd_scan = FdScan::kFdSets; return *this; }
  Row& Blocks() { d_->block = BlockPred::kAlways; return *this; }
  Row& BlocksOnFd() { d_->block = BlockPred::kFdNonblocking; return *this; }
  Row& BlocksOnTimeout(int arg) {
    d_->block = BlockPred::kTimeoutMs;
    d_->timeout_arg = arg;
    return *this;
  }
  Row& Effect(FdEffect e) { d_->fd_effect = e; return *this; }
  Row& Gate(CtlGate g) { d_->ctl_gate = g; return *this; }
  Row& Exec(ExecKind k, uint8_t flags = 0) {
    d_->exec = k;
    d_->exec_flags = flags;
    return *this;
  }
  Row& Uncond(PC c) { d_->uncond = c; return *this; }
  Row& Cond(PC nonsock, PC sock) {
    d_->cond_nonsock = nonsock;
    d_->cond_sock = sock;
    return *this;
  }
  Row& Local() { d_->local = true; return *this; }
  Row& ForcedCp() { d_->forced_cp = true; return *this; }

 private:
  SyscallDesc* d_;
};

struct DescTable {
  std::array<SyscallDesc, kNumSyscalls> table{};

  Row R(Sys nr) { return Row(&table[static_cast<size_t>(nr)]); }

  DescTable() {
    // --- Process-local queries (Table 1 BASE_LEVEL) -----------------------------
    R(Sys::kGetpid).Uncond(PC::kBase);
    R(Sys::kGettid).Uncond(PC::kBase);
    R(Sys::kGetpgrp).Uncond(PC::kBase);
    R(Sys::kGetppid).Uncond(PC::kBase);
    R(Sys::kGetgid).Uncond(PC::kBase);
    R(Sys::kGetegid).Uncond(PC::kBase);
    R(Sys::kGetuid).Uncond(PC::kBase);
    R(Sys::kGeteuid).Uncond(PC::kBase);
    R(Sys::kGetpriority).Scalars(2).Uncond(PC::kBase);
    R(Sys::kCapget).Scalars(2).Uncond(PC::kBase);
    R(Sys::kSchedYield).Uncond(PC::kBase).Local();
    R(Sys::kGettimeofday).In({P()}).Out({OFix(0, sizeof(GuestTimeval))}).Uncond(PC::kBase);
    R(Sys::kClockGettime).In({V(), P()}).Out({OFix(1, sizeof(GuestTimespec))}).Uncond(PC::kBase);
    R(Sys::kTime).In({P()}).Out({OU64(0)}).Uncond(PC::kBase);
    R(Sys::kGetcwd).In({P(), V()}).Out({OBufRet(0, 1)}).Uncond(PC::kBase);
    R(Sys::kGetrusage).In({V(), P()}).Out({OFix(1, sizeof(GuestRusage))}).Uncond(PC::kBase);
    R(Sys::kTimes).In({P()}).Out({OFix(0, 32)}).Uncond(PC::kBase);
    R(Sys::kGetitimer).In({V(), P()}).Out({OFix(1, sizeof(GuestItimerspec))}).Uncond(PC::kBase);
    R(Sys::kSysinfo).In({P()}).Out({OFix(0, sizeof(GuestSysinfo))}).Uncond(PC::kBase);
    R(Sys::kUname).In({P()}).Out({OFix(0, sizeof(GuestUtsname))}).Uncond(PC::kBase);
    R(Sys::kNanosleep).In({St(sizeof(GuestTimespec)), P()}).Blocks()
        .Exec(ExecKind::kNanosleep).Uncond(PC::kBase).Local();

    // --- FS metadata (NONSOCKET_RO_LEVEL) ----------------------------------------
    R(Sys::kAccess).In({S(), V()}).Uncond(PC::kNonsockRo);
    R(Sys::kFaccessat).In({V(), S(), V()}).Uncond(PC::kNonsockRo);
    R(Sys::kLseek).In({V(), V(), V()}).Fd(0).Uncond(PC::kNonsockRo);
    R(Sys::kStat).In({S(), P()}).Out({OFix(1, sizeof(GuestStat))}).Uncond(PC::kNonsockRo);
    R(Sys::kLstat).In({S(), P()}).Out({OFix(1, sizeof(GuestStat))}).Uncond(PC::kNonsockRo);
    R(Sys::kFstat).In({V(), P()}).Out({OFix(1, sizeof(GuestStat))}).Fd(0)
        .Uncond(PC::kNonsockRo);
    R(Sys::kFstatat).In({V(), S(), P(), V()}).Out({OFix(2, sizeof(GuestStat))})
        .Uncond(PC::kNonsockRo);
    R(Sys::kGetdents).In({V(), P(), V()}).Out({OBufRet(1, 2)}).Fd(0).Uncond(PC::kNonsockRo);
    R(Sys::kReadlink).In({S(), P(), V()}).Out({OBufRet(1, 2)}).Uncond(PC::kNonsockRo);
    R(Sys::kReadlinkat).In({V(), S(), P(), V()}).Out({OBufRet(2, 3)}).Uncond(PC::kNonsockRo);
    R(Sys::kGetxattr).In({S(), S(), P(), V()}).Out({OBufRet(2, 3)}).Uncond(PC::kNonsockRo);
    R(Sys::kLgetxattr).In({S(), S(), P(), V()}).Out({OBufRet(2, 3)}).Uncond(PC::kNonsockRo);
    R(Sys::kFgetxattr).In({V(), S(), P(), V()}).Out({OBufRet(2, 3)}).Fd(0)
        .Uncond(PC::kNonsockRo);
    R(Sys::kAlarm).In({V()}).Uncond(PC::kNonsockRo);
    R(Sys::kSetitimer).In({V(), St(sizeof(GuestItimerspec)), P()}).Uncond(PC::kNonsockRo);
    R(Sys::kTimerfdGettime).In({V(), P()}).Out({OFix(1, sizeof(GuestItimerspec))}).Fd(0)
        .Uncond(PC::kNonsockRo);
    R(Sys::kMadvise).In({P(), V(), V()}).Uncond(PC::kNonsockRo).Local();
    R(Sys::kFadvise64).In({V(), V(), V(), V()}).Fd(0).Uncond(PC::kNonsockRo);

    // --- Reads (conditional: non-socket at NONSOCKET_RO, socket at SOCKET_RO) ----
    R(Sys::kRead).In({V(), P(), V()}).Out({OBufRet(1, 2)}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kRead).Cond(PC::kNonsockRo, PC::kSockRo);
    R(Sys::kReadv).In({V(), P(), V()}).Out({OIov(1, 2)}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kRead).Cond(PC::kNonsockRo, PC::kSockRo);
    R(Sys::kPread64).In({V(), P(), V(), V()}).Out({OBufRet(1, 2)}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kRead, kExecPositional).Cond(PC::kNonsockRo, PC::kSockRo);
    R(Sys::kPreadv).In({V(), P(), V(), V()}).Out({OIov(1, 2)}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kRead, kExecPositional).Cond(PC::kNonsockRo, PC::kSockRo);
    R(Sys::kSelect).In({V(), P(), P(), P(), P()}).Out({OSel()}).Blocks().ScanFdSets()
        .Exec(ExecKind::kSelect).Cond(PC::kNonsockRo, PC::kSockRo);
    R(Sys::kPoll).In({Pfd(1), V(), V()}).Out({OPfd(0, 1)}).BlocksOnTimeout(2).ScanPollfds()
        .Exec(ExecKind::kPoll).Cond(PC::kNonsockRo, PC::kSockRo);

    // --- Conditionals at NONSOCKET_RO (process-local writes) ----------------------
    R(Sys::kFutex).In({P(), V(), V(), P()}).Blocks().Exec(ExecKind::kFutex)
        .Cond(PC::kNonsockRo, PC::kNonsockRo).Local();
    R(Sys::kIoctl).In({V(), V(), P()}).Out({OU32(2)}).Fd(0).Gate(CtlGate::kIoctl)
        .Effect(FdEffect::kSetsFdFlags).Cond(PC::kNonsockRo, PC::kSockRo);
    R(Sys::kFcntl).In({V(), V(), V()}).Fd(0).Gate(CtlGate::kFcntl)
        .Effect(FdEffect::kSetsFdFlags).Cond(PC::kNonsockRo, PC::kSockRo);

    // --- FS sync (NONSOCKET_RW_LEVEL) ---------------------------------------------
    R(Sys::kSync).Uncond(PC::kNonsockRw);
    R(Sys::kSyncfs).Scalars(1).Fd(0).Uncond(PC::kNonsockRw);
    R(Sys::kFsync).Scalars(1).Fd(0).Uncond(PC::kNonsockRw);
    R(Sys::kFdatasync).Scalars(1).Fd(0).Uncond(PC::kNonsockRw);
    R(Sys::kTimerfdSettime).In({V(), V(), St(sizeof(GuestItimerspec)), P()}).Fd(0)
        .Uncond(PC::kNonsockRw);

    // --- Writes (conditional: non-socket at NONSOCKET_RW, socket at SOCKET_RW) ---
    R(Sys::kWrite).In({V(), B(2), V()}).Fd(0).BlocksOnFd().Exec(ExecKind::kWrite)
        .Cond(PC::kNonsockRw, PC::kSockRw);
    R(Sys::kWritev).In({V(), Iov(2), V()}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kWrite).Cond(PC::kNonsockRw, PC::kSockRw);
    R(Sys::kPwrite64).In({V(), B(2), V(), V()}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kWrite, kExecPositional).Cond(PC::kNonsockRw, PC::kSockRw);
    R(Sys::kPwritev).In({V(), Iov(2), V(), V()}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kWrite, kExecPositional).Cond(PC::kNonsockRw, PC::kSockRw);

    // --- Socket reads (SOCKET_RO_LEVEL) -------------------------------------------
    R(Sys::kEpollWait).In({V(), P(), V(), V()}).Out({OEp(1)}).Fd(0).BlocksOnTimeout(3)
        .Exec(ExecKind::kEpollWait).Uncond(PC::kSockRo);
    R(Sys::kRecvfrom).In({V(), P(), V(), V(), P(), P()})
        .Out({OBufRet(1, 2), OSa(4, 5)}).Fd(0).BlocksOnFd().Exec(ExecKind::kRead)
        .Uncond(PC::kSockRo);
    R(Sys::kRecvmsg).In({V(), Msg(), V()}).Out({OMsg(1)}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kRead).Uncond(PC::kSockRo);
    R(Sys::kRecvmmsg).In({V(), Msg(), V(), V()}).Out({OMsg(1)}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kRead).Uncond(PC::kSockRo);
    R(Sys::kGetsockname).In({V(), P(), P()}).Out({OSa(1, 2)}).Fd(0).Uncond(PC::kSockRo);
    R(Sys::kGetpeername).In({V(), P(), P()}).Out({OSa(1, 2)}).Fd(0).Uncond(PC::kSockRo);
    R(Sys::kGetsockopt).In({V(), V(), V(), P(), P()}).Out({OU32(3)}).Fd(0)
        .Uncond(PC::kSockRo);

    // --- Socket writes (SOCKET_RW_LEVEL) -------------------------------------------
    R(Sys::kSendto).In({V(), B(2), V(), V(), Sa(5), V()}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kWrite).Uncond(PC::kSockRw);
    R(Sys::kSendmsg).In({V(), Msg(), V()}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kWrite).Uncond(PC::kSockRw);
    R(Sys::kSendmmsg).In({V(), Msg(), V(), V()}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kWrite).Uncond(PC::kSockRw);
    R(Sys::kSendfile).In({V(), V(), P(), V()}).Out({OU64(2)}).Fd(0).BlocksOnFd()
        .Exec(ExecKind::kSendfile).Uncond(PC::kSockRw);
    R(Sys::kEpollCtl).In({V(), V(), V(), Eev()}).Fd(0).Uncond(PC::kSockRw);
    R(Sys::kSetsockopt).In({V(), V(), V(), B(4), V()}).Fd(0).Uncond(PC::kSockRw);
    R(Sys::kShutdown).In({V(), V()}).Fd(0).Uncond(PC::kSockRw);

    // --- FD lifecycle (always monitored; feeds the file map) -----------------------
    R(Sys::kOpen).In({S(), V(), V()}).Effect(FdEffect::kCreatesFd);
    R(Sys::kOpenat).In({V(), S(), V(), V()}).Effect(FdEffect::kCreatesFd);
    R(Sys::kClose).In({V()}).Fd(0).Effect(FdEffect::kClosesFd);
    R(Sys::kDup).In({V()}).Fd(0).Effect(FdEffect::kCreatesFd);
    R(Sys::kDup2).In({V(), V()}).Fd(0).Effect(FdEffect::kCreatesFd);
    R(Sys::kPipe).In({P()}).Out({OFd2(0)}).Effect(FdEffect::kCreatesFdPair);
    R(Sys::kPipe2).In({P(), V()}).Out({OFd2(0)}).Effect(FdEffect::kCreatesFdPair);
    R(Sys::kSocket).In({V(), V(), V()}).Effect(FdEffect::kCreatesFd);
    R(Sys::kBind).In({V(), Sa(2), V()}).Fd(0);
    R(Sys::kListen).In({V(), V()}).Fd(0);
    R(Sys::kAccept).In({V(), P(), P()}).Out({OSa(1, 2)}).Fd(0).BlocksOnFd()
        .Effect(FdEffect::kCreatesFd).Exec(ExecKind::kAccept);
    R(Sys::kAccept4).In({V(), P(), P(), V()}).Out({OSa(1, 2)}).Fd(0).BlocksOnFd()
        .Effect(FdEffect::kCreatesFd).Exec(ExecKind::kAccept, kExecFlagsArg);
    R(Sys::kConnect).In({V(), Sa(2), V()}).Fd(0).BlocksOnFd().Exec(ExecKind::kConnect);
    R(Sys::kEpollCreate).In({V()}).Effect(FdEffect::kCreatesFd);
    R(Sys::kEpollCreate1).In({V()}).Effect(FdEffect::kCreatesFd);
    R(Sys::kTimerfdCreate).In({V(), V()}).Effect(FdEffect::kCreatesFd);
    R(Sys::kEventfd).In({V()}).Effect(FdEffect::kCreatesFd);
    R(Sys::kEventfd2).In({V(), V()}).Effect(FdEffect::kCreatesFd);

    // --- Memory management (local; most can tamper with the RB -> forced CP) -------
    R(Sys::kMmap).In({P(), V(), V(), V(), V(), V()}).Local().ForcedCp();
    R(Sys::kMunmap).In({P(), V()}).Local().ForcedCp();
    R(Sys::kMprotect).In({P(), V(), V()}).Local().ForcedCp();
    R(Sys::kMremap).In({P(), V(), V(), V()}).Local().ForcedCp();
    R(Sys::kBrk).In({P()}).Local();
    R(Sys::kShmget).In({V(), V(), V()}).ForcedCp();
    R(Sys::kShmat).In({V(), P(), V()}).Local().ForcedCp();
    R(Sys::kShmdt).In({P()}).Local().ForcedCp();
    R(Sys::kShmctl).In({V(), V(), P()}).ForcedCp();

    // --- Process / thread lifecycle -------------------------------------------------
    R(Sys::kClone).In({V()}).Local();
    R(Sys::kFork);
    R(Sys::kExecve).In({S(), P(), P()});
    R(Sys::kExit).In({V()}).Local();
    R(Sys::kExitGroup).In({V()}).Local();
    R(Sys::kWait4).In({V(), P(), V(), P()}).Blocks();
    R(Sys::kKill).In({V(), V()});
    R(Sys::kTgkill).In({V(), V(), V()});
    R(Sys::kSetpriority).Scalars(3);

    // --- Signals ---------------------------------------------------------------------
    R(Sys::kRtSigaction).In({V(), V(), P(), V()}).Local();
    R(Sys::kRtSigprocmask).In({V(), V(), P(), V()}).Local();
    R(Sys::kRtSigreturn).Local();
    R(Sys::kSigaltstack).In({P(), P()}).Local();
    R(Sys::kPause).Blocks().Exec(ExecKind::kPause).Local();

    // --- Misc --------------------------------------------------------------------------
    R(Sys::kGetrandom).In({P(), V(), V()}).Out({OBufRet(0, 1)});
    R(Sys::kUnlink).In({S()});
    R(Sys::kMkdir).In({S(), V()});
    R(Sys::kRmdir).In({S()});
    R(Sys::kRename).In({S(), S()});
    R(Sys::kTruncate).In({S(), V()});
    R(Sys::kFtruncate).In({V(), V()}).Fd(0);
    R(Sys::kChdir).In({S()});
    R(Sys::kSetxattr).In({S(), S(), B(3), V(), V()});

    // --- MVEE-internal -----------------------------------------------------------------
    R(Sys::kRemonIpmonRegister).In({P(), P(), V()}).Local();
    R(Sys::kRemonRbFlush).In({V()});
    R(Sys::kRemonSyncRegister).In({P()}).Local();
  }
};

const DescTable& Table() {
  static const DescTable table;
  return table;
}

void AppendBytes(std::vector<uint8_t>* out, const void* data, uint64_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + len);
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) { AppendBytes(out, &v, 8); }

// Marker appended when guest memory cannot be read (the compare then diverges only if
// replicas differ in readability, which is itself a divergence signal).
void AppendFaultMarker(std::vector<uint8_t>* out) { AppendBytes(out, "\xde\xad", 2); }

void SerializeGuestRange(Process* p, std::vector<uint8_t>* out, GuestAddr addr, uint64_t len) {
  if (addr == 0 || len == 0) {
    AppendU64(out, 0);
    return;
  }
  // The length is the guest's: size nothing by it before the range reads.
  if (!p->mem().Covers(addr, len, kProtRead)) {
    AppendFaultMarker(out);
    return;
  }
  std::vector<uint8_t> tmp(len);
  if (!p->mem().Read(addr, tmp.data(), len).ok) {
    AppendFaultMarker(out);
    return;
  }
  AppendU64(out, len);
  AppendBytes(out, tmp.data(), len);
}

}  // namespace

const SyscallDesc& DescOf(Sys nr) {
  REMON_CHECK(static_cast<uint32_t>(nr) < kNumSyscalls);
  return Table().table[static_cast<size_t>(nr)];
}

DataArg DataArgOf(const SyscallDesc& d) {
  DataArg data;
  auto take = [&data](DataShape shape, int arg, int size_arg) {
    if (data.shape == DataShape::kNone) {
      data.shape = shape;
      data.arg = arg;
      data.size_arg = size_arg;
    }
  };
  // A read's buffer is its out-region; a write's is the in-argument it sends.
  for (const OutArg& o : d.outs) {
    switch (o.kind) {
      case Out::kBufRet:
        take(DataShape::kBuf, o.arg, o.size_arg);
        break;
      case Out::kIovecRet:
        take(DataShape::kIovec, o.arg, o.size_arg);
        break;
      case Out::kMsghdrRet:
        take(DataShape::kMsghdr, o.arg, -1);
        data.socket = true;
        break;
      case Out::kSockaddrVR:
        data.socket = true;
        break;
      default:
        break;
    }
  }
  for (int i = 0; i < 6; ++i) {
    switch (d.in[i].kind) {
      case In::kBuf:
        take(DataShape::kBuf, i, d.in[i].size_arg);
        break;
      case In::kIovecIn:
        take(DataShape::kIovec, i, d.in[i].size_arg);
        break;
      case In::kMsghdrIn:
        take(DataShape::kMsghdr, i, -1);
        data.socket = true;
        break;
      case In::kSockaddr:
        data.socket = true;
        break;
      default:
        break;
    }
  }
  return data;
}

uint64_t DescriptorRegistryDigest() {
  // Field-by-field serialization (never raw struct bytes: padding is not part of
  // the contract), each field widened to a fixed-width integer, rows in syscall
  // number order. Any table change — a new row, a reclassified argument, a policy
  // default — moves the digest and fails the attested join's config check.
  std::vector<uint8_t> buf;
  buf.reserve(static_cast<size_t>(kNumSyscalls) * 96);
  auto u32 = [&buf](uint32_t v) { AppendBytes(&buf, &v, 4); };
  auto i32 = [&u32](int v) { u32(static_cast<uint32_t>(v)); };
  auto u8 = [&buf](uint8_t v) { AppendBytes(&buf, &v, 1); };
  for (uint32_t nr = 0; nr < kNumSyscalls; ++nr) {
    const SyscallDesc& d = Table().table[nr];
    u32(nr);
    for (const InArg& a : d.in) {
      u8(static_cast<uint8_t>(a.kind));
      i32(a.size_arg);
      u32(a.fixed);
    }
    for (const OutArg& o : d.outs) {
      u8(static_cast<uint8_t>(o.kind));
      i32(o.arg);
      i32(o.size_arg);
      u32(o.fixed);
    }
    i32(d.fd_arg);
    i32(d.timeout_arg);
    u8(static_cast<uint8_t>(d.block));
    u8(static_cast<uint8_t>(d.fd_scan));
    u8(static_cast<uint8_t>(d.fd_effect));
    u8(static_cast<uint8_t>(d.ctl_gate));
    u8(static_cast<uint8_t>(d.exec));
    u8(d.exec_flags);
    u8(static_cast<uint8_t>(d.uncond));
    u8(static_cast<uint8_t>(d.cond_nonsock));
    u8(static_cast<uint8_t>(d.cond_sock));
    u8(d.local ? 1 : 0);
    u8(d.forced_cp ? 1 : 0);
    u8(d.registered ? 1 : 0);
  }
  return SipHash24(/*k0=*/0x5359534d45544144ull /* "SYSMETAD" */,
                   /*k1=*/0x4947455354563031ull /* "IGESTV01" */, buf.data(),
                   buf.size());
}

FdType EffectiveFdType(Process* p, const SyscallRequest& req, const FdInfoSource& fds) {
  const SyscallDesc& d = DescOf(req.nr);
  AddressSpace& mem = p->mem();
  switch (d.fd_scan) {
    case FdScan::kNone:
      return FdType::kFree;
    case FdScan::kFdArg: {
      int fd = static_cast<int>(req.arg(d.fd_arg));
      if (!fds.FdValid(fd)) {
        // Unknown descriptor: be conservative, force CP monitoring.
        return FdType::kSpecial;
      }
      return fds.FdTypeOf(fd);
    }
    case FdScan::kPollfds: {
      // poll watches many FDs: conditional exemption needs the "most sensitive" one.
      uint64_t nfds = req.arg(1);
      FdType worst = FdType::kRegular;
      for (uint64_t i = 0; i < std::min<uint64_t>(nfds, 1024); ++i) {
        GuestPollfd pf;
        if (!mem.Read(req.arg(0) + i * sizeof(GuestPollfd), &pf, sizeof(pf)).ok) {
          return FdType::kSpecial;
        }
        FdType ft = fds.FdTypeOf(pf.fd);
        if (ft == FdType::kSocket) {
          worst = FdType::kSocket;
        } else if (ft == FdType::kSpecial) {
          return FdType::kSpecial;
        }
      }
      return worst;
    }
    case FdScan::kFdSets: {
      int nfds = static_cast<int>(req.arg(0));
      FdType worst = FdType::kRegular;
      for (int set = 1; set <= 2; ++set) {
        GuestAddr set_addr = req.arg(set);
        if (set_addr == 0) {
          continue;
        }
        for (int fd = 0; fd < nfds; ++fd) {
          uint64_t word = 0;
          if (!mem.Read(set_addr + static_cast<uint64_t>(fd / 64) * 8, &word, 8).ok) {
            return FdType::kSpecial;
          }
          if (((word >> (fd % 64)) & 1) == 0) {
            continue;
          }
          FdType ft = fds.FdTypeOf(fd);
          if (ft == FdType::kSocket) {
            worst = FdType::kSocket;
          } else if (ft == FdType::kSpecial) {
            return FdType::kSpecial;
          }
        }
      }
      return worst;
    }
  }
  return FdType::kFree;
}

bool PredictBlocking(const SyscallRequest& req, const FdInfoSource& fds) {
  const SyscallDesc& d = DescOf(req.nr);
  switch (d.block) {
    case BlockPred::kNever:
      return false;
    case BlockPred::kAlways:
      return true;
    case BlockPred::kTimeoutMs:
      return static_cast<int64_t>(req.arg(d.timeout_arg)) != 0;
    case BlockPred::kFdNonblocking:
      return !fds.FdNonblocking(static_cast<int>(req.arg(d.fd_arg)));
  }
  return true;
}

bool ControlNeedsMonitor(const SyscallRequest& req) {
  // Mode-changing fcntl/ioctl must reach GHUMVEE: it owns the FD metadata behind the
  // file map (§3.6), and a silent O_NONBLOCK flip would desynchronize the blocking
  // prediction. Pure queries (F_GETFL and friends) stay on the fast path.
  switch (DescOf(req.nr).ctl_gate) {
    case CtlGate::kNone:
      return false;
    case CtlGate::kFcntl: {
      int cmd = static_cast<int>(req.arg(1));
      return cmd == kF_SETFL || cmd == kF_DUPFD;
    }
    case CtlGate::kIoctl:
      return req.arg(1) == kIoctlFionbio;
  }
  return false;
}

std::vector<uint8_t> SerializeCallSignature(Process* p, const SyscallRequest& req) {
  const SyscallDesc& d = DescOf(req.nr);
  std::vector<uint8_t> out;
  out.reserve(64);
  AppendU64(&out, static_cast<uint64_t>(req.nr));
  for (int i = 0; i < 6; ++i) {
    const InArg& a = d.in[i];
    uint64_t v = req.arg(i);
    switch (a.kind) {
      case In::kNone:
        break;
      case In::kValue:
        AppendU64(&out, v);
        break;
      case In::kPtr:
        out.push_back(v == 0 ? 0 : 1);
        break;
      case In::kCStr: {
        auto s = p->mem().ReadCString(v);
        if (!s) {
          AppendFaultMarker(&out);
        } else {
          AppendU64(&out, s->size());
          AppendBytes(&out, s->data(), s->size());
        }
        break;
      }
      case In::kBuf:
        SerializeGuestRange(p, &out, v, a.size_arg >= 0 ? req.arg(a.size_arg) : 0);
        break;
      case In::kStruct:
        SerializeGuestRange(p, &out, v, a.fixed);
        break;
      case In::kIovecIn: {
        uint64_t cnt = a.size_arg >= 0 ? req.arg(a.size_arg) : 0;
        out.push_back(v == 0 ? 0 : 1);
        AppendU64(&out, cnt);
        for (uint64_t j = 0; j < std::min<uint64_t>(cnt, 1024); ++j) {
          GuestIovec iov;
          if (!p->mem().Read(v + j * sizeof(GuestIovec), &iov, sizeof(iov)).ok) {
            AppendFaultMarker(&out);
            break;
          }
          SerializeGuestRange(p, &out, iov.iov_base, iov.iov_len);
        }
        break;
      }
      case In::kMsghdrIn: {
        GuestMsghdr hdr;
        if (v == 0 || !p->mem().Read(v, &hdr, sizeof(hdr)).ok) {
          out.push_back(v == 0 ? 0 : 2);
          break;
        }
        AppendU64(&out, hdr.msg_iovlen);
        for (uint64_t j = 0; j < std::min<uint64_t>(hdr.msg_iovlen, 1024); ++j) {
          GuestIovec iov;
          if (!p->mem().Read(hdr.msg_iov + j * sizeof(GuestIovec), &iov, sizeof(iov)).ok) {
            AppendFaultMarker(&out);
            break;
          }
          SerializeGuestRange(p, &out, iov.iov_base, iov.iov_len);
        }
        break;
      }
      case In::kPollfds: {
        uint64_t cnt = a.size_arg >= 0 ? req.arg(a.size_arg) : 0;
        AppendU64(&out, cnt);
        for (uint64_t j = 0; j < std::min<uint64_t>(cnt, 1024); ++j) {
          GuestPollfd pf;
          if (!p->mem().Read(v + j * sizeof(GuestPollfd), &pf, sizeof(pf)).ok) {
            AppendFaultMarker(&out);
            break;
          }
          AppendU64(&out, static_cast<uint64_t>(pf.fd));
          AppendU64(&out, static_cast<uint16_t>(pf.events));
        }
        break;
      }
      case In::kEpollEvent: {
        GuestEpollEvent ev;
        if (v == 0) {
          out.push_back(0);
          break;
        }
        if (!p->mem().Read(v, &ev, sizeof(ev)).ok) {
          AppendFaultMarker(&out);
          break;
        }
        // `data` is a replica-local cookie (often a heap pointer): excluded.
        AppendU64(&out, ev.events);
        break;
      }
      case In::kSockaddr:
        SerializeGuestRange(p, &out, v, sizeof(GuestSockaddrIn));
        break;
    }
  }
  return out;
}

std::vector<OutRegion> CollectOutRegions(Process* p, const SyscallRequest& req, int64_t ret) {
  const SyscallDesc& d = DescOf(req.nr);
  std::vector<OutRegion> regions;
  if (IsSyscallError(ret)) {
    return regions;  // Failed calls write nothing.
  }
  for (const OutArg& o : d.outs) {
    if (o.kind == Out::kNone) {
      continue;
    }
    GuestAddr addr = o.arg >= 0 ? req.arg(o.arg) : 0;
    switch (o.kind) {
      case Out::kNone:
        break;
      case Out::kBufRet: {
        if (addr == 0 || ret <= 0) {
          break;
        }
        uint64_t cap = o.size_arg >= 0 ? req.arg(o.size_arg) : static_cast<uint64_t>(ret);
        regions.push_back({addr, std::min<uint64_t>(static_cast<uint64_t>(ret), cap)});
        break;
      }
      case Out::kBufFixed:
        if (addr != 0) {
          regions.push_back({addr, o.fixed});
        }
        break;
      case Out::kIovecRet:
      case Out::kMsghdrRet: {
        if (addr == 0 || ret <= 0) {
          break;
        }
        GuestAddr iov_addr = addr;
        uint64_t iov_cnt = 0;
        if (o.kind == Out::kMsghdrRet) {
          GuestMsghdr hdr;
          if (!p->mem().Read(addr, &hdr, sizeof(hdr)).ok) {
            break;
          }
          iov_addr = hdr.msg_iov;
          iov_cnt = hdr.msg_iovlen;
        } else {
          iov_cnt = req.arg(o.size_arg);
        }
        uint64_t remaining = static_cast<uint64_t>(ret);
        for (uint64_t j = 0; j < std::min<uint64_t>(iov_cnt, 1024) && remaining > 0; ++j) {
          GuestIovec iov;
          if (!p->mem().Read(iov_addr + j * sizeof(GuestIovec), &iov, sizeof(iov)).ok) {
            break;
          }
          uint64_t n = std::min<uint64_t>(iov.iov_len, remaining);
          if (n > 0) {
            regions.push_back({iov.iov_base, n});
            remaining -= n;
          }
        }
        break;
      }
      case Out::kPollfds: {
        uint64_t cnt = o.size_arg >= 0 ? req.arg(o.size_arg) : 0;
        if (addr != 0 && cnt > 0) {
          regions.push_back({addr, cnt * sizeof(GuestPollfd)});
        }
        break;
      }
      case Out::kEpollEvents:
        if (addr != 0 && ret > 0) {
          OutRegion r{addr, static_cast<uint64_t>(ret) * sizeof(GuestEpollEvent)};
          r.is_epoll_events = true;
          regions.push_back(r);
        }
        break;
      case Out::kSockaddrVR: {
        if (addr != 0) {
          regions.push_back({addr, sizeof(GuestSockaddrIn)});
        }
        GuestAddr lenp = o.size_arg >= 0 ? req.arg(o.size_arg) : 0;
        if (lenp != 0) {
          regions.push_back({lenp, 4});
        }
        break;
      }
      case Out::kU32:
        if (addr != 0) {
          regions.push_back({addr, 4});
        }
        break;
      case Out::kU64:
        if (addr != 0) {
          regions.push_back({addr, 8});
        }
        break;
      case Out::kFd2:
        if (addr != 0) {
          regions.push_back({addr, 8});
        }
        break;
      case Out::kFdSets:
        for (int i = 1; i <= 2; ++i) {
          if (req.arg(i) != 0) {
            regions.push_back({req.arg(i), 128});
          }
        }
        break;
    }
  }
  return regions;
}

uint64_t EstimateDataSize(Process* p, const SyscallRequest& req) {
  const SyscallDesc& d = DescOf(req.nr);
  // Six registers plus entry metadata.
  uint64_t size = 6 * 8 + 32;
  for (int i = 0; i < 6; ++i) {
    const InArg& a = d.in[i];
    switch (a.kind) {
      case In::kBuf:
        size += a.size_arg >= 0 ? req.arg(a.size_arg) : 0;
        break;
      case In::kStruct:
        size += a.fixed;
        break;
      case In::kCStr:
        size += 256;
        break;
      case In::kIovecIn:
      case In::kMsghdrIn:
        size += 64 * 1024;  // Conservative: full window.
        break;
      default:
        break;
    }
  }
  for (const OutArg& o : d.outs) {
    switch (o.kind) {
      case Out::kBufRet:
        size += o.size_arg >= 0 ? req.arg(o.size_arg) : 0;
        break;
      case Out::kBufFixed:
        size += o.fixed;
        break;
      case Out::kIovecRet:
      case Out::kMsghdrRet:
        size += 64 * 1024;
        break;
      case Out::kEpollEvents:
        size += req.arg(2) * sizeof(GuestEpollEvent);
        break;
      case Out::kPollfds:
        size += (o.size_arg >= 0 ? req.arg(o.size_arg) : 0) * sizeof(GuestPollfd);
        break;
      case Out::kFdSets:
        size += 256;
        break;
      case Out::kSockaddrVR:
        size += sizeof(GuestSockaddrIn) + 4;
        break;
      case Out::kU32:
        size += 4;
        break;
      case Out::kU64:
      case Out::kFd2:
        size += 8;
        break;
      case Out::kNone:
        break;
    }
  }
  return size;
}

}  // namespace remon
