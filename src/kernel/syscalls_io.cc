// Blocking-capable system calls: file/socket I/O, multiplexing, sleeping, futexes.

#include <algorithm>
#include <array>
#include <span>

#include "src/kernel/guest_time.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall_meta.h"
#include "src/kernel/timerfd.h"
#include "src/net/network.h"
#include "src/sim/check.h"
#include "src/vfs/epoll.h"

namespace remon {

namespace {

// Linux's MAX_RW_COUNT: one read or write moves at most this many bytes.
constexpr uint64_t kMaxRwCount = 0x7ffff000;

// A read/write count or file offset is an ssize_t/off_t: negative is -EINVAL.
bool NegativeAsSigned(uint64_t v) { return static_cast<int64_t>(v) < 0; }

// A read- or write-family call's buffer as a segment list: one inline segment for
// a plain buffer, so the common case allocates nothing, else the iovec array.
struct IoSegments {
  GuestIovec buf;
  std::vector<GuestIovec> iov;
  bool vectored = false;

  std::span<GuestIovec> list() { return vectored ? std::span(iov) : std::span(&buf, 1); }
  std::span<const GuestIovec> list() const {
    return vectored ? std::span(iov) : std::span(&buf, 1);
  }
};

// Everything one attempt of a read or write needs, checked once at entry.
struct IoCall {
  std::shared_ptr<FileDescription> desc;
  IoSegments segs;
  uint64_t len = 0;               // Sum of the segment lengths.
  std::optional<uint64_t> pofs;   // The positional offset, if the call takes one.
};

// Linux's rw_verify_area over the segments: a negative count is -EINVAL, and the
// segments are clipped so their total is at most kMaxRwCount. Returns the total.
int64_t ClipSegments(std::span<GuestIovec> segs) {
  uint64_t total = 0;
  for (GuestIovec& v : segs) {
    if (NegativeAsSigned(v.iov_len)) {
      return -kEINVAL;
    }
    v.iov_len = std::min(v.iov_len, kMaxRwCount - total);
    total += v.iov_len;
  }
  return static_cast<int64_t>(total);
}

// Reads the iovec descriptors at `iov_addr` into `segs`. Returns -EFAULT/-EINVAL
// or 0.
int ReadIovecs(Process* p, GuestAddr iov_addr, uint64_t iovcnt, IoSegments* segs) {
  if (iovcnt > 1024) {
    return -kEINVAL;
  }
  segs->vectored = true;
  segs->iov.resize(iovcnt);
  if (iovcnt > 0 &&
      !p->mem().Read(iov_addr, segs->iov.data(), iovcnt * sizeof(GuestIovec)).ok) {
    return -kEFAULT;
  }
  return 0;
}

// The checks a read- or write-family call makes before its first attempt, in
// Linux's order: the descriptor, its type (a socket call needs a socket, a
// positional call a seekable file), its access mode, the buffer's segments, then
// the offset. The row says which buffer shape the call has, whether it is a
// socket call and whether it is positional.
int PrepareIo(Process* p, const SyscallRequest& req, const SyscallDesc& d, bool read,
              IoCall* call) {
  call->desc = p->fds().Get(static_cast<int>(req.arg(0)));
  if (!call->desc) {
    return -kEBADF;
  }
  FdType type = call->desc->file()->type();
  const DataArg data = DataArgOf(d);
  const bool positional = (d.exec_flags & kExecPositional) != 0;
  if (data.socket && type != FdType::kSocket) {
    return -kENOTSOCK;
  }
  if (positional && call->desc->file()->Size() < 0) {
    return -kESPIPE;  // A pipe or socket has no offset to read or write at.
  }
  if (!(read ? call->desc->readable() : call->desc->writable())) {
    return -kEBADF;
  }
  if (read && type == FdType::kDirectory) {
    return -kEISDIR;
  }
  int rc = 0;
  switch (data.shape) {
    case DataShape::kBuf:
      call->segs.buf = {req.arg(data.arg), req.arg(data.size_arg)};
      break;
    case DataShape::kIovec:
      rc = ReadIovecs(p, req.arg(data.arg), req.arg(data.size_arg), &call->segs);
      break;
    case DataShape::kMsghdr: {
      GuestMsghdr hdr;
      if (!p->mem().Read(req.arg(data.arg), &hdr, sizeof(hdr)).ok) {
        return -kEFAULT;
      }
      rc = ReadIovecs(p, hdr.msg_iov, hdr.msg_iovlen, &call->segs);
      break;
    }
    case DataShape::kNone:
      REMON_CHECK_MSG(false, "read/write row without a data buffer");
  }
  if (rc != 0) {
    return rc;
  }
  int64_t total = ClipSegments(call->segs.list());
  if (total < 0) {
    return static_cast<int>(total);
  }
  call->len = static_cast<uint64_t>(total);
  if (positional) {
    call->pofs = req.arg(3);
    if (NegativeAsSigned(*call->pofs)) {
      return -kEINVAL;
    }
  }
  return 0;
}

// poll/epoll_wait timeouts are a C int: only the register's low 32 bits count, and
// a negative value waits forever.
TimeNs DeadlineFromMs(Simulator* sim, uint64_t timeout_reg) {
  int32_t timeout_ms = static_cast<int32_t>(timeout_reg);
  if (timeout_ms < 0) {
    return kTimeNever;
  }
  return DeadlineAfter(sim->now(), timeout_ms * kMillisecond);
}

// select's fd_set: 1024 bits.
using FdSet = std::array<uint64_t, 16>;

bool FdIsSet(const FdSet& s, int fd) {
  return ((s[static_cast<size_t>(fd) / 64] >> (static_cast<size_t>(fd) % 64)) & 1) != 0;
}

void FdSetBit(FdSet& s, int fd) {
  s[static_cast<size_t>(fd) / 64] |= 1ULL << (static_cast<size_t>(fd) % 64);
}

// poll's readiness check over an interest list: each entry's revents become the
// events its file reports now, plus error and hangup; an entry whose descriptor is
// not open gets `closed_revents`, and a negative fd is skipped. Returns the number
// of entries with revents set.
int CheckReadiness(Process* p, std::span<GuestPollfd> fds, int16_t closed_revents) {
  int ready = 0;
  for (GuestPollfd& pf : fds) {
    pf.revents = 0;
    if (pf.fd < 0) {
      continue;
    }
    auto d = p->fds().Get(pf.fd);
    if (!d) {
      pf.revents = closed_revents;
    } else {
      uint32_t want = static_cast<uint16_t>(pf.events) | kPollErr | kPollHup;
      pf.revents = static_cast<int16_t>(d->file()->Poll() & want);
    }
    if (pf.revents != 0) {
      ++ready;
    }
  }
  return ready;
}

// The poll queue of every open descriptor in an interest list.
void CollectPollQueues(Process* p, std::span<const GuestPollfd> fds,
                       std::vector<WaitQueue*>& qs) {
  for (const GuestPollfd& pf : fds) {
    if (pf.fd >= 0) {
      if (auto d = p->fds().Get(pf.fd)) {
        qs.push_back(&d->file()->poll_queue());
      }
    }
  }
}

}  // namespace

std::shared_ptr<FileDescription> Kernel::Fd(Thread* t, int fd) {
  return t->process()->fds().Get(fd);
}

int Kernel::InstallFile(Thread* t, std::shared_ptr<File> file, int flags) {
  auto desc = std::make_shared<FileDescription>(std::move(file), flags);
  return t->process()->fds().Install(std::move(desc));
}

void Kernel::ExecuteSyscall(Thread* t, const SyscallRequest& req, Done done) {
  // Table-driven dispatch: the descriptor registry names the handler family, and
  // the row's argument kinds give each read/write its buffer shape.
  const SyscallDesc& d = DescOf(req.nr);
  switch (d.exec) {
    case ExecKind::kRead:
      return SysRead(t, req, d, std::move(done));
    case ExecKind::kWrite:
      return SysWrite(t, req, d, std::move(done));
    case ExecKind::kSendfile:
      return SysSendfile(t, req, std::move(done));
    case ExecKind::kAccept:
      return SysAccept(t, req, (d.exec_flags & kExecFlagsArg) != 0, std::move(done));
    case ExecKind::kConnect:
      return SysConnect(t, req, std::move(done));
    case ExecKind::kPoll:
      return SysPoll(t, req, std::move(done));
    case ExecKind::kSelect:
      return SysSelect(t, req, std::move(done));
    case ExecKind::kEpollWait:
      return SysEpollWait(t, req, std::move(done));
    case ExecKind::kNanosleep:
      return SysNanosleep(t, req, std::move(done));
    case ExecKind::kFutex:
      return SysFutex(t, req, std::move(done));
    case ExecKind::kPause:
      return SysPause(t, req, std::move(done));
    case ExecKind::kFast:
    default:
      return done(SysFast(t, req));
  }
}

void Kernel::RetryWhileAgain(Thread* t, const FileDescription& desc, AttemptFn attempt,
                             Done done) {
  if (desc.nonblocking()) {
    return done(attempt());
  }
  File* file = desc.file();
  BlockingRetry(
      t, std::move(attempt),
      [file](std::vector<WaitQueue*>& qs) { qs.push_back(&file->poll_queue()); },
      kTimeNever, -kEAGAIN, std::move(done));
}

int64_t Kernel::ReadToScratch(FileDescription* desc, uint64_t len, uint64_t offset) {
  // io_scratch_ is safe to reuse: nothing below suspends or re-enters a copy. It
  // holds what the file can return now, never the guest's whole length.
  len = std::min(len, desc->file()->ReadableBytes(offset));
  io_scratch_.resize(len);
  return desc->file()->Read(io_scratch_.data(), len, offset);
}

int64_t Kernel::WriteAtPosition(FileDescription* desc, const void* data, uint64_t len,
                                std::optional<uint64_t> pofs) {
  uint64_t offset = pofs.value_or(desc->offset());
  if ((desc->status_flags() & kO_APPEND) != 0 && desc->file()->Size() >= 0) {
    offset = static_cast<uint64_t>(desc->file()->Size());
  }
  int64_t n = desc->file()->Write(data, len, offset);
  if (n >= 0 && !pofs && desc->file()->Size() >= 0) {
    desc->set_offset(offset + static_cast<uint64_t>(n));
  }
  return n;
}

void Kernel::SysRead(Thread* t, const SyscallRequest& req, const SyscallDesc& d, Done done) {
  IoCall call;
  if (int rc = PrepareIo(t->process(), req, d, /*read=*/true, &call); rc != 0) {
    return done(rc);
  }
  const FileDescription& target = *call.desc;
  // Read into the scratch buffer, scatter across the segments, then advance the
  // offset of a non-positional read.
  auto attempt = [this, t, call = std::move(call)]() -> int64_t {
    FileDescription* desc = call.desc.get();
    uint64_t offset = call.pofs.value_or(desc->offset());
    int64_t n = ReadToScratch(desc, call.len, offset);
    if (n < 0) {
      return n;
    }
    uint64_t copied = 0;
    for (const GuestIovec& v : call.segs.list()) {
      if (copied == static_cast<uint64_t>(n)) {
        break;
      }
      uint64_t chunk = std::min<uint64_t>(v.iov_len, static_cast<uint64_t>(n) - copied);
      if (CopyOut(t->process(), v.iov_base, io_scratch_.data() + copied, chunk) != 0) {
        return -kEFAULT;
      }
      copied += chunk;
    }
    if (!call.pofs && desc->file()->Size() >= 0) {
      desc->set_offset(offset + static_cast<uint64_t>(n));
    }
    return n;
  };
  RetryWhileAgain(t, target, std::move(attempt), std::move(done));
}

void Kernel::SysWrite(Thread* t, const SyscallRequest& req, const SyscallDesc& d, Done done) {
  IoCall call;
  if (int rc = PrepareIo(t->process(), req, d, /*read=*/false, &call); rc != 0) {
    return done(rc);
  }
  const FileDescription& target = *call.desc;
  // Gather the segments into the scratch buffer, then write it in one piece.
  auto attempt = [this, t, call = std::move(call)]() -> int64_t {
    Process* p = t->process();
    // The source must be readable before the bounce buffer is sized by it.
    for (const GuestIovec& v : call.segs.list()) {
      if (!p->mem().Covers(v.iov_base, v.iov_len, kProtRead)) {
        return -kEFAULT;
      }
    }
    io_scratch_.resize(call.len);
    uint64_t filled = 0;
    for (const GuestIovec& v : call.segs.list()) {
      if (CopyIn(p, io_scratch_.data() + filled, v.iov_base, v.iov_len) != 0) {
        return -kEFAULT;
      }
      filled += v.iov_len;
    }
    return WriteAtPosition(call.desc.get(), io_scratch_.data(), call.len, call.pofs);
  };
  RetryWhileAgain(t, target, std::move(attempt), std::move(done));
}

void Kernel::SysSendfile(Thread* t, const SyscallRequest& req, Done done) {
  auto out_desc = Fd(t, static_cast<int>(req.arg(0)));
  auto in_desc = Fd(t, static_cast<int>(req.arg(1)));
  if (!out_desc || !in_desc || !in_desc->readable() || !out_desc->writable()) {
    return done(-kEBADF);
  }
  GuestAddr ofs_ptr = req.arg(2);
  uint64_t count = req.arg(3);
  uint64_t start_ofs = in_desc->offset();
  if (ofs_ptr != 0) {
    if (CopyIn(t->process(), &start_ofs, ofs_ptr, 8) != 0) {
      return done(-kEFAULT);
    }
  }

  // Transfers in window-sized chunks; completes when `count` bytes moved or the
  // input is exhausted.
  auto state = std::make_shared<uint64_t>(0);  // Bytes moved so far.
  auto attempt = [this, t, out_desc, in_desc, start_ofs, count, state,
                  ofs_ptr]() -> int64_t {
    while (*state < count) {
      uint8_t chunk[16 * 1024];
      uint64_t want = std::min<uint64_t>(sizeof(chunk), count - *state);
      int64_t n = in_desc->file()->Read(chunk, want, start_ofs + *state);
      if (n < 0) {
        return *state > 0 ? static_cast<int64_t>(*state) : n;
      }
      if (n == 0) {
        break;  // Input exhausted.
      }
      int64_t w = WriteAtPosition(out_desc.get(), chunk, static_cast<uint64_t>(n), std::nullopt);
      if (w == -kEAGAIN) {
        return *state > 0 && out_desc->nonblocking() ? static_cast<int64_t>(*state) : -kEAGAIN;
      }
      if (w < 0) {
        return *state > 0 ? static_cast<int64_t>(*state) : w;
      }
      *state += static_cast<uint64_t>(w);
      if (w < n) {
        if (out_desc->file()->Size() >= 0) {
          break;  // A file stops at its size limit: no window reopens.
        }
        // Partial: push back is impossible; account and retry for window space.
        return -kEAGAIN;
      }
    }
    // Success: update the offset pointer or the in-fd offset.
    if (ofs_ptr != 0) {
      uint64_t end = start_ofs + *state;
      CopyOut(t->process(), ofs_ptr, &end, 8);
    } else {
      in_desc->set_offset(start_ofs + *state);
    }
    return static_cast<int64_t>(*state);
  };

  RetryWhileAgain(t, *out_desc, std::move(attempt), std::move(done));
}

void Kernel::SysAccept(Thread* t, const SyscallRequest& req, bool accept4, Done done) {
  auto desc = Fd(t, static_cast<int>(req.arg(0)));
  if (!desc) {
    return done(-kEBADF);
  }
  auto* listener = dynamic_cast<StreamSocket*>(desc->file());
  if (listener == nullptr) {
    return done(-kENOTSOCK);
  }
  GuestAddr addr_out = req.arg(1);
  GuestAddr len_out = req.arg(2);
  int new_flags = kO_RDWR;
  if (accept4 && (req.arg(3) & static_cast<uint64_t>(kSockNonblock)) != 0) {
    new_flags |= kO_NONBLOCK;
  }

  auto attempt = [this, t, listener, addr_out, len_out, new_flags]() -> int64_t {
    std::shared_ptr<StreamSocket> conn = listener->TryAccept();
    if (!conn) {
      return listener->state() == StreamSocket::State::kListening ? -kEAGAIN : -kEINVAL;
    }
    if (addr_out != 0) {
      GuestSockaddrIn sa;
      sa.sin_port = conn->remote().port;
      sa.sin_addr = conn->remote().machine;
      CopyOut(t->process(), addr_out, &sa, sizeof(sa));
      uint32_t sl = sizeof(sa);
      if (len_out != 0) {
        CopyOut(t->process(), len_out, &sl, 4);
      }
    }
    return InstallFile(t, std::move(conn), new_flags);
  };

  RetryWhileAgain(t, *desc, std::move(attempt), std::move(done));
}

void Kernel::SysConnect(Thread* t, const SyscallRequest& req, Done done) {
  auto desc = Fd(t, static_cast<int>(req.arg(0)));
  if (!desc) {
    return done(-kEBADF);
  }
  auto* sock = dynamic_cast<StreamSocket*>(desc->file());
  if (sock == nullptr) {
    return done(-kENOTSOCK);
  }
  GuestSockaddrIn sa;
  if (CopyIn(t->process(), &sa, req.arg(1), sizeof(sa)) != 0) {
    return done(-kEFAULT);
  }
  uint32_t machine = sa.sin_addr == kInaddrLoopback ? t->process()->machine() : sa.sin_addr;
  int rc = sock->ConnectTo(SockAddr{machine, sa.sin_port});
  if (rc != -kEINPROGRESS) {
    return done(rc);
  }
  if (desc->nonblocking()) {
    return done(-kEINPROGRESS);
  }
  auto attempt = [sock]() -> int64_t {
    switch (sock->state()) {
      case StreamSocket::State::kConnected:
        return 0;
      case StreamSocket::State::kConnecting:
        return -kEAGAIN;
      default:
        return sock->connect_failed() ? -kECONNREFUSED : -kENOTCONN;
    }
  };
  BlockingRetry(
      t, attempt,
      [sock](std::vector<WaitQueue*>& qs) { qs.push_back(&sock->poll_queue()); },
      kTimeNever, -kETIMEDOUT, std::move(done));
}

void Kernel::SysPoll(Thread* t, const SyscallRequest& req, Done done) {
  uint64_t nfds = req.arg(1);
  if (nfds > 1024) {
    return done(-kEINVAL);
  }
  GuestAddr fds_addr = req.arg(0);
  auto fds = std::make_shared<std::vector<GuestPollfd>>(nfds);
  if (nfds > 0 &&
      CopyIn(t->process(), fds->data(), fds_addr, nfds * sizeof(GuestPollfd)) != 0) {
    return done(-kEFAULT);
  }
  TimeNs deadline = DeadlineFromMs(sim_, req.arg(2));

  auto attempt = [this, t, fds, fds_addr]() -> int64_t {
    int ready = CheckReadiness(t->process(), *fds, static_cast<int16_t>(kPollErr));
    if (ready == 0) {
      return -kEAGAIN;
    }
    if (!fds->empty() && CopyOut(t->process(), fds_addr, fds->data(),
                                 fds->size() * sizeof(GuestPollfd)) != 0) {
      return -kEFAULT;
    }
    return ready;
  };
  auto queues = [t, fds](std::vector<WaitQueue*>& qs) {
    CollectPollQueues(t->process(), *fds, qs);
  };
  BlockingRetry(t, attempt, queues, deadline, 0, std::move(done));
}

void Kernel::SysSelect(Thread* t, const SyscallRequest& req, Done done) {
  int nfds = static_cast<int>(req.arg(0));
  if (nfds < 0 || nfds > 1024) {
    return done(-kEINVAL);
  }
  GuestAddr rd_addr = req.arg(1);
  GuestAddr wr_addr = req.arg(2);
  // arg(3) (exceptfds) is accepted but ignored: none of the simulated files raise
  // exceptional conditions.
  GuestAddr tv_addr = req.arg(4);

  FdSet rd{};
  FdSet wr{};
  if (rd_addr != 0 && CopyIn(t->process(), rd.data(), rd_addr, sizeof(rd)) != 0) {
    return done(-kEFAULT);
  }
  if (wr_addr != 0 && CopyIn(t->process(), wr.data(), wr_addr, sizeof(wr)) != 0) {
    return done(-kEFAULT);
  }
  TimeNs deadline = kTimeNever;
  if (tv_addr != 0) {
    GuestTimeval tv;
    if (CopyIn(t->process(), &tv, tv_addr, sizeof(tv)) != 0) {
      return done(-kEFAULT);
    }
    DurationNs d = GuestDurationNs(tv);
    if (d < 0) {
      return done(d);
    }
    deadline = DeadlineAfter(sim_->now(), d);
  }

  // The fd sets become poll's interest list, so select reads readiness through
  // poll's check; it keeps its own bitsets and counts each ready bit.
  auto fds = std::make_shared<std::vector<GuestPollfd>>();
  for (int fd = 0; fd < nfds; ++fd) {
    uint32_t events = (rd_addr != 0 && FdIsSet(rd, fd) ? kPollIn : 0) |
                      (wr_addr != 0 && FdIsSet(wr, fd) ? kPollOut : 0);
    if (events != 0) {
      fds->push_back(GuestPollfd{fd, static_cast<int16_t>(events), 0});
    }
  }

  auto attempt = [this, t, fds, rd_addr, wr_addr]() -> int64_t {
    // A descriptor that is not open is skipped, not reported.
    CheckReadiness(t->process(), *fds, 0);
    FdSet rd_out{};
    FdSet wr_out{};
    int ready = 0;
    for (const GuestPollfd& pf : *fds) {
      uint32_t got = static_cast<uint16_t>(pf.revents);
      if ((pf.events & kPollIn) != 0 && (got & (kPollIn | kPollHup | kPollErr)) != 0) {
        FdSetBit(rd_out, pf.fd);
        ++ready;
      }
      if ((pf.events & kPollOut) != 0 && (got & (kPollOut | kPollErr)) != 0) {
        FdSetBit(wr_out, pf.fd);
        ++ready;
      }
    }
    if (ready == 0) {
      return -kEAGAIN;
    }
    if (rd_addr != 0) {
      CopyOut(t->process(), rd_addr, rd_out.data(), sizeof(rd_out));
    }
    if (wr_addr != 0) {
      CopyOut(t->process(), wr_addr, wr_out.data(), sizeof(wr_out));
    }
    return ready;
  };
  auto queues = [t, fds](std::vector<WaitQueue*>& qs) {
    CollectPollQueues(t->process(), *fds, qs);
  };
  BlockingRetry(t, attempt, queues, deadline, 0, std::move(done));
}

void Kernel::SysEpollWait(Thread* t, const SyscallRequest& req, Done done) {
  auto desc = Fd(t, static_cast<int>(req.arg(0)));
  if (!desc) {
    return done(-kEBADF);
  }
  auto* ep = dynamic_cast<EpollFile*>(desc->file());
  if (ep == nullptr) {
    return done(-kEINVAL);
  }
  GuestAddr events_out = req.arg(1);
  int maxevents = static_cast<int>(req.arg(2));
  if (maxevents <= 0) {
    return done(-kEINVAL);
  }
  TimeNs deadline = DeadlineFromMs(sim_, req.arg(3));

  auto attempt = [this, t, ep, events_out, maxevents]() -> int64_t {
    std::vector<EpollFile::ReadyEvent> ready = ep->Collect(maxevents);
    if (ready.empty()) {
      return -kEAGAIN;
    }
    std::vector<GuestEpollEvent> out(ready.size());
    for (size_t i = 0; i < ready.size(); ++i) {
      out[i].events = ready[i].events;
      out[i].data = ready[i].data;
    }
    if (CopyOut(t->process(), events_out, out.data(),
                out.size() * sizeof(GuestEpollEvent)) != 0) {
      return -kEFAULT;
    }
    return static_cast<int64_t>(ready.size());
  };

  BlockingRetry(
      t, attempt,
      [ep](std::vector<WaitQueue*>& qs) { qs.push_back(&ep->poll_queue()); }, deadline, 0,
      std::move(done));
}

void Kernel::SysNanosleep(Thread* t, const SyscallRequest& req, Done done) {
  GuestTimespec ts;
  if (CopyIn(t->process(), &ts, req.arg(0), sizeof(ts)) != 0) {
    return done(-kEFAULT);
  }
  DurationNs d = GuestDurationNs(ts);
  if (d < 0) {
    return done(d);
  }
  BlockThread(t, {}, DeadlineAfter(sim_->now(), d), /*interruptible=*/true,
              [done = std::move(done)](WakeReason reason) {
                done(reason == WakeReason::kSignal ? -kEINTR : 0);
              });
}

void Kernel::SysFutex(Thread* t, const SyscallRequest& req, Done done) {
  GuestAddr uaddr = req.arg(0);
  int op = static_cast<int>(req.arg(1));
  uint32_t val = static_cast<uint32_t>(req.arg(2));
  AddressSpace& mem = t->process()->mem();
  uint64_t offset_in_page = 0;
  switch (op) {
    case kFutexWait: {
      Page* frame = mem.ResolveFrame(uaddr, &offset_in_page);
      if (frame == nullptr) {
        return done(-kEFAULT);
      }
      uint32_t current = 0;
      if (CopyIn(t->process(), &current, uaddr, 4) != 0) {
        return done(-kEFAULT);
      }
      if (current != val) {
        return done(-kEAGAIN);
      }
      TimeNs deadline = kTimeNever;
      if (req.arg(3) != 0) {
        GuestTimespec ts;
        if (CopyIn(t->process(), &ts, req.arg(3), sizeof(ts)) != 0) {
          return done(-kEFAULT);
        }
        DurationNs d = GuestDurationNs(ts);
        if (d < 0) {
          return done(d);
        }
        deadline = DeadlineAfter(sim_->now(), d);
      }
      ++sim_->stats().futex_waits;
      // A deliverable signal ends the wait before it parks (BlockThread), so it
      // takes no queue: the table holds a queue only while a thread is parked on it.
      WaitQueue* q = t->signal_deliverable() ? nullptr
                                             : &futex_.QueueFor(frame, offset_in_page);
      BlockThread(t, std::span<WaitQueue* const>(&q, q != nullptr ? 1 : 0), deadline,
                  /*interruptible=*/true, [done = std::move(done)](WakeReason reason) {
                    switch (reason) {
                      case WakeReason::kNotified:
                        return done(0);
                      case WakeReason::kTimeout:
                        return done(-kETIMEDOUT);
                      case WakeReason::kSignal:
                        return done(-kEINTR);
                    }
                  });
      return;
    }
    case kFutexWake: {
      // Nobody waits on a word whose page is not resident, so the key is looked up
      // without faulting the page in.
      if (mem.FindVma(uaddr) == nullptr) {
        return done(-kEFAULT);
      }
      ++sim_->stats().futex_wakes;
      const Page* frame = mem.ResidentFrame(uaddr, &offset_in_page);
      return done(frame == nullptr
                      ? 0
                      : futex_.Wake(frame, offset_in_page, static_cast<int>(val)));
    }
    default:
      return done(-kENOSYS);
  }
}

void Kernel::SysPause(Thread* t, const SyscallRequest& req, Done done) {
  BlockThread(t, {}, kTimeNever, /*interruptible=*/true,
              [done = std::move(done)](WakeReason) { done(-kEINTR); });
}

}  // namespace remon
