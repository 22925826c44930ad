// Non-blocking system calls: filesystem metadata, FD lifecycle, memory management,
// process info, signals, timers, and the MVEE-internal registration calls.

#include <algorithm>
#include <cstring>

#include "src/kernel/guest_time.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall_meta.h"
#include "src/kernel/timerfd.h"
#include "src/net/network.h"
#include "src/sim/check.h"
#include "src/vfs/epoll.h"
#include "src/vfs/eventfd.h"
#include "src/vfs/pipe.h"

namespace remon {

namespace {

// Resolves "/proc/self/..." for the calling process.
std::string FixupPath(Thread* t, std::string path) {
  const std::string kSelf = "/proc/self";
  if (path.rfind(kSelf, 0) == 0) {
    path = "/proc/" + std::to_string(t->process()->pid()) + path.substr(kSelf.size());
  }
  return path;
}

// truncate/ftruncate: the length is an off_t.
int64_t TruncateFile(FileData* data, uint64_t length) {
  if (static_cast<int64_t>(length) < 0) {
    return -kEINVAL;
  }
  if (length > Filesystem::kMaxFileBytes) {
    return -kEFBIG;
  }
  data->Truncate(length);
  return 0;
}

uint32_t StatModeFor(FdType type) {
  switch (type) {
    case FdType::kRegular: return 1u << 16;
    case FdType::kDirectory: return 2u << 16;
    case FdType::kPipe: return 4u << 16;
    case FdType::kSocket: return 5u << 16;
    default: return 6u << 16;
  }
}

}  // namespace

int64_t Kernel::FillStatFor(Thread* t, std::shared_ptr<Inode> inode, GuestAddr out) {
  GuestStat st;
  st.st_ino = inode->ino;
  st.st_mode = StatModeFor(inode->type) | (inode->symlink_target.empty() ? 0 : (3u << 16));
  st.st_size = inode->data.size();
  st.st_blocks = (inode->data.size() + 511) / 512;
  st.st_mtime_ns = inode->mtime_ns;
  return CopyOut(t->process(), out, &st, sizeof(st));
}

int64_t Kernel::SysFast(Thread* t, const SyscallRequest& req) {
  Process* p = t->process();
  AddressSpace& mem = p->mem();

  switch (req.nr) {
    // --- FD lifecycle ------------------------------------------------------------
    case Sys::kOpen:
    case Sys::kOpenat: {
      int base = PathArg(DescOf(req.nr));
      auto path_opt = mem.ReadCString(req.arg(base));
      if (!path_opt) {
        return -kEFAULT;
      }
      std::string path = FixupPath(t, *path_opt);
      int flags = static_cast<int>(req.arg(base + 1));
      std::shared_ptr<Inode> inode = fs_->Resolve(path, p->cwd);
      if (!inode && (flags & kO_CREAT) != 0) {
        inode = fs_->CreateFile(path, p->cwd);
      }
      if (!inode) {
        return -kENOENT;
      }
      if ((flags & kO_EXCL) != 0 && (flags & kO_CREAT) != 0) {
        return -kEEXIST;
      }
      if ((flags & kO_DIRECTORY) != 0 && inode->type != FdType::kDirectory) {
        return -kENOTDIR;
      }
      std::shared_ptr<File> file;
      switch (inode->type) {
        case FdType::kDirectory:
          file = std::make_shared<DirHandle>(inode);
          break;
        case FdType::kSpecial:
          if (path == "/dev/urandom") {
            file = std::make_shared<UrandomHandle>(sim_->rng().Next64());
          } else {
            REMON_CHECK(inode->generator != nullptr);
            file = std::make_shared<SpecialHandle>(inode->generator(), inode);
          }
          break;
        default:
          if ((flags & kO_TRUNC) != 0) {
            inode->data.Truncate(0);
          }
          file = std::make_shared<RegularHandle>(inode, fs_);
          break;
      }
      return InstallFile(t, std::move(file), flags);
    }
    case Sys::kClose:
      return p->fds().Close(static_cast<int>(req.arg(0)));
    case Sys::kDup: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      return p->fds().Install(desc);
    }
    case Sys::kDup2: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      return p->fds().InstallAt(static_cast<int>(req.arg(1)), desc);
    }
    case Sys::kPipe:
    case Sys::kPipe2: {
      auto [rd, wr] = Pipe::Create();
      int flags = req.nr == Sys::kPipe2 ? static_cast<int>(req.arg(1)) : 0;
      int rfd = InstallFile(t, rd, kO_RDONLY | (flags & kO_NONBLOCK));
      int wfd = InstallFile(t, wr, kO_WRONLY | (flags & kO_NONBLOCK));
      if (rfd < 0 || wfd < 0) {
        return -kEMFILE;
      }
      int32_t fds[2] = {rfd, wfd};
      if (CopyOut(p, req.arg(0), fds, sizeof(fds)) != 0) {
        return -kEFAULT;
      }
      return 0;
    }
    case Sys::kFcntl: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      switch (static_cast<int>(req.arg(1))) {
        case kF_GETFL:
          return desc->status_flags();
        case kF_SETFL: {
          int keep = desc->status_flags() & ~kO_NONBLOCK & ~kO_APPEND;
          desc->set_status_flags(keep |
                                 (static_cast<int>(req.arg(2)) & (kO_NONBLOCK | kO_APPEND)));
          return 0;
        }
        case kF_DUPFD:
          return p->fds().Install(desc, static_cast<int>(req.arg(2)));
        case kF_GETFD:
        case kF_SETFD:
          return 0;
        default:
          return -kEINVAL;
      }
    }
    case Sys::kIoctl: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      if (req.arg(1) == kIoctlFionbio) {
        uint32_t on = 0;
        if (CopyIn(p, &on, req.arg(2), 4) != 0) {
          return -kEFAULT;
        }
        int flags = desc->status_flags();
        desc->set_status_flags(on != 0 ? (flags | kO_NONBLOCK) : (flags & ~kO_NONBLOCK));
        return 0;
      }
      if (req.arg(1) == kIoctlFionread) {
        uint32_t avail = 0;
        if (auto* sock = dynamic_cast<StreamSocket*>(desc->file())) {
          avail = static_cast<uint32_t>(sock->rx_buffered());
        } else if (auto* pr = dynamic_cast<PipeReadEnd*>(desc->file())) {
          avail = static_cast<uint32_t>(pr->pipe()->buffered());
        }
        return CopyOut(p, req.arg(2), &avail, 4);
      }
      return desc->file()->Ioctl(req.arg(1), req.arg(2));
    }
    case Sys::kLseek: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      int64_t size = desc->file()->Size();
      if (size < 0) {
        return -kESPIPE;
      }
      int64_t offset = static_cast<int64_t>(req.arg(1));
      int whence = static_cast<int>(req.arg(2));
      int64_t base = whence == kSeekSet ? 0
                     : whence == kSeekCur ? static_cast<int64_t>(desc->offset())
                                          : size;
      int64_t target = base + offset;
      if (target < 0) {
        return -kEINVAL;
      }
      desc->set_offset(static_cast<uint64_t>(target));
      return target;
    }

    // --- Filesystem metadata ----------------------------------------------------
    case Sys::kStat:
    case Sys::kLstat:
    case Sys::kFstatat: {
      int base = PathArg(DescOf(req.nr));
      auto path = mem.ReadCString(req.arg(base));
      if (!path) {
        return -kEFAULT;
      }
      auto inode =
          fs_->Resolve(FixupPath(t, *path), p->cwd, /*follow=*/req.nr != Sys::kLstat);
      if (!inode) {
        return -kENOENT;
      }
      return FillStatFor(t, inode, req.arg(base + 1));
    }
    case Sys::kFstat: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      if (auto* reg = dynamic_cast<RegularHandle*>(desc->file())) {
        GuestStat st;
        st.st_ino = reg->inode()->ino;
        st.st_mode = StatModeFor(FdType::kRegular);
        st.st_size = reg->inode()->data.size();
        st.st_mtime_ns = reg->inode()->mtime_ns;
        return CopyOut(p, req.arg(1), &st, sizeof(st));
      }
      GuestStat st;
      st.st_mode = StatModeFor(desc->file()->type());
      st.st_size = desc->file()->Size() > 0 ? static_cast<uint64_t>(desc->file()->Size()) : 0;
      return CopyOut(p, req.arg(1), &st, sizeof(st));
    }
    case Sys::kAccess:
    case Sys::kFaccessat: {
      int base = PathArg(DescOf(req.nr));
      auto path = mem.ReadCString(req.arg(base));
      if (!path) {
        return -kEFAULT;
      }
      return fs_->Resolve(FixupPath(t, *path), p->cwd) ? 0 : -kENOENT;
    }
    case Sys::kGetdents: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* dir = dynamic_cast<DirHandle*>(desc->file());
      if (dir == nullptr) {
        return -kENOTDIR;
      }
      int max = static_cast<int>(req.arg(2) / sizeof(GuestDirent));
      if (max <= 0) {
        return -kEINVAL;
      }
      std::vector<GuestDirent> entries(static_cast<size_t>(max));
      uint64_t cursor = desc->offset();
      int n = dir->FillDirents(entries.data(), max, &cursor);
      desc->set_offset(cursor);
      if (n > 0 && CopyOut(p, req.arg(1), entries.data(),
                           static_cast<uint64_t>(n) * sizeof(GuestDirent)) != 0) {
        return -kEFAULT;
      }
      return n * static_cast<int64_t>(sizeof(GuestDirent));
    }
    case Sys::kReadlink:
    case Sys::kReadlinkat: {
      int base = PathArg(DescOf(req.nr));
      auto path = mem.ReadCString(req.arg(base));
      if (!path) {
        return -kEFAULT;
      }
      auto inode = fs_->Resolve(FixupPath(t, *path), p->cwd, /*follow_final_symlink=*/false);
      if (!inode || inode->symlink_target.empty()) {
        return -kEINVAL;
      }
      uint64_t n = std::min<uint64_t>(req.arg(base + 2), inode->symlink_target.size());
      if (CopyOut(p, req.arg(base + 1), inode->symlink_target.data(), n) != 0) {
        return -kEFAULT;
      }
      return static_cast<int64_t>(n);
    }
    case Sys::kGetxattr:
    case Sys::kLgetxattr: {
      auto path = mem.ReadCString(req.arg(0));
      auto name = mem.ReadCString(req.arg(1));
      if (!path || !name) {
        return -kEFAULT;
      }
      auto inode = fs_->Resolve(FixupPath(t, *path), p->cwd);
      if (!inode) {
        return -kENOENT;
      }
      auto it = inode->xattrs.find(*name);
      if (it == inode->xattrs.end()) {
        return -kENODATA;
      }
      uint64_t n = std::min<uint64_t>(req.arg(3), it->second.size());
      if (n > 0 && CopyOut(p, req.arg(2), it->second.data(), n) != 0) {
        return -kEFAULT;
      }
      return static_cast<int64_t>(it->second.size());
    }
    case Sys::kFgetxattr: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* reg = dynamic_cast<RegularHandle*>(desc->file());
      if (reg == nullptr) {
        return -kENODATA;
      }
      auto name = mem.ReadCString(req.arg(1));
      if (!name) {
        return -kEFAULT;
      }
      auto it = reg->inode()->xattrs.find(*name);
      if (it == reg->inode()->xattrs.end()) {
        return -kENODATA;
      }
      uint64_t n = std::min<uint64_t>(req.arg(3), it->second.size());
      if (n > 0 && CopyOut(p, req.arg(2), it->second.data(), n) != 0) {
        return -kEFAULT;
      }
      return static_cast<int64_t>(it->second.size());
    }
    case Sys::kSetxattr: {
      auto path = mem.ReadCString(req.arg(0));
      auto name = mem.ReadCString(req.arg(1));
      if (!path || !name) {
        return -kEFAULT;
      }
      auto inode = fs_->Resolve(FixupPath(t, *path), p->cwd);
      if (!inode) {
        return -kENOENT;
      }
      std::vector<uint8_t> value(req.arg(3));
      if (!value.empty() && CopyIn(p, value.data(), req.arg(2), value.size()) != 0) {
        return -kEFAULT;
      }
      inode->xattrs[*name] = std::string(value.begin(), value.end());
      return 0;
    }
    case Sys::kUnlink: {
      auto path = mem.ReadCString(req.arg(0));
      return path ? fs_->Unlink(FixupPath(t, *path), p->cwd) : -kEFAULT;
    }
    case Sys::kMkdir: {
      auto path = mem.ReadCString(req.arg(0));
      return path ? fs_->Mkdir(FixupPath(t, *path), p->cwd) : -kEFAULT;
    }
    case Sys::kRmdir: {
      auto path = mem.ReadCString(req.arg(0));
      return path ? fs_->Rmdir(FixupPath(t, *path), p->cwd) : -kEFAULT;
    }
    case Sys::kRename: {
      auto from = mem.ReadCString(req.arg(0));
      auto to = mem.ReadCString(req.arg(1));
      if (!from || !to) {
        return -kEFAULT;
      }
      return fs_->Rename(FixupPath(t, *from), FixupPath(t, *to), p->cwd);
    }
    case Sys::kChdir: {
      auto path = mem.ReadCString(req.arg(0));
      if (!path) {
        return -kEFAULT;
      }
      auto inode = fs_->Resolve(*path, p->cwd);
      if (!inode || inode->type != FdType::kDirectory) {
        return -kENOENT;
      }
      p->cwd = (*path)[0] == '/' ? *path : p->cwd + "/" + *path;
      return 0;
    }
    case Sys::kTruncate: {
      auto path = mem.ReadCString(req.arg(0));
      if (!path) {
        return -kEFAULT;
      }
      auto inode = fs_->Resolve(FixupPath(t, *path), p->cwd);
      if (!inode || inode->type != FdType::kRegular) {
        return -kENOENT;
      }
      return TruncateFile(&inode->data, req.arg(1));
    }
    case Sys::kFtruncate: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* reg = dynamic_cast<RegularHandle*>(desc->file());
      if (reg == nullptr) {
        return -kEINVAL;
      }
      return TruncateFile(&reg->inode()->data, req.arg(1));
    }
    case Sys::kSync:
    case Sys::kSyncfs:
    case Sys::kFsync:
    case Sys::kFdatasync:
    case Sys::kFadvise64:
      return 0;

    // --- Sockets (non-blocking parts) ------------------------------------------
    case Sys::kSocket: {
      if (static_cast<int>(req.arg(0)) != kAfInet) {
        return -kEINVAL;
      }
      int type = static_cast<int>(req.arg(1));
      if ((type & 0xff) != kSockStream) {
        return -kEINVAL;
      }
      int flags = kO_RDWR | ((type & kSockNonblock) != 0 ? kO_NONBLOCK : 0);
      return InstallFile(t, net_->CreateStream(p->machine()), flags);
    }
    case Sys::kBind: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* sock = dynamic_cast<StreamSocket*>(desc->file());
      if (sock == nullptr) {
        return -kENOTSOCK;
      }
      GuestSockaddrIn sa;
      if (CopyIn(p, &sa, req.arg(1), sizeof(sa)) != 0) {
        return -kEFAULT;
      }
      return sock->Bind(sa.sin_port);
    }
    case Sys::kListen: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* sock = dynamic_cast<StreamSocket*>(desc->file());
      if (sock == nullptr) {
        return -kENOTSOCK;
      }
      return sock->Listen(static_cast<int>(req.arg(1)));
    }
    case Sys::kGetsockname:
    case Sys::kGetpeername: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* sock = dynamic_cast<StreamSocket*>(desc->file());
      if (sock == nullptr) {
        return -kENOTSOCK;
      }
      const SockAddr& a = req.nr == Sys::kGetsockname ? sock->local() : sock->remote();
      GuestSockaddrIn sa;
      sa.sin_port = a.port;
      sa.sin_addr = a.machine;
      if (CopyOut(p, req.arg(1), &sa, sizeof(sa)) != 0) {
        return -kEFAULT;
      }
      uint32_t len = sizeof(sa);
      if (req.arg(2) != 0) {
        CopyOut(p, req.arg(2), &len, 4);
      }
      return 0;
    }
    case Sys::kGetsockopt: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* sock = dynamic_cast<StreamSocket*>(desc->file());
      if (sock == nullptr) {
        return -kENOTSOCK;
      }
      // SO_ERROR (level SOL_SOCKET=1, opt 4): consume pending connect() error.
      uint32_t value = 0;
      if (req.arg(1) == 1 && req.arg(2) == 4) {
        value = sock->connect_failed() ? static_cast<uint32_t>(kECONNREFUSED) : 0;
      }
      if (CopyOut(p, req.arg(3), &value, 4) != 0) {
        return -kEFAULT;
      }
      uint32_t len = 4;
      if (req.arg(4) != 0) {
        CopyOut(p, req.arg(4), &len, 4);
      }
      return 0;
    }
    case Sys::kSetsockopt:
      return Fd(t, static_cast<int>(req.arg(0))) ? 0 : -kEBADF;
    case Sys::kShutdown: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* sock = dynamic_cast<StreamSocket*>(desc->file());
      return sock == nullptr ? -kENOTSOCK : sock->Shutdown(static_cast<int>(req.arg(1)));
    }

    // --- epoll / timerfd / eventfd -------------------------------------------------
    case Sys::kEpollCreate:
    case Sys::kEpollCreate1:
      return InstallFile(t, std::make_shared<EpollFile>(), kO_RDWR);
    case Sys::kEpollCtl: {
      auto epd = Fd(t, static_cast<int>(req.arg(0)));
      if (!epd) {
        return -kEBADF;
      }
      auto* ep = dynamic_cast<EpollFile*>(epd->file());
      if (ep == nullptr) {
        return -kEINVAL;
      }
      int op = static_cast<int>(req.arg(1));
      int fd = static_cast<int>(req.arg(2));
      GuestEpollEvent ev;
      if (op != kEpollCtlDel && CopyIn(p, &ev, req.arg(3), sizeof(ev)) != 0) {
        return -kEFAULT;
      }
      auto target = Fd(t, fd);
      if (op != kEpollCtlDel && !target) {
        return -kEBADF;
      }
      return ep->Ctl(op, fd, target ? target->file_ref() : nullptr, ev.events, ev.data);
    }
    case Sys::kTimerfdCreate:
      return InstallFile(t, std::make_shared<TimerFdFile>(sim_), kO_RDWR);
    case Sys::kTimerfdSettime: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* tf = dynamic_cast<TimerFdFile*>(desc->file());
      if (tf == nullptr) {
        return -kEINVAL;
      }
      GuestItimerspec its;
      if (CopyIn(p, &its, req.arg(2), sizeof(its)) != 0) {
        return -kEFAULT;
      }
      DurationNs value = GuestDurationNs(its.it_value);
      DurationNs interval = GuestDurationNs(its.it_interval);
      if (value < 0 || interval < 0) {
        return -kEINVAL;
      }
      tf->Settime(value, interval);
      return 0;
    }
    case Sys::kTimerfdGettime: {
      auto desc = Fd(t, static_cast<int>(req.arg(0)));
      if (!desc) {
        return -kEBADF;
      }
      auto* tf = dynamic_cast<TimerFdFile*>(desc->file());
      if (tf == nullptr) {
        return -kEINVAL;
      }
      GuestItimerspec its;
      DurationNs rem = tf->Remaining();
      its.it_value = GuestTimespec{rem / kSecond, rem % kSecond};
      its.it_interval = GuestTimespec{tf->interval() / kSecond, tf->interval() % kSecond};
      return CopyOut(p, req.arg(1), &its, sizeof(its));
    }
    case Sys::kEventfd:
    case Sys::kEventfd2:
      return InstallFile(t, std::make_shared<EventFdFile>(req.arg(0)), kO_RDWR);

    // --- Memory management ---------------------------------------------------------
    case Sys::kMmap: {
      GuestAddr addr = req.arg(0);
      uint64_t len = req.arg(1);
      if (len == 0) {
        return -kEINVAL;
      }
      uint32_t prot = static_cast<uint32_t>(req.arg(2));
      int flags = static_cast<int>(req.arg(3));
      bool shared = (flags & kMapShared) != 0;
      if ((flags & kMapFixed) != 0) {
        if (addr % kPageSize != 0) {
          return -kEINVAL;
        }
        // As on Linux, the new mapping replaces whatever it overlaps: the overlap
        // is unmapped first, exactly as munmap would.
        if (!AddressSpace::InUserRange(addr, len)) {
          return -kENOMEM;
        }
        mem.Unmap(addr, len);
        if (!mem.MapFixed(addr, len, prot, shared, "anon-fixed")) {
          return -kENOMEM;
        }
        return static_cast<int64_t>(addr);
      }
      GuestAddr hint = addr != 0 ? addr : p->layout.mmap_hint;
      GuestAddr where = mem.FindFreeRange(hint, len);
      if (where == 0) {
        return -kENOMEM;
      }
      if (!mem.MapFixed(where, len, prot, shared, "anon")) {
        return -kENOMEM;
      }
      return static_cast<int64_t>(where);
    }
    // As on Linux, a start address inside a page is EINVAL, not rounded down, and
    // so is a range running past the end of user space.
    case Sys::kMunmap:
      if (req.arg(0) % kPageSize != 0 || req.arg(1) == 0 ||
          !AddressSpace::EndsInUserSpace(req.arg(0), req.arg(1))) {
        return -kEINVAL;
      }
      mem.Unmap(req.arg(0), req.arg(1));
      return 0;
    // MADV_DONTNEED frees a private mapping's frames, so its pages read as zeroes
    // again; a MAP_SHARED or SysV mapping keeps its bytes, as on Linux. Any other
    // advice is a no-op.
    case Sys::kMadvise: {
      GuestAddr start = req.arg(0);
      uint64_t len = PageAlignUp(req.arg(1));
      if (start % kPageSize != 0 || len < req.arg(1) || start + len < start) {
        return -kEINVAL;
      }
      if (static_cast<int>(req.arg(2)) != kMadvDontneed) {
        return 0;
      }
      mem.Discard(start, len, /*shared=*/false, [this](Page& frame) {
        // A futex waiter is keyed on its frame: the frame stays, zeroed in place.
        if (!futex_.Watches(&frame)) {
          return false;
        }
        frame.bytes.fill(0);
        return true;
      });
      // As on Linux, the mapped parts are discarded even when a gap gives ENOMEM.
      return mem.Covers(start, len, kProtNone) ? 0 : -kENOMEM;
    }
    case Sys::kMprotect:
      if (req.arg(0) % kPageSize != 0) {
        return -kEINVAL;
      }
      return mem.Protect(req.arg(0), req.arg(1), static_cast<uint32_t>(req.arg(2))) ? 0
                                                                                    : -kENOMEM;
    case Sys::kMremap: {
      // A new length of 0, one whose page rounding wraps, or one ending past user
      // space is -EINVAL before anything is unmapped.
      if (req.arg(0) % kPageSize != 0 || req.arg(2) == 0 ||
          !AddressSpace::EndsInUserSpace(req.arg(0), req.arg(2))) {
        return -kEINVAL;
      }
      GuestAddr na = mem.Remap(req.arg(0), req.arg(1), req.arg(2));
      return na == 0 ? -kENOMEM : static_cast<int64_t>(na);
    }
    case Sys::kBrk: {
      GuestAddr want = req.arg(0);
      if (want >= p->brk_start && want < p->layout.heap_base + kHeapRegionSize) {
        p->brk_cur = want;
      }
      return static_cast<int64_t>(p->brk_cur);
    }
    case Sys::kShmget:
      return shm_->Get(static_cast<int>(req.arg(0)), req.arg(1),
                       (req.arg(2) & kIpcCreat) != 0, p->pid(), p->machine());
    case Sys::kShmat: {
      ShmSegment* seg = shm_->Find(static_cast<int>(req.arg(0)));
      if (seg == nullptr) {
        return -kEINVAL;
      }
      if (seg->machine != p->machine()) {
        // SysV IPC does not cross hosts: a replica on another machine attaches a
        // machine-local mirror of the segment, and the RB transport replays the
        // leader's publications into it (GHUMVEE injected the leader's shmid, so
        // the id is the same in every replica; only the backing frames differ).
        seg = shm_->Find(shm_->MirrorFor(seg->id, p->machine()));
        if (seg == nullptr) {
          return -kEINVAL;
        }
      }
      GuestAddr hint = req.arg(1) != 0 ? req.arg(1) : p->layout.mmap_hint;
      GuestAddr where = mem.FindFreeRange(hint, seg->size);
      if (where == 0) {
        return -kENOMEM;
      }
      if (!mem.MapShared(where, seg->size, kProtRead | kProtWrite, "sysv-shm", seg->frames,
                         /*first_page=*/0)) {
        return -kENOMEM;
      }
      shm_->OnAttach(seg->id);
      p->shm_attachments[where] = seg->id;
      return static_cast<int64_t>(where);
    }
    case Sys::kShmdt: {
      auto it = p->shm_attachments.find(req.arg(0));
      if (it == p->shm_attachments.end()) {
        return -kEINVAL;
      }
      ShmSegment* seg = shm_->Find(it->second);
      if (seg != nullptr) {
        mem.Unmap(it->first, seg->size);
      }
      shm_->OnDetach(it->second);
      p->shm_attachments.erase(it);
      return 0;
    }
    case Sys::kShmctl:
      if (req.arg(1) == kIpcRmid) {
        return shm_->Remove(static_cast<int>(req.arg(0)));
      }
      return 0;

    // --- Process information -----------------------------------------------------
    case Sys::kGetpid:
      return p->pid();
    case Sys::kGettid:
      return t->tid();
    case Sys::kGetppid:
      return 1;
    case Sys::kGetpgrp:
      return p->pid();
    case Sys::kGetuid:
    case Sys::kGeteuid:
      return 1000;
    case Sys::kGetgid:
    case Sys::kGetegid:
      return 1000;
    case Sys::kGetcwd: {
      uint64_t n = std::min<uint64_t>(req.arg(1), p->cwd.size() + 1);
      if (CopyOut(p, req.arg(0), p->cwd.c_str(), n) != 0) {
        return -kEFAULT;
      }
      return static_cast<int64_t>(n);
    }
    case Sys::kGetpriority:
      return 20;  // Linux getpriority bias.
    case Sys::kSetpriority:
      return 0;
    case Sys::kGetrusage: {
      GuestRusage ru;
      DurationNs cpu = p->TotalCpuNs();
      ru.ru_utime = GuestTimeval{cpu / kSecond, (cpu % kSecond) / 1000};
      // The high-water mark of this process's private frames: an unmap never
      // lowers it, as on Linux. A shared table (a SysV segment such as the RB, the
      // file map) is not charged to any attacher: segments count once, in
      // ShmRegistry::resident_pages().
      ru.ru_maxrss = static_cast<int64_t>(p->mem().peak_mapped_bytes() / 1024);
      return CopyOut(p, req.arg(1), &ru, sizeof(ru));
    }
    case Sys::kTimes: {
      if (req.arg(0) != 0) {
        int64_t tms[4] = {p->TotalCpuNs() / 10'000'000, 0, 0, 0};  // 100 Hz ticks.
        if (CopyOut(p, req.arg(0), tms, sizeof(tms)) != 0) {
          return -kEFAULT;
        }
      }
      return sim_->now() / 10'000'000;
    }
    case Sys::kCapget:
      return 0;
    case Sys::kSysinfo: {
      GuestSysinfo si;
      si.uptime = sim_->now() / kSecond;
      si.totalram = 64ULL * 1024 * 1024 * 1024;
      si.freeram = si.totalram / 2;
      si.procs = static_cast<uint16_t>(processes_.size());
      return CopyOut(p, req.arg(0), &si, sizeof(si));
    }
    case Sys::kUname: {
      GuestUtsname u;
      std::snprintf(u.sysname, sizeof(u.sysname), "Linux");
      std::snprintf(u.nodename, sizeof(u.nodename), "remon-sim");
      std::snprintf(u.release, sizeof(u.release), "3.13.11-remon");
      std::snprintf(u.version, sizeof(u.version), "#1 SMP");
      std::snprintf(u.machine, sizeof(u.machine), "x86_64");
      return CopyOut(p, req.arg(0), &u, sizeof(u));
    }
    case Sys::kSchedYield:
      return 0;

    // --- Time --------------------------------------------------------------------
    case Sys::kGettimeofday: {
      GuestTimeval tv{sim_->now() / kSecond, (sim_->now() % kSecond) / 1000};
      return CopyOut(p, req.arg(0), &tv, sizeof(tv));
    }
    case Sys::kClockGettime: {
      GuestTimespec ts{sim_->now() / kSecond, sim_->now() % kSecond};
      return CopyOut(p, req.arg(1), &ts, sizeof(ts));
    }
    case Sys::kTime: {
      int64_t secs = sim_->now() / kSecond;
      if (req.arg(0) != 0) {
        CopyOut(p, req.arg(0), &secs, 8);
      }
      return secs;
    }
    case Sys::kGetitimer: {
      GuestItimerspec its{};
      its.it_interval = GuestTimespec{p->itimer_interval / kSecond, p->itimer_interval % kSecond};
      return CopyOut(p, req.arg(1), &its, sizeof(its));
    }
    case Sys::kSetitimer: {
      GuestItimerspec its;
      if (CopyIn(p, &its, req.arg(1), sizeof(its)) != 0) {
        return -kEFAULT;
      }
      DurationNs value = GuestDurationNs(its.it_value);
      DurationNs interval = GuestDurationNs(its.it_interval);
      if (value < 0 || interval < 0) {
        return -kEINVAL;
      }
      ArmItimer(p, value, interval);
      return 0;
    }
    case Sys::kAlarm:
      ArmItimer(p, static_cast<DurationNs>(static_cast<uint32_t>(req.arg(0))) * kSecond, 0);
      return 0;

    // --- Signals ----------------------------------------------------------------
    case Sys::kRtSigaction: {
      int sig = static_cast<int>(req.arg(0));
      if (sig < 1 || sig >= kNumSignals || sig == kSIGKILL) {
        return -kEINVAL;
      }
      uint64_t cookie = req.arg(1);
      if (cookie >= 2 && cookie - 2 >= p->handler_fns.size()) {
        return -kEINVAL;
      }
      p->sigactions[static_cast<size_t>(sig)].handler = cookie;
      return 0;
    }
    case Sys::kRtSigprocmask: {
      int how = static_cast<int>(req.arg(0));
      uint64_t mask = req.arg(1);
      uint64_t old = t->sig_blocked;
      switch (how) {
        case 0: t->sig_blocked |= mask; break;       // SIG_BLOCK
        case 1: t->sig_blocked &= ~mask; break;      // SIG_UNBLOCK
        case 2: t->sig_blocked = mask; break;        // SIG_SETMASK
        default: return -kEINVAL;
      }
      return static_cast<int64_t>(old & 0x7fffffffffffffffULL);
    }
    case Sys::kRtSigreturn:
    case Sys::kSigaltstack:
      return 0;
    case Sys::kKill: {
      for (auto& proc : processes_) {
        if (proc->pid() == static_cast<int>(req.arg(0))) {
          PostSignal(proc.get(), static_cast<int>(req.arg(1)));
          return 0;
        }
      }
      return -kESRCH;
    }
    case Sys::kTgkill: {
      // Like Linux: the tid must name a live thread of thread group `tgid`; an
      // exited (or reaped) thread, or one of another group, is ESRCH.
      // Signal 0 only probes for the thread.
      int tgid = static_cast<int>(req.arg(0));
      int tid = static_cast<int>(req.arg(1));
      int sig = static_cast<int>(req.arg(2));
      if (tgid <= 0 || tid <= 0 || sig < 0 || sig >= kNumSignals) {
        return -kEINVAL;
      }
      for (auto& proc : processes_) {
        if (proc->pid() != tgid) {
          continue;
        }
        for (Thread* th : proc->threads) {
          if (th->tid() == tid && th->alive()) {
            if (sig != 0) {
              PostSignalToThread(th, sig);
            }
            return 0;
          }
        }
      }
      return -kESRCH;
    }

    // --- Process / thread lifecycle ------------------------------------------------
    case Sys::kClone: {
      auto it = p->thread_fns.find(req.arg(0));
      if (it == p->thread_fns.end()) {
        return -kEINVAL;  // Never registered, or already cloned.
      }
      ProgramFn fn = std::move(it->second);
      p->thread_fns.erase(it);
      return SpawnThread(p, std::move(fn))->tid();
    }
    case Sys::kFork:
    case Sys::kExecve:
      // See DESIGN.md: replicated workloads are thread-based; fork/exec semantics are
      // intentionally unsupported in the simulated kernel.
      return -kENOSYS;
    case Sys::kWait4:
      return -kECHILD;
    case Sys::kExit: {
      KillThread(t, true);
      Process* proc = t->process();
      if (!proc->exited && LiveThreadCount(proc) == 0) {
        TerminateProcess(proc, static_cast<int>(req.arg(0)));
      }
      return 0;  // Unreachable by the dead thread; kept for the Done contract.
    }
    case Sys::kExitGroup:
      TerminateProcess(p, static_cast<int>(req.arg(0)));
      return 0;

    // --- Misc ----------------------------------------------------------------------
    case Sys::kGetrandom: {
      uint64_t n = std::min<uint64_t>(req.arg(1), 4096);
      std::vector<uint8_t> buf(n);
      for (uint64_t i = 0; i < n; ++i) {
        buf[i] = static_cast<uint8_t>(sim_->rng().Next64());
      }
      if (CopyOut(p, req.arg(0), buf.data(), n) != 0) {
        return -kEFAULT;
      }
      return static_cast<int64_t>(n);
    }

    // --- MVEE-internal ---------------------------------------------------------------
    case Sys::kRemonIpmonRegister: {
      // args: (mask_addr, rb_addr, entry_cookie). The call is always monitored, so
      // GHUMVEE has already arbitrated by the time it executes here.
      std::vector<uint8_t> mask(kNumSyscalls);
      if (CopyIn(p, mask.data(), req.arg(0), mask.size()) != 0) {
        return -kEFAULT;
      }
      if (p->mem().FindVma(req.arg(1)) == nullptr) {
        return -kEFAULT;
      }
      p->ipmon.registered = true;
      p->ipmon.unmonitored.assign(kNumSyscalls, false);
      for (uint32_t i = 0; i < kNumSyscalls; ++i) {
        p->ipmon.unmonitored[i] = mask[i] != 0;
      }
      p->ipmon.rb_addr = req.arg(1);
      p->ipmon.entry_cookie = req.arg(2);
      return 0;
    }
    case Sys::kRemonRbFlush:
    case Sys::kRemonSyncRegister:
      // Semantics provided by GHUMVEE, which monitors these calls.
      return 0;

    default:
      return -kENOSYS;
  }
}

}  // namespace remon
