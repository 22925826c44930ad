// File abstraction, file descriptions, and per-process FD tables.
//
// FdType doubles as the one-byte metadata of ReMon's *IP-MON file map* (paper §3.6):
// GHUMVEE, which arbitrates every FD-creating call, publishes each FD's type and
// non-blocking status into a page-sized read-only map; IP-MON consults it to apply
// conditional relaxation policies ("read on a socket?") and to predict whether an
// unmonitored call may block.

#ifndef SRC_VFS_FILE_H_
#define SRC_VFS_FILE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/kernel/abi.h"
#include "src/kernel/errno.h"
#include "src/vfs/wait_queue.h"

namespace remon {

enum class FdType : uint8_t {
  kFree = 0,
  kRegular = 1,
  kDirectory = 2,
  kPipe = 3,
  kSocket = 4,
  kEpoll = 5,
  kTimer = 6,
  kEvent = 7,
  kSpecial = 8,  // /dev/urandom, /proc files, ...
};

class File {
 public:
  virtual ~File() = default;

  virtual FdType type() const = 0;

  // Non-blocking attempt to read at `offset` (stream files ignore it). Returns bytes
  // read (0 == EOF), or -errno; -EAGAIN when the call would block.
  virtual int64_t Read(void* buf, uint64_t len, uint64_t offset) { return -kEINVAL; }

  // The most bytes a Read at `offset` could return now: what lies before EOF, or
  // what a stream holds buffered. The kernel sizes its host copy buffer by this,
  // never by the guest's length alone. Files that cannot be read report 0.
  virtual uint64_t ReadableBytes(uint64_t offset) const { return 0; }

  // Non-blocking attempt to write. Returns bytes written or -errno (-EAGAIN: full).
  virtual int64_t Write(const void* buf, uint64_t len, uint64_t offset) { return -kEINVAL; }

  // Current readiness mask (kPollIn/kPollOut/...).
  virtual uint32_t Poll() const { return 0; }

  // Byte size for lseek/stat; -1 when not seekable.
  virtual int64_t Size() const { return -1; }

  virtual int64_t Ioctl(uint64_t cmd, uint64_t arg) { return -kENOTTY; }

  // Called when a file *description* referring to this file is destroyed.
  virtual void OnDescriptionClosed(int acc_mode) {}

  // Objects whose state changes asynchronously call Wake() here; blocked threads and
  // epoll instances subscribe.
  WaitQueue& poll_queue() { return poll_queue_; }
  const WaitQueue& poll_queue() const { return poll_queue_; }
  void NotifyPoll() { poll_queue_.Wake(); }

 private:
  WaitQueue poll_queue_;
};

// An open file description (Linux OFD): sharable via dup/fork, owns offset and status
// flags.
class FileDescription {
 public:
  FileDescription(std::shared_ptr<File> file, int status_flags)
      : file_(std::move(file)), status_flags_(status_flags) {}
  ~FileDescription() {
    if (file_) {
      file_->OnDescriptionClosed(status_flags_ & kO_RDWR ? kO_RDWR : (status_flags_ & 0x3));
    }
  }
  FileDescription(const FileDescription&) = delete;
  FileDescription& operator=(const FileDescription&) = delete;

  File* file() const { return file_.get(); }
  const std::shared_ptr<File>& file_ref() const { return file_; }

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t o) { offset_ = o; }

  int status_flags() const { return status_flags_; }
  void set_status_flags(int f) { status_flags_ = f; }
  bool nonblocking() const { return (status_flags_ & kO_NONBLOCK) != 0; }
  // The access mode the description was opened with (Linux FMODE_READ/WRITE).
  bool readable() const {
    int mode = status_flags_ & kO_ACCMODE;
    return mode == kO_RDONLY || mode == kO_RDWR;
  }
  bool writable() const {
    int mode = status_flags_ & kO_ACCMODE;
    return mode == kO_WRONLY || mode == kO_RDWR;
  }

 private:
  std::shared_ptr<File> file_;
  uint64_t offset_ = 0;
  int status_flags_ = 0;
};

// Per-process descriptor table. Storage grows to the highest fd installed and
// shrinks back when the top descriptors close; `max_fds` is only the limit.
class FdTable {
 public:
  explicit FdTable(int max_fds = 1024) : max_fds_(max_fds) {}

  // Installs a description at the lowest free slot >= min_fd. Returns fd or -EMFILE.
  int Install(std::shared_ptr<FileDescription> desc, int min_fd = 0) {
    size_t fd = static_cast<size_t>(min_fd);
    while (fd < slots_.size() && slots_[fd]) {
      ++fd;
    }
    if (fd >= static_cast<size_t>(max_fds_)) {
      return -kEMFILE;
    }
    return InstallAt(static_cast<int>(fd), std::move(desc));
  }

  // Installs at exactly `fd`, closing any existing description (dup2 semantics).
  int InstallAt(int fd, std::shared_ptr<FileDescription> desc) {
    if (fd < 0 || fd >= max_fds_) {
      return -kEBADF;
    }
    if (static_cast<size_t>(fd) >= slots_.size()) {
      slots_.resize(static_cast<size_t>(fd) + 1);
    }
    slots_[static_cast<size_t>(fd)] = std::move(desc);
    Trim();
    return fd;
  }

  std::shared_ptr<FileDescription> Get(int fd) const {
    if (fd < 0 || static_cast<size_t>(fd) >= slots_.size()) {
      return nullptr;
    }
    return slots_[static_cast<size_t>(fd)];
  }

  int Close(int fd) {
    if (fd < 0 || static_cast<size_t>(fd) >= slots_.size() || !slots_[static_cast<size_t>(fd)]) {
      return -kEBADF;
    }
    slots_[static_cast<size_t>(fd)] = nullptr;
    Trim();
    return 0;
  }

  int max_fds() const { return max_fds_; }
  // Slots held: the highest installed fd + 1 (0 when the table is empty).
  size_t storage_slots() const { return slots_.size(); }

  // Raises the table's limit (RLIMIT_NOFILE analog; never shrinks — fds above a
  // lower limit may already be open). High-connection-count shards pair this with
  // a multi-page FileMap so FD metadata keeps up.
  void RaiseMaxFds(int max_fds) { max_fds_ = std::max(max_fds_, max_fds); }

  // Snapshot of live fds (for file-map publishing and close-on-exit sweeps).
  std::vector<int> LiveFds() const {
    std::vector<int> out;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i]) {
        out.push_back(static_cast<int>(i));
      }
    }
    return out;
  }

 private:
  // Drops the free slots above the highest open fd.
  void Trim() {
    while (!slots_.empty() && !slots_.back()) {
      slots_.pop_back();
    }
  }

  int max_fds_;
  std::vector<std::shared_ptr<FileDescription>> slots_;
};

}  // namespace remon

#endif  // SRC_VFS_FILE_H_
