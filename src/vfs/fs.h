// In-memory filesystem: inodes, path resolution, regular-file/directory handles, and
// synthesized special files (/proc, /dev).
//
// The filesystem backs the non-socket file I/O of every workload and provides the
// /proc/<pid>/maps surface that GHUMVEE filters to hide IP-MON and the replication
// buffer from compromised replicas (paper §3.1).

#ifndef SRC_VFS_FS_H_
#define SRC_VFS_FS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/kernel/abi.h"
#include "src/mem/page.h"
#include "src/vfs/file.h"

namespace remon {

// Regular-file contents: size() bytes in the 4 KiB frames of a FrameTable, the page
// store System V segments use. A write materializes only the pages it touches, so
// a growing file never reallocates or copies what it already holds; a hole reads
// as zeroes and costs no frame. A resident frame's bytes past EOF are always zero,
// so growing the file again exposes zeroes.
class FileData {
 public:
  uint64_t size() const { return size_; }
  // Frames held; at most ceil(size() / kPageSize).
  uint64_t resident_pages() const { return frames_.resident(); }

  // Copies the bytes of [offset, offset + len) that lie before EOF into `out`;
  // returns how many.
  uint64_t Read(uint64_t offset, void* out, uint64_t len) const;
  // Stores `len` bytes at `offset`; the file grows to end at offset + len if it
  // ended before.
  void Write(uint64_t offset, const void* data, uint64_t len);
  // Sets the size. Shrinking releases every frame past the new end and zeroes the
  // tail of the last partial page; growing leaves a hole.
  void Truncate(uint64_t size);

 private:
  FrameTable frames_;
  uint64_t size_ = 0;
};

struct Inode {
  uint64_t ino = 0;
  FdType type = FdType::kRegular;
  FileData data;                                           // Regular file contents.
  std::map<std::string, std::shared_ptr<Inode>> children;  // Directory entries.
  std::string symlink_target;
  std::map<std::string, std::string> xattrs;
  int64_t mtime_ns = 0;
  // Generator for special (proc-style) files; invoked at open() to snapshot content.
  std::function<std::string()> generator;
  int nlink = 1;
};

class Filesystem {
 public:
  // The largest regular file (Linux's s_maxbytes): a write that starts at or past
  // it, or a truncate beyond it, fails with EFBIG.
  static constexpr uint64_t kMaxFileBytes = uint64_t{4} << 30;

  Filesystem();

  // --- Tree manipulation ---------------------------------------------------------

  // Resolves `path` relative to `cwd`; follows symlinks (depth-capped). Returns
  // nullptr when any component is missing.
  std::shared_ptr<Inode> Resolve(std::string_view path, std::string_view cwd = "/",
                                 bool follow_final_symlink = true) const;

  // Creates a regular file (and returns it); fails if the parent is missing.
  std::shared_ptr<Inode> CreateFile(std::string_view path, std::string_view cwd = "/");
  int Mkdir(std::string_view path, std::string_view cwd = "/");
  int Symlink(std::string_view target, std::string_view linkpath, std::string_view cwd = "/");
  int Unlink(std::string_view path, std::string_view cwd = "/");
  int Rmdir(std::string_view path, std::string_view cwd = "/");
  int Rename(std::string_view from, std::string_view to, std::string_view cwd = "/");

  // Registers a synthesized file whose content is produced by `gen` at open time.
  void RegisterSpecial(std::string_view path, std::function<std::string()> gen);

  // Convenience for tests/workloads: writes whole-file contents, creating the file.
  bool WriteWholeFile(std::string_view path, std::string_view contents);
  std::optional<std::string> ReadWholeFile(std::string_view path) const;

  // Pre-populates a subtree with `count` files of `size` bytes each (benchmark
  // corpora, e.g. the unpack-linux analog).
  void Populate(std::string_view dir, int count, uint64_t size, uint64_t seed);

  std::shared_ptr<Inode> root() const { return root_; }

  // Splits into (parent inode, final component). Returns nullptr parent on failure.
  std::pair<std::shared_ptr<Inode>, std::string> ResolveParent(std::string_view path,
                                                               std::string_view cwd) const;

 private:
  uint64_t next_ino_ = 2;
  std::shared_ptr<Inode> root_;
};

// Handle for regular files.
class RegularHandle : public File {
 public:
  RegularHandle(std::shared_ptr<Inode> inode, Filesystem* fs) : inode_(std::move(inode)) {}

  FdType type() const override { return FdType::kRegular; }
  int64_t Read(void* buf, uint64_t len, uint64_t offset) override;
  int64_t Write(const void* buf, uint64_t len, uint64_t offset) override;
  uint32_t Poll() const override { return kPollIn | kPollOut; }
  int64_t Size() const override { return static_cast<int64_t>(inode_->data.size()); }
  uint64_t ReadableBytes(uint64_t offset) const override {
    return offset < inode_->data.size() ? inode_->data.size() - offset : 0;
  }

  Inode* inode() const { return inode_.get(); }

 private:
  std::shared_ptr<Inode> inode_;
};

// Handle for directories (getdents).
class DirHandle : public File {
 public:
  explicit DirHandle(std::shared_ptr<Inode> inode) : inode_(std::move(inode)) {}

  FdType type() const override { return FdType::kDirectory; }
  uint32_t Poll() const override { return kPollIn; }
  int64_t Size() const override { return 0; }
  Inode* inode() const { return inode_.get(); }

  // Fills `out` with up to `max` entries starting at cursor `offset`; returns the
  // number filled and advances *offset.
  int FillDirents(GuestDirent* out, int max, uint64_t* offset) const;

 private:
  std::shared_ptr<Inode> inode_;
};

// Handle for special (generator-backed) files; content snapshotted at open.
class SpecialHandle : public File {
 public:
  SpecialHandle(std::string content, std::shared_ptr<Inode> inode)
      : content_(std::move(content)), inode_(std::move(inode)) {}

  FdType type() const override { return FdType::kSpecial; }
  int64_t Read(void* buf, uint64_t len, uint64_t offset) override;
  uint32_t Poll() const override { return kPollIn; }
  int64_t Size() const override { return static_cast<int64_t>(content_.size()); }
  uint64_t ReadableBytes(uint64_t offset) const override {
    return offset < content_.size() ? content_.size() - offset : 0;
  }

  // GHUMVEE rewrites the snapshot of /proc/<pid>/maps before the replica reads it.
  std::string& mutable_content() { return content_; }
  Inode* inode() const { return inode_.get(); }

 private:
  std::string content_;
  std::shared_ptr<Inode> inode_;
};

// /dev/urandom-style stream; deterministic per-simulation.
class UrandomHandle : public File {
 public:
  explicit UrandomHandle(uint64_t seed) : state_(seed) {}

  FdType type() const override { return FdType::kSpecial; }
  int64_t Read(void* buf, uint64_t len, uint64_t offset) override;
  uint32_t Poll() const override { return kPollIn; }
  // The stream never runs dry; one read returns at most INT_MAX >> 6 bytes, as on
  // Linux before 5.18.
  uint64_t ReadableBytes(uint64_t offset) const override { return 0x7fffffffu >> 6; }

 private:
  uint64_t state_;
};

}  // namespace remon

#endif  // SRC_VFS_FS_H_
