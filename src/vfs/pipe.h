// Anonymous pipes.
//
// A Pipe is a bounded byte queue shared by a read-end and a write-end File. EOF and
// EPIPE semantics follow POSIX: readers see EOF once all write-end descriptions are
// closed; writers get -EPIPE once all read-end descriptions are closed.

#ifndef SRC_VFS_PIPE_H_
#define SRC_VFS_PIPE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "src/vfs/file.h"

namespace remon {

class PipeReadEnd;
class PipeWriteEnd;

class Pipe : public std::enable_shared_from_this<Pipe> {
 public:
  static constexpr uint64_t kDefaultCapacity = 64 * 1024;

  // Creates both ends. Each end starts with one open description.
  static std::pair<std::shared_ptr<PipeReadEnd>, std::shared_ptr<PipeWriteEnd>> Create(
      uint64_t capacity = kDefaultCapacity);

  uint64_t buffered() const { return buffer_.size(); }
  uint64_t capacity() const { return capacity_; }
  bool write_open() const { return writers_ > 0; }
  bool read_open() const { return readers_ > 0; }

 private:
  friend class PipeReadEnd;
  friend class PipeWriteEnd;

  explicit Pipe(uint64_t capacity) : capacity_(capacity) {}

  uint64_t capacity_;
  std::deque<uint8_t> buffer_;
  int readers_ = 0;
  int writers_ = 0;
  PipeReadEnd* read_end_ = nullptr;
  PipeWriteEnd* write_end_ = nullptr;
};

class PipeReadEnd : public File {
 public:
  explicit PipeReadEnd(std::shared_ptr<Pipe> pipe) : pipe_(std::move(pipe)) {}

  FdType type() const override { return FdType::kPipe; }
  int64_t Read(void* buf, uint64_t len, uint64_t offset) override;
  uint64_t ReadableBytes(uint64_t offset) const override;
  uint32_t Poll() const override;
  void OnDescriptionClosed(int acc_mode) override;

  Pipe* pipe() const { return pipe_.get(); }

 private:
  std::shared_ptr<Pipe> pipe_;
};

class PipeWriteEnd : public File {
 public:
  explicit PipeWriteEnd(std::shared_ptr<Pipe> pipe) : pipe_(std::move(pipe)) {}

  FdType type() const override { return FdType::kPipe; }
  int64_t Write(const void* buf, uint64_t len, uint64_t offset) override;
  uint32_t Poll() const override;
  void OnDescriptionClosed(int acc_mode) override;

  Pipe* pipe() const { return pipe_.get(); }

 private:
  std::shared_ptr<Pipe> pipe_;
};

}  // namespace remon

#endif  // SRC_VFS_PIPE_H_
