#include "src/vfs/pipe.h"

#include <algorithm>

namespace remon {

std::pair<std::shared_ptr<PipeReadEnd>, std::shared_ptr<PipeWriteEnd>> Pipe::Create(
    uint64_t capacity) {
  auto pipe = std::shared_ptr<Pipe>(new Pipe(capacity));
  auto rd = std::make_shared<PipeReadEnd>(pipe);
  auto wr = std::make_shared<PipeWriteEnd>(pipe);
  pipe->readers_ = 1;
  pipe->writers_ = 1;
  pipe->read_end_ = rd.get();
  pipe->write_end_ = wr.get();
  return {rd, wr};
}

int64_t PipeReadEnd::Read(void* buf, uint64_t len, uint64_t offset) {
  Pipe& p = *pipe_;
  if (p.buffer_.empty()) {
    if (!p.write_open()) {
      return 0;  // EOF.
    }
    return -kEAGAIN;
  }
  uint64_t n = std::min<uint64_t>(len, p.buffer_.size());
  uint8_t* dst = static_cast<uint8_t*>(buf);
  for (uint64_t i = 0; i < n; ++i) {
    dst[i] = p.buffer_.front();
    p.buffer_.pop_front();
  }
  // Space freed: wake writers.
  if (p.write_end_ != nullptr) {
    p.write_end_->NotifyPoll();
  }
  return static_cast<int64_t>(n);
}

uint64_t PipeReadEnd::ReadableBytes(uint64_t offset) const { return pipe_->buffer_.size(); }

uint32_t PipeReadEnd::Poll() const {
  uint32_t mask = 0;
  if (!pipe_->buffer_.empty()) {
    mask |= kPollIn;
  }
  if (!pipe_->write_open()) {
    mask |= kPollIn | kPollHup;  // EOF is readable.
  }
  return mask;
}

void PipeReadEnd::OnDescriptionClosed(int acc_mode) {
  if (--pipe_->readers_ == 0) {
    pipe_->read_end_ = nullptr;
    if (pipe_->write_end_ != nullptr) {
      pipe_->write_end_->NotifyPoll();  // Writers must now see EPIPE.
    }
  }
}

int64_t PipeWriteEnd::Write(const void* buf, uint64_t len, uint64_t offset) {
  Pipe& p = *pipe_;
  if (!p.read_open()) {
    return -kEPIPE;
  }
  uint64_t space = p.capacity_ - std::min<uint64_t>(p.capacity_, p.buffer_.size());
  if (space == 0) {
    return -kEAGAIN;
  }
  uint64_t n = std::min<uint64_t>(len, space);
  const uint8_t* src = static_cast<const uint8_t*>(buf);
  p.buffer_.insert(p.buffer_.end(), src, src + n);
  if (p.read_end_ != nullptr) {
    p.read_end_->NotifyPoll();
  }
  return static_cast<int64_t>(n);
}

uint32_t PipeWriteEnd::Poll() const {
  uint32_t mask = 0;
  if (!pipe_->read_open()) {
    return kPollErr | kPollOut;
  }
  if (pipe_->buffer_.size() < pipe_->capacity_) {
    mask |= kPollOut;
  }
  return mask;
}

void PipeWriteEnd::OnDescriptionClosed(int acc_mode) {
  if (--pipe_->writers_ == 0) {
    pipe_->write_end_ = nullptr;
    if (pipe_->read_end_ != nullptr) {
      pipe_->read_end_->NotifyPoll();  // Readers must now see EOF.
    }
  }
}

}  // namespace remon
