// eventfd: a 64-bit counter usable as a wakeup channel.

#ifndef SRC_VFS_EVENTFD_H_
#define SRC_VFS_EVENTFD_H_

#include <cstdint>
#include <cstring>

#include "src/vfs/file.h"

namespace remon {

class EventFdFile : public File {
 public:
  explicit EventFdFile(uint64_t initial) : counter_(initial) {}

  FdType type() const override { return FdType::kEvent; }

  int64_t Read(void* buf, uint64_t len, uint64_t offset) override {
    if (len < 8) {
      return -kEINVAL;
    }
    if (counter_ == 0) {
      return -kEAGAIN;
    }
    std::memcpy(buf, &counter_, 8);
    counter_ = 0;
    NotifyPoll();
    return 8;
  }
  uint64_t ReadableBytes(uint64_t offset) const override { return 8; }

  int64_t Write(const void* buf, uint64_t len, uint64_t offset) override {
    if (len < 8) {
      return -kEINVAL;
    }
    uint64_t add = 0;
    std::memcpy(&add, buf, 8);
    if (counter_ + add < counter_) {
      return -kEAGAIN;  // Overflow.
    }
    counter_ += add;
    NotifyPoll();
    return 8;
  }

  uint32_t Poll() const override {
    uint32_t mask = kPollOut;
    if (counter_ > 0) {
      mask |= kPollIn;
    }
    return mask;
  }

  uint64_t counter() const { return counter_; }

 private:
  uint64_t counter_;
};

}  // namespace remon

#endif  // SRC_VFS_EVENTFD_H_
