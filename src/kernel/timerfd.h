// timerfd: timer expirations delivered through a file descriptor.

#ifndef SRC_KERNEL_TIMERFD_H_
#define SRC_KERNEL_TIMERFD_H_

#include <cstring>

#include "src/kernel/guest_time.h"
#include "src/sim/simulator.h"
#include "src/vfs/file.h"

namespace remon {

class TimerFdFile : public File {
 public:
  explicit TimerFdFile(Simulator* sim) : sim_(sim) {}
  ~TimerFdFile() override { Disarm(); }

  FdType type() const override { return FdType::kTimer; }

  int64_t Read(void* buf, uint64_t len, uint64_t offset) override {
    if (len < 8) {
      return -kEINVAL;
    }
    if (expirations_ == 0) {
      return -kEAGAIN;
    }
    std::memcpy(buf, &expirations_, 8);
    expirations_ = 0;
    return 8;
  }
  uint64_t ReadableBytes(uint64_t offset) const override { return 8; }

  uint32_t Poll() const override { return expirations_ > 0 ? kPollIn : 0; }

  // timerfd_settime: value/interval in nanoseconds; value 0 disarms. An expiry
  // past the end of virtual time (kTimeNever) stays armed but never fires.
  void Settime(DurationNs value, DurationNs interval) {
    Disarm();
    interval_ = interval;
    value_ = value;
    if (value > 0) {
      armed_at_ = sim_->now();
      Arm(value);
    }
  }

  // timerfd_gettime: remaining time until next expiration.
  DurationNs Remaining() const {
    if (value_ == kTimeNever) {
      return kTimeNever;
    }
    if (event_ == 0) {
      return 0;
    }
    DurationNs elapsed = sim_->now() - armed_at_;
    return elapsed >= value_ ? 0 : value_ - elapsed;
  }
  DurationNs interval() const { return interval_; }
  uint64_t expirations() const { return expirations_; }

 private:
  void Fire() {
    event_ = 0;
    ++expirations_;
    NotifyPoll();
    if (interval_ > 0) {
      armed_at_ = sim_->now();
      value_ = interval_;
      Arm(interval_);
    }
  }

  void Arm(DurationNs after) {
    TimeNs expiry = DeadlineAfter(sim_->now(), after);
    if (expiry != kTimeNever) {
      event_ = sim_->queue().ScheduleAt(expiry, [this] { Fire(); });
    }
  }

  void Disarm() {
    if (event_ != 0) {
      sim_->queue().Cancel(event_);
      event_ = 0;
    }
  }

  Simulator* sim_;
  uint64_t expirations_ = 0;
  DurationNs interval_ = 0;
  DurationNs value_ = 0;
  TimeNs armed_at_ = 0;
  EventQueue::EventId event_ = 0;
};

}  // namespace remon

#endif  // SRC_KERNEL_TIMERFD_H_
