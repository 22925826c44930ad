// Guest time arguments: the timespec/timeval a guest hands to sleeping and timer
// system calls, turned into virtual-time durations and deadlines.
//
// Linux rejects a timespec whose tv_sec is negative or whose tv_nsec lies outside
// [0, 1e9) with EINVAL. A valid one longer than virtual time can represent
// saturates to kTimeNever ("never expires") instead of overflowing.

#ifndef SRC_KERNEL_GUEST_TIME_H_
#define SRC_KERNEL_GUEST_TIME_H_

#include <cstdint>

#include "src/kernel/abi.h"
#include "src/kernel/errno.h"
#include "src/sim/time.h"

namespace remon {

// The timespec's length in nanoseconds (kTimeNever when it does not fit), or
// -kEINVAL.
inline DurationNs GuestDurationNs(const GuestTimespec& ts) {
  if (ts.tv_sec < 0 || ts.tv_nsec < 0 || ts.tv_nsec >= kSecond) {
    return -kEINVAL;
  }
  if (ts.tv_sec > (kTimeNever - ts.tv_nsec) / kSecond) {
    return kTimeNever;
  }
  return ts.tv_sec * kSecond + ts.tv_nsec;
}

// The timeval form (select): tv_usec must lie in [0, 1e6).
inline DurationNs GuestDurationNs(const GuestTimeval& tv) {
  if (tv.tv_usec < 0 || tv.tv_usec >= kSecond / kMicrosecond) {
    return -kEINVAL;
  }
  return GuestDurationNs(GuestTimespec{tv.tv_sec, tv.tv_usec * kMicrosecond});
}

// `now + d` for d >= 0, saturating at kTimeNever.
inline TimeNs DeadlineAfter(TimeNs now, DurationNs d) {
  return d >= kTimeNever - now ? kTimeNever : now + d;
}

}  // namespace remon

#endif  // SRC_KERNEL_GUEST_TIME_H_
