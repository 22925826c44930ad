// Futex wait queues.
//
// Keys are (physical frame, offset) pairs, so a futex word in shared memory — e.g.
// inside the IP-MON replication buffer, mapped at a *different* virtual address in
// every replica — correctly wakes waiters across processes. This is the substrate for
// IP-MON's per-invocation condition variables (paper §3.7) and for the record/replay
// agent's synchronization replication (§2.3).
//
// Queue lifetime: only a waiter creates a queue (QueueFor); a wake looks it up
// (Find, Wake) and does nothing for a word nobody ever waited on — like a
// FUTEX_WAKE with no waiter, which allocates nothing. A queue outlives its last
// waiter: callers hold WaitQueue pointers across wake loops
// (IpMon::FlushRbBatch) and Wake runs callbacks on its own queue, so erasing a
// queue the moment it empties would leave them dangling. Instead the owner of a
// range of futex words retires its queues when the words die: the RB reset round
// calls ReleaseIdle for the sub-buffer it scrubs, so the table holds at most the
// waited-on entry words of one lap.

#ifndef SRC_KERNEL_FUTEX_H_
#define SRC_KERNEL_FUTEX_H_

#include <cstdint>
#include <map>

#include "src/mem/page.h"
#include "src/vfs/wait_queue.h"

namespace remon {

class FutexTable {
 public:
  using Key = std::pair<const Page*, uint64_t>;

  // Returns the wait queue for a futex word, creating it: for waiters only.
  WaitQueue& QueueFor(const Page* frame, uint64_t offset) {
    return queues_[Key{frame, offset & ~uint64_t{3}}];
  }

  // The word's queue if some waiter ever created it, else null.
  WaitQueue* Find(const Page* frame, uint64_t offset) {
    auto it = queues_.find(Key{frame, offset & ~uint64_t{3}});
    return it == queues_.end() ? nullptr : &it->second;
  }

  // Wakes up to `n` waiters; returns the number woken.
  int Wake(const Page* frame, uint64_t offset, int n) {
    WaitQueue* q = Find(frame, offset);
    int woken = 0;
    while (q != nullptr && woken < n && q->has_waiters()) {
      q->WakeN(1);
      ++woken;
    }
    return woken;
  }

  // Drops the queues of the words at offsets [lo, hi) of `frame` that are idle
  // (no waiter, no observer, no Wake on the stack). Returns the number dropped.
  size_t ReleaseIdle(const Page* frame, uint64_t lo, uint64_t hi) {
    size_t dropped = 0;
    auto it = queues_.lower_bound(Key{frame, lo});
    while (it != queues_.end() && it->first.first == frame && it->first.second < hi) {
      if (it->second.idle()) {
        it = queues_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  size_t queue_count() const { return queues_.size(); }

 private:
  std::map<Key, WaitQueue> queues_;
};

}  // namespace remon

#endif  // SRC_KERNEL_FUTEX_H_
