// Futex wait queues.
//
// Keys are (physical frame, offset) pairs, so a futex word in shared memory — e.g.
// inside the IP-MON replication buffer, mapped at a *different* virtual address in
// every replica — correctly wakes waiters across processes. This is the substrate for
// IP-MON's per-invocation condition variables (paper §3.7) and for the record/replay
// agent's synchronization replication (§2.3).
//
// Queue lifetime: a queue exists only while a thread is parked on it (or an
// observer is registered, or a Wake runs on it). Only a waiter creates one
// (QueueFor); a wake looks it up (Find, Wake) and does nothing for a word nobody
// waits on — like a FUTEX_WAKE with no waiter, which allocates nothing. The queue's
// idle hook retires it the moment it goes idle: at the end of the outermost
// Wake/WakeN that woke its last waiter, or at the Remove that took its last waiter
// without a wake (a timeout, a signal, a kill, or a multi-queue wait woken
// elsewhere). So nobody may hold a queue pointer across a wake: wake by key. A
// retired queue's node keeps its vectors' capacity and is reused by the next
// QueueFor, so a futex wait allocates no more than when queues lived longer.

#ifndef SRC_KERNEL_FUTEX_H_
#define SRC_KERNEL_FUTEX_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/mem/page.h"
#include "src/vfs/wait_queue.h"

namespace remon {

class FutexTable {
 public:
  using Key = std::pair<const Page*, uint64_t>;

  FutexTable() = default;
  FutexTable(const FutexTable&) = delete;
  FutexTable& operator=(const FutexTable&) = delete;

  // Returns the wait queue for a futex word, creating it: for a waiter about to
  // park on it. Until it parks the queue is idle, and only a wake that finds a
  // waiter or a Remove retires a queue, so the caller's reference stays valid.
  WaitQueue& QueueFor(const Page* frame, uint64_t offset) {
    Key key{frame, offset & ~uint64_t{3}};
    auto it = queues_.lower_bound(key);
    if (it != queues_.end() && it->first == key) {
      return it->second;
    }
    if (spare_.empty()) {
      it = queues_.try_emplace(it, key);
      it->second.SetIdleHook(&FutexTable::Retire, this);
    } else {
      Queues::node_type node = std::move(spare_.back());
      spare_.pop_back();
      node.key() = key;
      it = queues_.insert(it, std::move(node));
    }
    it->second.key = key;
    return it->second;
  }

  // The word's queue while someone waits on it, else null.
  WaitQueue* Find(const Page* frame, uint64_t offset) {
    auto it = queues_.find(Key{frame, offset & ~uint64_t{3}});
    return it == queues_.end() ? nullptr : &it->second;
  }

  // True while some queue is keyed on a word of `frame`: the frame may not be
  // freed, or the queue's key would name a dead frame.
  bool Watches(const Page* frame) const {
    auto it = queues_.lower_bound(Key{frame, 0});
    return it != queues_.end() && it->first.first == frame;
  }

  // Wakes up to `n` waiters; returns the number woken.
  int Wake(const Page* frame, uint64_t offset, int n) {
    WaitQueue* q = Find(frame, offset);
    return q == nullptr ? 0 : q->WakeN(n);
  }

  size_t queue_count() const { return queues_.size(); }

 private:
  // The map value: a queue that knows its own key, for the idle hook.
  struct Slot : WaitQueue {
    Key key;
  };
  using Queues = std::map<Key, Slot>;

  static void Retire(void* table, WaitQueue* q) {
    auto* self = static_cast<FutexTable*>(table);
    self->spare_.push_back(self->queues_.extract(static_cast<Slot*>(q)->key));
  }

  Queues queues_;
  // Retired nodes, reused by QueueFor: at most the peak number of queues ever
  // waited on at once.
  std::vector<Queues::node_type> spare_;
};

}  // namespace remon

#endif  // SRC_KERNEL_FUTEX_H_
