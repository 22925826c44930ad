// Wake-callback queues.
//
// Blocking semantics in the simulated kernel are callback-based: a thread that must
// sleep registers a one-shot waiter on the object's WaitQueue; the object calls
// Wake() when its state changes (data arrived, space freed, peer closed). Persistent
// observers serve epoll-style edge notification fan-out.
//
// An owner that keeps a queue only while someone uses it (FutexTable) installs an
// idle hook: it runs the moment the queue goes idle — at the end of the outermost
// Wake/WakeN that woke its last waiter, or at the Remove that took it — as the
// queue's last action, so the hook may retire the queue. A wake that finds no
// waiter leaves the queue alone: a waiter may hold it between creating it and
// parking.

#ifndef SRC_VFS_WAIT_QUEUE_H_
#define SRC_VFS_WAIT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace remon {

class WaitQueue {
 public:
  using Callback = std::function<void()>;

  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // One-shot: removed before its callback runs.
  uint64_t AddWaiter(Callback cb) {
    uint64_t id = next_id_++;
    waiters_.emplace_back(id, std::move(cb));
    return id;
  }

  // Persistent: notified on every Wake until removed.
  uint64_t AddObserver(Callback cb) {
    uint64_t id = next_id_++;
    observers_.emplace_back(id, std::move(cb));
    return id;
  }

  using IdleHook = void (*)(void* owner, WaitQueue* q);
  void SetIdleHook(IdleHook hook, void* owner) {
    idle_hook_ = hook;
    idle_owner_ = owner;
  }

  void Remove(uint64_t id) {
    auto drop = [id](auto& vec) {
      for (size_t i = 0; i < vec.size(); ++i) {
        if (vec[i].first == id) {
          vec.erase(vec.begin() + static_cast<long>(i));
          return true;
        }
      }
      return false;
    };
    if (drop(waiters_) || drop(observers_)) {
      NotifyIfIdle();
    }
  }

  // Wakes all one-shot waiters (removing them first) and notifies all observers.
  void Wake() {
    ++wake_depth_;
    const bool woke = !waiters_.empty();
    if (woke) {
      if (scratch_.empty()) {
        // Ping-pong with the scratch buffer so neither vector's capacity is lost
        // to a swap-with-empty (the hot Wake path stays allocation-free). Scratch
        // is non-empty exactly while an outer Wake drains it.
        scratch_.swap(waiters_);
        for (auto& [id, cb] : scratch_) {
          cb();
        }
        scratch_.clear();
      } else {
        // Reentrant wake (a waiter re-armed and re-woke this queue): scratch is in
        // use above us, fall back to a local drain.
        std::vector<std::pair<uint64_t, Callback>> to_run;
        to_run.swap(waiters_);
        for (auto& [id, cb] : to_run) {
          cb();
        }
      }
    }
    if (!observers_.empty()) {
      // Observers may unsubscribe during notification; iterate over a snapshot
      // (cold: only epoll-style registrations populate observers_).
      std::vector<std::pair<uint64_t, Callback>> snapshot = observers_;
      for (auto& [id, cb] : snapshot) {
        bool still_registered = false;
        for (const auto& [oid, ocb] : observers_) {
          if (oid == id) {
            still_registered = true;
            break;
          }
        }
        if (still_registered) {
          cb();
        }
      }
    }
    --wake_depth_;
    if (woke) {
      NotifyIfIdle();
    }
  }

  // Wakes at most `n` one-shot waiters in FIFO order (observers are not notified).
  // Returns the number woken.
  int WakeN(int n) {
    ++wake_depth_;
    int woken = 0;
    while (woken < n && !waiters_.empty()) {
      auto [id, cb] = std::move(waiters_.front());
      waiters_.erase(waiters_.begin());
      cb();
      ++woken;
    }
    --wake_depth_;
    if (woken > 0) {
      NotifyIfIdle();  // Last: the hook may retire this queue.
    }
    return woken;
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  // No waiter, no observer and no Wake/WakeN on the stack: the hook may destroy
  // the queue without a callback or a caller's loop touching it afterwards.
  void NotifyIfIdle() {
    if (idle_hook_ != nullptr && waiters_.empty() && observers_.empty() &&
        wake_depth_ == 0) {
      idle_hook_(idle_owner_, this);
    }
  }

  uint64_t next_id_ = 1;
  std::vector<std::pair<uint64_t, Callback>> waiters_;
  std::vector<std::pair<uint64_t, Callback>> observers_;
  // Wake() drain buffer, ping-ponged with waiters_ to preserve both capacities.
  std::vector<std::pair<uint64_t, Callback>> scratch_;
  int wake_depth_ = 0;  // Wake/WakeN calls on the stack.
  IdleHook idle_hook_ = nullptr;
  void* idle_owner_ = nullptr;
};

}  // namespace remon

#endif  // SRC_VFS_WAIT_QUEUE_H_
