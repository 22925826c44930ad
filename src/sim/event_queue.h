// Discrete-event core: a virtual clock plus a time-ordered callback queue.
//
// The Simulator owns one EventQueue. Everything that "happens later" in the simulated
// world — a compute burst finishing, a packet arriving, a futex timeout — is an event.
// Ties are broken by insertion order so runs are deterministic.
//
// Steady-state operation is allocation-free (see docs/ARCHITECTURE.md, "Coroutine
// runtime & scheduler fast path"):
//  * callbacks are InlineFunction (inline storage, no heap fallback), held in pooled
//    nodes recycled through a free list; the time heap orders lightweight
//    {when, seq, node*} entries so heap sifts never move a callback;
//  * zero-delay events (the resume bounces behind every syscall) go to an intrusive
//    FIFO *ready lane* instead of the heap. The lane is drained in (when, seq) merge
//    order against the heap top, which reproduces the heap's FIFO-among-same-time
//    tie-break exactly — lane entries are appended with when == now() and seq is
//    globally monotonic, so the lane is always (when, seq)-sorted and time cannot
//    advance past a pending lane entry;
//  * cancellation is lazy via an open-addressed flat id set (O(1) per Cancel/pop,
//    no per-node lookup structure). A cancelled entry normally waits in the heap
//    until its deadline — a 2 s watchdog cancelled after 10 us would hold its node
//    for 2 s — so once cancelled entries outnumber the live ones (and a floor),
//    the heap and lane are rebuilt without them and their nodes recycled. Each
//    rebuild costs O(live + cancelled) < 2 x the cancellations it reclaims, so it
//    is amortized O(1) per Cancel; the live set still pops in (when, seq) order.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/inline_fn.h"
#include "src/sim/time.h"

namespace remon {

// Open-addressed flat hash set of EventIds (linear probing, backward-shift
// deletion). Ids start at 1, so 0 doubles as the empty-slot sentinel. Reaches a
// steady state with no allocation once grown to the run's working set.
class EventIdSet {
 public:
  bool Insert(uint64_t id);   // False if already present.
  bool Erase(uint64_t id);    // False if absent.
  bool Contains(uint64_t id) const;
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear() { *this = EventIdSet(); }

 private:
  void Grow();
  std::vector<uint64_t> slots_;  // Power-of-two capacity; 0 = empty.
  uint64_t size_ = 0;
};

class EventQueue {
 public:
  // Inline capacity sized for the fattest hot callback (PtraceResume's
  // continuation: thread + resume closure). Oversized closures fail to compile;
  // box cold-path state instead of raising this casually — every queued node
  // carries the full capacity.
  using Callback = InlineFunction<void(), 152>;

  // Opaque handle that can be used to cancel a scheduled event.
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  TimeNs now() const { return now_; }

  // Schedules `cb` to run at absolute virtual time `when` (>= now).
  EventId ScheduleAt(TimeNs when, Callback cb);

  // Schedules `cb` to run `delay` nanoseconds from now.
  EventId ScheduleAfter(DurationNs delay, Callback cb) {
    REMON_CHECK(delay >= 0);
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  // Cancels a previously scheduled event. Returns false if it already ran or was
  // already cancelled.
  bool Cancel(EventId id);

  // Runs the next event, advancing the clock. Returns false if the queue is empty.
  bool RunOne();

  // Runs events until the queue drains or `deadline` would be passed.
  // Returns the number of events executed.
  uint64_t RunUntil(TimeNs deadline);

  // Runs events until the queue drains. Returns the number of events executed.
  uint64_t RunAll() { return RunUntil(kTimeNever); }

  bool empty() const { return live_events_ == 0; }
  uint64_t live_events() const { return live_events_; }
  uint64_t executed_count() const { return executed_count_; }

  // Determinism escape hatch for tests: with the lane disabled, events scheduled
  // at `now` take the heap path (the pre-lane code shape). Ordering must be
  // identical either way — tests/property_test.cc asserts exactly that.
  void set_ready_lane_enabled(bool on) { lane_enabled_ = on; }

  // Introspection for benches/tests.
  uint64_t lane_scheduled() const { return lane_scheduled_; }
  uint64_t heap_scheduled() const { return heap_scheduled_; }
  uint64_t node_chunks_allocated() const { return node_chunks_; }
  // Cancelled events whose nodes are still queued (reclaimed at their pop or at
  // the next compaction). Bounded by max(live events, kCompactFloor).
  uint64_t cancelled_pending() const { return cancelled_.size(); }
  uint64_t compactions() const { return compactions_; }

  // Below this many cancelled entries the queue never compacts: small queues
  // reclaim them at pop time for free.
  static constexpr uint64_t kCompactFloor = 64;

 private:
  // One scheduled callback. Pooled: popped/cancelled nodes return to free_nodes_.
  // `next` chains the ready lane (live) or the free list (recycled).
  struct Node {
    Callback cb;
    EventId id = 0;
    Node* next = nullptr;
  };
  struct HeapEntry {
    TimeNs when;
    uint64_t seq;  // Tie-break: FIFO among same-time events (== the node's id).
    Node* node;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  Node* AcquireNode();
  void RecycleNode(Node* n);
  // Rebuilds the heap and the lane without cancelled entries once those
  // outnumber max(live events, kCompactFloor).
  void MaybeCompact();
  void PopLaneFront();
  // Drops cancelled entries at the lane front / heap top. Returns true if any
  // live event remains; fills the (when, seq) of the next live one.
  bool PeekNextLive(TimeNs* when, bool* from_lane);

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t live_events_ = 0;
  uint64_t executed_count_ = 0;
  bool lane_enabled_ = true;

  std::vector<HeapEntry> heap_;  // Binary heap under Later: top is heap_.front().
  // Ready lane: FIFO of events scheduled for the current instant.
  Node* lane_head_ = nullptr;
  Node* lane_tail_ = nullptr;

  // Node pool.
  Node* free_nodes_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> node_chunks_storage_;
  uint64_t node_chunks_ = 0;

  // Lazy cancellation: cancelled ids are recorded and skipped when reached.
  EventIdSet cancelled_;

  uint64_t lane_scheduled_ = 0;
  uint64_t heap_scheduled_ = 0;
  uint64_t compactions_ = 0;
};

// Events scheduled on behalf of an owner that may be destroyed before they fire
// (a replica set's respawn delays, a fleet's warm-up rotations). Each event
// forgets itself when it fires; whatever is still pending at CancelAll — or at
// destruction — is cancelled, so no callback outlives its owner. EventQueue
// trusts Cancel callers to pass ids that never ran, which this bookkeeping
// guarantees.
class ScopedEvents {
 public:
  explicit ScopedEvents(EventQueue* queue) : queue_(queue) {}
  ~ScopedEvents() { CancelAll(); }
  ScopedEvents(const ScopedEvents&) = delete;
  ScopedEvents& operator=(const ScopedEvents&) = delete;

  template <typename F>
  void ScheduleAfter(DurationNs delay, F fn) {
    uint64_t key = ++last_key_;
    EventQueue::EventId id =
        queue_->ScheduleAfter(delay, [this, key, fn = std::move(fn)]() mutable {
          Forget(key);
          fn();
        });
    pending_.push_back(Pending{key, id});
  }

  void CancelAll();

 private:
  // `key` names an event from inside its own callback, which cannot know the
  // EventId ScheduleAfter returns.
  struct Pending {
    uint64_t key;
    EventQueue::EventId id;
  };
  void Forget(uint64_t key);

  EventQueue* queue_;
  uint64_t last_key_ = 0;
  std::vector<Pending> pending_;
};

}  // namespace remon

#endif  // SRC_SIM_EVENT_QUEUE_H_
