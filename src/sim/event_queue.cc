#include "src/sim/event_queue.h"

#include <algorithm>

namespace remon {

// --- EventIdSet -----------------------------------------------------------------------

namespace {
inline uint64_t HashId(uint64_t id) {
  // Fibonacci multiplicative hash; ids are sequential, this spreads them.
  return id * 0x9e3779b97f4a7c15ULL;
}
}  // namespace

void EventIdSet::Grow() {
  size_t new_cap = slots_.empty() ? 64 : slots_.size() * 2;
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(new_cap, 0);
  size_ = 0;
  for (uint64_t id : old) {
    if (id != 0) {
      Insert(id);
    }
  }
}

bool EventIdSet::Insert(uint64_t id) {
  REMON_CHECK(id != 0);
  if (slots_.empty() || size_ * 4 >= slots_.size() * 3) {
    Grow();
  }
  uint64_t mask = slots_.size() - 1;
  uint64_t i = HashId(id) & mask;
  while (slots_[i] != 0) {
    if (slots_[i] == id) {
      return false;
    }
    i = (i + 1) & mask;
  }
  slots_[i] = id;
  ++size_;
  return true;
}

bool EventIdSet::Contains(uint64_t id) const {
  if (slots_.empty()) {
    return false;
  }
  uint64_t mask = slots_.size() - 1;
  uint64_t i = HashId(id) & mask;
  while (slots_[i] != 0) {
    if (slots_[i] == id) {
      return true;
    }
    i = (i + 1) & mask;
  }
  return false;
}

bool EventIdSet::Erase(uint64_t id) {
  if (slots_.empty()) {
    return false;
  }
  uint64_t mask = slots_.size() - 1;
  uint64_t i = HashId(id) & mask;
  while (slots_[i] != id) {
    if (slots_[i] == 0) {
      return false;
    }
    i = (i + 1) & mask;
  }
  // Backward-shift deletion keeps probe chains intact without tombstones.
  uint64_t hole = i;
  slots_[hole] = 0;
  uint64_t j = (hole + 1) & mask;
  while (slots_[j] != 0) {
    uint64_t home = HashId(slots_[j]) & mask;
    // Move slots_[j] into the hole if its home position does not lie strictly
    // after the hole on the probe path from home to j.
    bool movable = ((j - home) & mask) >= ((j - hole) & mask);
    if (movable) {
      slots_[hole] = slots_[j];
      slots_[j] = 0;
      hole = j;
    }
    j = (j + 1) & mask;
  }
  --size_;
  return true;
}

// --- EventQueue -----------------------------------------------------------------------

EventQueue::~EventQueue() = default;

EventQueue::Node* EventQueue::AcquireNode() {
  if (free_nodes_ == nullptr) {
    constexpr size_t kChunk = 256;
    node_chunks_storage_.push_back(std::make_unique<Node[]>(kChunk));
    Node* arr = node_chunks_storage_.back().get();
    for (size_t i = 0; i < kChunk; ++i) {
      arr[i].next = free_nodes_;
      free_nodes_ = &arr[i];
    }
    ++node_chunks_;
  }
  Node* n = free_nodes_;
  free_nodes_ = n->next;
  n->next = nullptr;
  return n;
}

void EventQueue::RecycleNode(Node* n) {
  n->cb = nullptr;  // Drop captured state now, not at the next reuse.
  n->id = 0;
  n->next = free_nodes_;
  free_nodes_ = n;
}

EventQueue::EventId EventQueue::ScheduleAt(TimeNs when, Callback cb) {
  REMON_CHECK(when >= now_);
  EventId id = next_seq_;
  ++next_seq_;
  ++live_events_;
  Node* n = AcquireNode();
  n->cb = std::move(cb);
  n->id = id;
  if (lane_enabled_ && when == now_) {
    // Ready lane. Appending preserves (when, seq) order: seq is monotonic and
    // time cannot advance while the lane is non-empty (see RunOne).
    if (lane_tail_ == nullptr) {
      lane_head_ = lane_tail_ = n;
    } else {
      lane_tail_->next = n;
      lane_tail_ = n;
    }
    ++lane_scheduled_;
  } else {
    heap_.push_back(HeapEntry{when, id, n});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++heap_scheduled_;
  }
  return id;
}

bool EventQueue::Cancel(EventId id) {
  if (id == kInvalidEvent) {
    return false;
  }
  // An id can only be cancelled once and only if it has not run. We cannot cheaply
  // check queue membership, so callers are trusted (and the node is reclaimed at
  // pop time) not to cancel already-executed events.
  if (!cancelled_.Insert(id)) {
    return false;
  }
  REMON_CHECK(live_events_ > 0);
  --live_events_;
  MaybeCompact();
  return true;
}

void EventQueue::MaybeCompact() {
  if (cancelled_.size() <= std::max(live_events_, kCompactFloor)) {
    return;
  }
  // Erase ids one by one (O(reclaimed)) rather than clearing the set: its
  // capacity reflects a past peak, and clearing it would cost that much per pass.
  auto drop = [this](Node* n) {
    cancelled_.Erase(n->id);
    RecycleNode(n);
  };
  size_t keep = 0;
  for (const HeapEntry& e : heap_) {
    if (cancelled_.Contains(e.seq)) {
      drop(e.node);
    } else {
      heap_[keep++] = e;
    }
  }
  heap_.resize(keep);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  Node** link = &lane_head_;
  lane_tail_ = nullptr;
  while (*link != nullptr) {
    Node* n = *link;
    if (cancelled_.Contains(n->id)) {
      *link = n->next;
      drop(n);
    } else {
      lane_tail_ = n;
      link = &n->next;
    }
  }
  if (!cancelled_.empty()) {
    // Every pending event sits in the heap or the lane, so what is left names
    // events that already ran (a caller broke Cancel's contract). Ids are never
    // reused: drop them, or each later Cancel would compact again.
    cancelled_.Clear();
  }
  ++compactions_;
}

void EventQueue::PopLaneFront() {
  Node* n = lane_head_;
  lane_head_ = n->next;
  if (lane_head_ == nullptr) {
    lane_tail_ = nullptr;
  }
  n->next = nullptr;
}

bool EventQueue::PeekNextLive(TimeNs* when, bool* from_lane) {
  for (;;) {
    // Skip cancelled lane fronts (lane entries are due at now_).
    while (lane_head_ != nullptr && cancelled_.Contains(lane_head_->id)) {
      cancelled_.Erase(lane_head_->id);
      Node* n = lane_head_;
      PopLaneFront();
      RecycleNode(n);
    }
    // Skip cancelled heap tops.
    while (!heap_.empty() && cancelled_.Contains(heap_.front().seq)) {
      HeapEntry e = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      cancelled_.Erase(e.seq);
      RecycleNode(e.node);
    }
    if (lane_head_ == nullptr && heap_.empty()) {
      return false;
    }
    if (lane_head_ != nullptr &&
        (heap_.empty() || heap_.front().when > now_ ||
         (heap_.front().when == now_ && heap_.front().seq > lane_head_->id))) {
      *when = now_;
      *from_lane = true;
    } else {
      *when = heap_.front().when;
      *from_lane = false;
    }
    return true;
  }
}

bool EventQueue::RunOne() {
  TimeNs when = 0;
  bool from_lane = false;
  if (!PeekNextLive(&when, &from_lane)) {
    return false;
  }
  Node* n;
  if (from_lane) {
    n = lane_head_;
    PopLaneFront();
  } else {
    n = heap_.front().node;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    REMON_CHECK(when >= now_);
    now_ = when;
  }
  REMON_CHECK(live_events_ > 0);
  --live_events_;
  ++executed_count_;
  MaybeCompact();  // Running events shrinks the live set the bound is relative to.
  REMON_CHECK_MSG(n->cb != nullptr, "empty event callback");
  Callback cb = std::move(n->cb);
  RecycleNode(n);
  cb();
  return true;
}

uint64_t EventQueue::RunUntil(TimeNs deadline) {
  uint64_t count = 0;
  TimeNs when = 0;
  bool from_lane = false;
  while (PeekNextLive(&when, &from_lane)) {
    if (when > deadline) {
      break;
    }
    if (RunOne()) {
      ++count;
    }
  }
  return count;
}

// --- ScopedEvents ---------------------------------------------------------------------

void ScopedEvents::CancelAll() {
  for (const Pending& p : pending_) {
    queue_->Cancel(p.id);
  }
  pending_.clear();
}

void ScopedEvents::Forget(uint64_t key) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->key == key) {
      pending_.erase(it);
      return;
    }
  }
}

}  // namespace remon
