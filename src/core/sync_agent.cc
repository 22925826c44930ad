#include "src/core/sync_agent.h"

#include <algorithm>
#include <cstring>

#include "src/core/await.h"
#include "src/core/rb_transport.h"
#include "src/sim/check.h"

namespace remon {

GuestTask<void> SyncAgent::Initialize(Guest& g) {
  REMON_CHECK_MSG(capacity() > 0, "sync agent: log too small for any entry");
  REMON_CHECK_MSG(config_.num_replicas <= kSyncLogMaxReplicas,
                  "sync agent: more replicas than header cursor words");
  int64_t shmid = co_await g.Shmget(kSyncShmKey, config_.log_size, kIpcCreat);
  REMON_CHECK_MSG(shmid >= 0, "sync agent: shmget failed");
  int64_t addr = co_await g.Shmat(static_cast<int>(shmid));
  REMON_CHECK_MSG(addr > 0, "sync agent: shmat failed");
  log_ = RbView(g.process(), static_cast<GuestAddr>(addr), config_.log_size, 1);
  g.process()->sync_agent = this;  // Workloads reach their replica's agent here.
  int64_t rc = co_await g.Syscall(Sys::kRemonSyncRegister, static_cast<uint64_t>(addr));
  REMON_CHECK(rc == 0);
}

uint64_t SyncAgent::tail() const { return log_.ReadU64(kSyncLogOffTail); }

uint64_t SyncAgent::MinPeerReadCursor() const {
  // The master gates wraparound on the slowest replica's replay cursor, using
  // only acknowledged state: co-located slaves publish their cursor into the
  // shared segment's header words, remote replicas' cursors arrive piggybacked
  // on the transport's acks. A dead remote's cursor stays frozen at its last
  // acknowledged value — overwriting what a to-be-re-seeded replica never
  // consumed would corrupt the replacement's replay.
  uint64_t min_cursor = ~uint64_t{0};
  bool any = false;
  for (int i = 1; i < config_.num_replicas; ++i) {
    uint64_t cursor = transport_ != nullptr && transport_->IsRemote(i)
                          ? transport_->SyncCursorFor(i)
                          : log_.ReadU64(kSyncLogOffCursors +
                                         8 * static_cast<uint64_t>(i - 1));
    min_cursor = std::min(min_cursor, cursor);
    any = true;
  }
  return any ? min_cursor : tail();
}

void SyncAgent::OnSlaveConsumed() { wrap_queue_.Wake(); }

GuestTask<void> SyncAgent::BeforeAcquire(Guest& g, uint32_t object_id) {
  REMON_CHECK(log_.valid());
  Thread* t = g.thread();
  uint32_t rank = static_cast<uint32_t>(t->rank());
  uint64_t cap = capacity();
  // A small in-process cost per synchronization operation (the agent's bookkeeping).
  co_await ThreadCost{t, 120};

  if (is_master()) {
    // Transport backpressure gates the append itself: a master must not run the
    // sync stream arbitrarily far ahead of what a slow link has carried.
    while (transport_ != nullptr && transport_->Stalled()) {
      ++kernel_->stats().sync_log_append_stalls;
      co_await WaitOn{t, transport_->stall_queue()};
    }

    // Wraparound gate: op `seq` reuses the slot op `seq - cap` occupied, so the
    // append must wait until every replica has replayed past that occupant.
    uint64_t seq = tail();
    while (seq >= cap + MinPeerReadCursor()) {
      ++kernel_->stats().sync_log_wrap_stalls;
      co_await WaitOn{t, &wrap_queue_};
      seq = tail();
    }

    // Publication discipline: slot bytes first, the tail word last.
    uint64_t entry_off = kSyncLogOffEntries + (seq % cap) * kSyncLogEntrySize;
    log_.WriteU32(entry_off, object_id);
    log_.WriteU32(entry_off + 4, rank);
    log_.WriteU64(entry_off + 8, seq);
    log_.WriteU64(kSyncLogOffTail, seq + 1);
    ++ops_recorded_;
    ++kernel_->stats().sync_ops_recorded;
    log_.WakeWord(kernel_->futex(), kSyncLogOffTail);

    if (transport_ != nullptr) {
      transport_->SendSyncLog(seq, {RbSyncLogRecord{object_id, rank}});
    }
    co_return;
  }

  // Slave: entries are consumed strictly in log order by whichever thread they name;
  // the per-replica cursor is shared by all of this replica's threads. Wait until the
  // head op is ours (a peer consuming its op wakes us to re-check).
  for (;;) {
    uint64_t log_tail = log_.ReadU64(kSyncLogOffTail);
    if (read_cursor_ < log_tail) {
      uint64_t entry_off =
          kSyncLogOffEntries + (read_cursor_ % cap) * kSyncLogEntrySize;
      uint32_t obj = log_.ReadU32(entry_off);
      uint32_t r = log_.ReadU32(entry_off + 4);
      uint64_t seq = log_.ReadU64(entry_off + 8);
      // The wraparound gate makes a stale slot impossible: the master may not
      // overwrite op `read_cursor_` before this replica consumed it.
      REMON_CHECK_MSG(seq == read_cursor_, "sync agent: stale slot under the cursor");
      if (obj == object_id && r == rank) {
        ++read_cursor_;
        ++ops_replayed_;
        ++kernel_->stats().sync_ops_replayed;
        // Publish the advanced cursor into the segment header — the only place a
        // co-located master's wraparound gate reads it from.
        log_.WriteU64(kSyncLogOffCursors +
                          8 * static_cast<uint64_t>(config_.replica_index - 1),
                      read_cursor_);
        if (on_consumed_ != nullptr) {
          // Remote replica: the cursor travels to the master piggybacked on acks.
          // An unsolicited cursor ack is only worth its frame when the master
          // could actually be parked on this replica — the log full up to (or
          // past) the slot just freed; otherwise the next applied frame's ack
          // carries the cursor for free.
          if (log_tail >= cap + read_cursor_ - 1) {
            on_consumed_();
          }
        } else if (!peers_.empty() && peers_[0] != nullptr && peers_[0] != this) {
          peers_[0]->OnSlaveConsumed();  // A master parked on a full log re-checks.
        }
        // Another slave thread may now be at the head.
        log_.WakeWord(kernel_->futex(), kSyncLogOffTail);
        co_return;
      }
    }
    co_await WaitOn{t, &log_.WordQueue(kernel_->futex(), kSyncLogOffTail)};
  }
}

bool SyncAgent::ApplyRemoteLog(uint64_t start_index,
                               const std::vector<RbSyncLogRecord>& records) {
  if (!log_.valid() || records.empty()) {
    return false;
  }
  uint64_t cap = capacity();
  uint64_t log_tail = tail();
  // The stream is reliable and in-order and every flush starts where the previous
  // one ended, so a frame starting past the mirror tail belongs to a different
  // log history: reject. A frame starting *behind* the tail is legitimate —
  // replicas co-located on one machine share the mirror segment, so each agent
  // sees the other's applications — but only as an exact replay: every
  // overlapping record must match the slot it claims (same op, or superseded by
  // a whole number of laps), or the streams have diverged.
  if (start_index > log_tail || records.size() > cap) {
    return false;
  }
  for (size_t k = 0; k < records.size(); ++k) {
    uint64_t seq = start_index + static_cast<uint64_t>(k);
    uint64_t entry_off = kSyncLogOffEntries + (seq % cap) * kSyncLogEntrySize;
    if (seq < log_tail) {
      uint64_t slot_seq = log_.ReadU64(entry_off + 8);
      if (slot_seq == seq) {
        if (log_.ReadU32(entry_off) != records[k].object_id ||
            log_.ReadU32(entry_off + 4) != records[k].rank) {
          return false;  // Same op, different content: diverged.
        }
      } else if (slot_seq < seq || (slot_seq - seq) % cap != 0) {
        return false;  // Neither this op nor a later lap over its slot.
      }
      continue;  // Already applied (possibly by a co-located replica's agent).
    }
    log_.WriteU32(entry_off, records[k].object_id);
    log_.WriteU32(entry_off + 4, records[k].rank);
    log_.WriteU64(entry_off + 8, seq);
  }
  // Same publication discipline as the master's append: tail word last,
  // forward-only, then wake parked consumers.
  uint64_t new_tail = start_index + records.size();
  if (new_tail > log_tail) {
    log_.WriteU64(kSyncLogOffTail, new_tail);
  }
  log_.WakeWord(kernel_->futex(), kSyncLogOffTail);
  return true;
}

std::vector<uint8_t> SyncAgent::CaptureLogImage() const {
  REMON_CHECK(log_.valid());
  uint64_t occupied = std::min(tail(), capacity());
  std::vector<uint8_t> image(occupied * kSyncLogEntrySize);
  if (!image.empty()) {
    log_.ReadBytes(kSyncLogOffEntries, image.data(), image.size());
  }
  return image;
}

std::vector<uint8_t> SyncAgent::CaptureLogDelta(uint64_t from) const {
  REMON_CHECK(log_.valid());
  uint64_t cap = capacity();
  uint64_t log_tail = tail();
  REMON_CHECK_MSG(from <= log_tail && log_tail - from <= cap,
                  "sync delta capture outside the live lap");
  std::vector<uint8_t> image((log_tail - from) * kSyncLogEntrySize);
  for (uint64_t k = 0; from + k < log_tail; ++k) {
    uint64_t entry_off =
        kSyncLogOffEntries + ((from + k) % cap) * kSyncLogEntrySize;
    log_.ReadBytes(entry_off, image.data() + k * kSyncLogEntrySize,
                   kSyncLogEntrySize);
  }
  return image;
}

const char* SyncAgent::ApplyLogDelta(uint64_t log_size, uint64_t snap_tail,
                                     uint64_t sync_from, uint64_t snap_read_cursor,
                                     const std::vector<uint8_t>& image) {
  if (!log_.valid()) {
    return "sync log mirror not initialized";
  }
  if (log_size != config_.log_size) {
    return "sync log geometry does not match the replica";
  }
  uint64_t cap = capacity();
  if (sync_from > snap_tail || snap_tail - sync_from > cap) {
    return "sync delta slice wrapped past the replica cursor";
  }
  if (image.size() != (snap_tail - sync_from) * kSyncLogEntrySize) {
    return "sync delta image size disagrees with its slice";
  }
  if (snap_read_cursor != read_cursor_) {
    return "sync read cursor diverged from the leader checkpoint";
  }
  if (snap_read_cursor > snap_tail) {
    return "sync read cursor past the leader tail";
  }
  if (sync_from > read_cursor_) {
    // Ops in (read_cursor_, sync_from) would never reach this replica: the slice
    // must start at or before what it still has to replay.
    return "sync delta starts past the replica replay cursor";
  }
  uint64_t local_tail = tail();
  // Validation before any mutation: every slice record must name the op its
  // position claims (embedded seq), and wherever the mirror already holds an op
  // for the same slot the two must agree byte for byte or differ by whole laps
  // (the lap-congruence rule ApplyRemoteLog uses).
  uint8_t local_slot[kSyncLogEntrySize];
  for (uint64_t k = 0; k < snap_tail - sync_from; ++k) {
    uint64_t seq = sync_from + k;
    const uint8_t* image_slot = image.data() + k * kSyncLogEntrySize;
    uint64_t image_seq = 0;
    std::memcpy(&image_seq, image_slot + 8, 8);
    if (image_seq != seq) {
      return "sync delta slot names the wrong op";
    }
    if (seq < local_tail) {
      uint64_t off = kSyncLogOffEntries + (seq % cap) * kSyncLogEntrySize;
      log_.ReadBytes(off, local_slot, kSyncLogEntrySize);
      uint64_t local_seq = 0;
      std::memcpy(&local_seq, local_slot + 8, 8);
      if (local_seq == seq) {
        if (std::memcmp(local_slot, image_slot, kSyncLogEntrySize) != 0) {
          return "sync log diverged from the leader checkpoint";
        }
      } else if (local_seq < seq || (local_seq - seq) % cap != 0) {
        return "sync log slot sequence diverged from the leader checkpoint";
      }
    }
  }
  // Restore with the live publication discipline: slots first (skipping ops the
  // mirror already published — a co-located agent may have applied newer frames
  // since the capture), tail word last (forward-only), wake parked consumers.
  for (uint64_t k = 0; k < snap_tail - sync_from; ++k) {
    uint64_t seq = sync_from + k;
    if (seq < local_tail) {
      continue;
    }
    uint64_t off = kSyncLogOffEntries + (seq % cap) * kSyncLogEntrySize;
    log_.WriteBytes(off, image.data() + k * kSyncLogEntrySize, kSyncLogEntrySize);
  }
  if (snap_tail > local_tail) {
    log_.WriteU64(kSyncLogOffTail, snap_tail);
  }
  log_.WakeWord(kernel_->futex(), kSyncLogOffTail);
  return nullptr;
}

}  // namespace remon
