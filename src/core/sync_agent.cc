#include "src/core/sync_agent.h"

#include <algorithm>

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

const char* SyncAgent::ApplyLog(uint64_t start_index,
                                const std::vector<RbSyncLogRecord>& records) {
  if (!log_.valid()) {
    return "sync log mirror not initialized";
  }
  uint64_t cap = capacity();
  uint64_t log_tail = tail();
  // The stream is reliable and in-order and every frame starts where the previous
  // one ended, so a slice starting past the mirror tail belongs to a different
  // log history: reject. A slice starting *behind* the tail is legitimate —
  // replicas co-located on one machine share the mirror segment, so each agent
  // sees the other's applications, and a checkpoint re-ships what the replica
  // has yet to replay — but only as an exact replay: every overlapping record
  // must match the slot it claims (same op, or superseded by a whole number of
  // laps), or the streams have diverged. The overlap precedes the first write.
  if (start_index > log_tail) {
    return "sync log slice starts past the mirror tail";
  }
  if (records.size() > cap) {
    return "sync log slice longer than the log";
  }
  for (size_t k = 0; k < records.size(); ++k) {
    uint64_t seq = start_index + static_cast<uint64_t>(k);
    uint64_t entry_off = kSyncLogOffEntries + (seq % cap) * kSyncLogEntrySize;
    if (seq < log_tail) {
      uint64_t slot_seq = log_.ReadU64(entry_off + 8);
      if (slot_seq == seq) {
        if (log_.ReadU32(entry_off) != records[k].object_id ||
            log_.ReadU32(entry_off + 4) != records[k].rank) {
          return "sync log diverged from the leader";  // Same op, different content.
        }
      } else if (slot_seq < seq || (slot_seq - seq) % cap != 0) {
        // Neither this op nor a later lap over its slot.
        return "sync log slot sequence diverged from the leader";
      }
      continue;  // Already applied (by a co-located replica's agent, or live).
    }
    log_.WriteU32(entry_off, records[k].object_id);
    log_.WriteU32(entry_off + 4, records[k].rank);
    log_.WriteU64(entry_off + 8, seq);
  }
  // Same publication discipline as the master's append: tail word last,
  // forward-only, then wake parked consumers — for an empty slice too.
  uint64_t new_tail = start_index + records.size();
  if (new_tail > log_tail) {
    log_.WriteU64(kSyncLogOffTail, new_tail);
  }
  log_.WakeWord(kernel_->futex(), kSyncLogOffTail);
  return nullptr;
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

std::vector<RbSyncLogRecord> SyncAgent::CaptureLogDelta(uint64_t from) const {
  REMON_CHECK(log_.valid());
  uint64_t cap = capacity();
  uint64_t log_tail = tail();
  REMON_CHECK_MSG(from <= log_tail && log_tail - from <= cap,
                  "sync delta capture outside the live lap");
  std::vector<RbSyncLogRecord> records;
  records.reserve(log_tail - from);
  for (uint64_t seq = from; seq < log_tail; ++seq) {
    uint64_t entry_off = kSyncLogOffEntries + (seq % cap) * kSyncLogEntrySize;
    records.push_back(RbSyncLogRecord{log_.ReadU32(entry_off), log_.ReadU32(entry_off + 4)});
  }
  return records;
}

}  // namespace remon
