// Record/replay agent for user-space synchronization (paper §2.3).
//
// Multi-threaded replicas are non-deterministic: without intervention their threads
// can acquire locks in different orders, execute different system-call sequences, and
// trip GHUMVEE's lockstep even on identical inputs. ReMon embeds a small agent in
// each replica that forces user-space synchronization operations to happen in the
// same order everywhere: the master logs each acquisition (object id, thread rank)
// into a shared totally-ordered log; slave threads block until the log says it is
// their turn.
//
// Log layout (one System V segment per machine, mirrored like the RB):
//
//   offset 0   u64 tail      absolute op count; the publication word (stored last)
//   offset 8   u64 cursors   per-slave replay cursors (8 bytes each, slave i at
//                            offset 8 + 8*(i-1)); published by the consuming slave
//   offset 64  entry slots   16 bytes each: {u32 object, u32 rank, u64 seq}
//
// The log is circular: op `seq` lives in slot `seq % capacity`. The embedded seq
// both makes wraparound safe (a consumer can tell a stale previous-lap slot from
// its own op) and gives the post-run stale-slot scan something to check. The
// master may only overwrite a slot once every replica has consumed its previous
// occupant: it gates on the minimum peer replay cursor and parks on wrap_queue_
// until a consumer catches up. Co-located slaves publish their cursor into the
// shared segment's header words (and wake the master through OnSlaveConsumed);
// remote replicas' cursors arrive piggybacked on the transport's acks
// (RbTransport::SyncCursorFor) — the master never reads a peer agent's host-side
// state.
//
// Cross-machine replica sets: the master's appends additionally stream to remote
// replicas as kSyncLog frames over the RB transport (src/core/rb_wire.h), one
// frame per append, and the remote agent replays them into that machine's log
// mirror with the same publication discipline the master uses
// (entry slots first, tail word last, forward-only, futex wake). A re-seed
// checkpoint's sync slice (src/core/snapshot.h) replays through the same
// function, ApplyLog, so both paths refuse a diverged slot by one rule.

#ifndef SRC_CORE_SYNC_AGENT_H_
#define SRC_CORE_SYNC_AGENT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/replication_buffer.h"
#include "src/core/rb_wire.h"
#include "src/kernel/guest.h"
#include "src/kernel/kernel.h"

namespace remon {

class RbTransport;

// Offsets within the sync log segment (see the layout comment above).
inline constexpr uint64_t kSyncLogOffTail = 0;
inline constexpr uint64_t kSyncLogOffCursors = 8;
inline constexpr uint64_t kSyncLogOffEntries = 64;
inline constexpr uint64_t kSyncLogEntrySize = 16;
// The 64-byte header holds the tail word plus one cursor word per slave: at most
// 7 slaves (8 replicas) fit; Initialize enforces the bound.
inline constexpr int kSyncLogMaxReplicas = 8;

class SyncAgent {
 public:
  struct Config {
    int replica_index = 0;
    int num_replicas = 2;
    uint64_t log_size = 1024 * 1024;
  };

  SyncAgent(Kernel* kernel, Config config) : kernel_(kernel), config_(config) {}

  bool is_master() const { return config_.replica_index == 0; }
  const Config& config() const { return config_; }

  // Entry slots the circular log holds.
  uint64_t capacity() const {
    return (config_.log_size - kSyncLogOffEntries) / kSyncLogEntrySize;
  }

  // Guest-side setup: attach the shared log segment and register with the kernel.
  GuestTask<void> Initialize(Guest& g);

  // Serialization point before acquiring synchronization object `object_id`: the
  // master appends (object, rank); slaves wait until the log replays that exact
  // operation at their cursor.
  GuestTask<void> BeforeAcquire(Guest& g, uint32_t object_id);

  uint64_t ops_recorded() const { return ops_recorded_; }
  uint64_t ops_replayed() const { return ops_replayed_; }
  // Slave-side: next log index this replica will replay.
  uint64_t read_cursor() const { return read_cursor_; }

  // Fellow replicas' agents in replica order (set by the front end). Co-located
  // slaves use entry 0 as the wake channel for a master parked on a full log (the
  // cursor itself travels through the shared segment's header words, never a
  // host-side peer read).
  void set_peers(std::vector<SyncAgent*> peers) { peers_ = std::move(peers); }

  // --- Cross-machine replica sets (src/core/rb_transport.h) -----------------------

  // Master of a cross-machine set: appends additionally stream to the remote
  // agents as kSyncLog frames, and the wraparound gate reads remote replicas'
  // replay cursors from the transport's ack-piggybacked state.
  void set_transport(RbTransport* transport) { transport_ = transport; }

  // Remote slave: invoked after a replay advance that a full log could be parked
  // on — wired to RemoteSyncAgent::SendCursorUpdate so the new cursor reaches the
  // master's gate as a fresh ack. Setting this marks the replica remote: the
  // co-located OnSlaveConsumed wake to peer 0 is suppressed.
  void set_on_consumed(std::function<void()> fn) { on_consumed_ = std::move(fn); }

  // Master: invoked when a cursor-bearing ack advanced a remote replay cursor
  // (wired to RbTransport::set_on_sync_cursor) — re-checks the wraparound gate.
  void OnRemoteCursorAck() { wrap_queue_.Wake(); }

  // Replays `records`, op `start_index + k` at record k, into this replica's
  // machine-local mirror: a kSyncLog frame (RemoteSyncAgent) or a checkpoint's
  // slice (ApplySnapshotToMirror). Every check runs before the first write: the
  // slice may not start past the mirror tail or span more than the log, and each
  // record over a slot the mirror already holds must match it or be whole laps
  // behind it. Then entry slots, tail word last (forward-only), futex wake — also
  // for an empty slice. Returns nullptr on success or a static reason string.
  const char* ApplyLog(uint64_t start_index, const std::vector<RbSyncLogRecord>& records);

  // --- Replica re-seed (src/core/snapshot.h) --------------------------------------

  bool log_valid() const { return log_.valid(); }
  const RbView& log() const { return log_; }

  // Captures the occupied slot region (slot order, min(tail, capacity) slots):
  // the whole-log reference two replicas' logs are compared by.
  std::vector<uint8_t> CaptureLogImage() const;
  // Captures the ops [from, tail), op `from + k` at record k, for a leader
  // checkpoint. `from` must be within one lap of the tail — the wrap gate never
  // overwrites a slot the replica has not replayed, so its un-replayed suffix
  // always fits.
  std::vector<RbSyncLogRecord> CaptureLogDelta(uint64_t from) const;
  // The absolute tail as published in this replica's log view.
  uint64_t tail() const;

 private:
  // Co-located slaves wake a master parked on a full log (the shared-segment
  // analog of a futex wake; the cursor value lives in the segment header).
  void OnSlaveConsumed();
  uint64_t MinPeerReadCursor() const;

  Kernel* kernel_;
  Config config_;
  RbView log_;
  std::vector<SyncAgent*> peers_;
  uint64_t read_cursor_ = 0;  // Slave-side: next log index to replay.
  uint64_t ops_recorded_ = 0;
  uint64_t ops_replayed_ = 0;

  // Master-side wraparound gate (see the layout comment).
  WaitQueue wrap_queue_;

  // Cross-machine streaming state (master only).
  RbTransport* transport_ = nullptr;
  // Remote slave: cursor-update channel to this replica's RemoteSyncAgent
  // (non-null marks the replica remote).
  std::function<void()> on_consumed_;
};

}  // namespace remon

#endif  // SRC_CORE_SYNC_AGENT_H_
