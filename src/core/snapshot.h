// Replica re-seed snapshots (recovery story for cross-machine replica sets).
//
// When a remote replica's link dies, the stream epoch bumps and the replica's RB
// mirror goes stale: every publication the leader makes afterwards is lost to it.
// Rather than shrinking the replica set permanently, the leader can checkpoint its
// replication-relevant state and ship it to a *replacement* replica over the RB
// transport, after which the replacement enters lockstep at the recorded cursor
// and the transcript is byte-identical to a run that never lost the replica.
//
// Every checkpoint is cut against a basis (RbDeltaBasis): what the leader knows
// the replacement's mirror already holds. An ack-folded basis makes the checkpoint
// O(what the replica missed); the empty basis (EmptyDeltaBasis) makes it a full
// one. Either way the checkpoint (ReplicaSnapshot) carries exactly what the
// replacement restores:
//   * the RB's global header and every rank header;
//   * per rank, the published entries in [resume offset, cursor) as full wire
//     records (RbWireEntry), plus the write cursor and the resume offset;
//   * the RB reset generation the offsets belong to;
//   * the sync-agent log ops past the target replica's replay cursor, so
//     multi-threaded replacements resume BeforeAcquire replay exactly where they
//     left off (src/core/sync_agent.h; absent — all zero — for agent-less
//     workloads). They are the records a live kSyncLog frame carries, and the
//     replacement replays them through the same SyncAgent::ApplyLog.
// GHUMVEE's file map is not in it: GHUMVEE keeps the one authoritative map and
// every replica maps it read-only (paper §3.6), so there is nothing to restore.
// Nor are the epoll shadows: each replica records its own from its own epoll_ctl
// calls.
//
// On the wire the snapshot rides the normal RB stream as three sequenced,
// sealed frame types (kSnapshotBegin / kSnapshotChunk / kSnapshotEnd,
// src/core/rb_wire.h), chunked so snapshot traffic obeys the link's flow-control
// window and interleaves with data frames instead of monopolizing the link. A
// chunk is a run of one rank's records in the kEntries layout.
// docs/RB_WIRE_FORMAT.md is the normative payload spec. The replacement replays
// the records exactly as it replays live ones (RbEntryOps::ReplayRecord).

#ifndef SRC_CORE_SNAPSHOT_H_
#define SRC_CORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/rb_wire.h"

namespace remon {

class IpMon;
class Kernel;
class SyncAgent;

// --- The leader checkpoint ---------------------------------------------------------

struct ReplicaSnapshot {
  uint64_t rb_size = 0;
  int max_ranks = 0;
  uint64_t reset_generation = 0;   // Leader rb_resets() at capture: the lap guard.
  // The global header then each rank's header, kRbRankHeaderSize bytes apiece.
  std::vector<uint8_t> rb_headers;
  std::vector<uint64_t> cursors;   // Per rank: leader's next-entry offset.
  std::vector<uint64_t> delta_from;  // Per rank: offset the records resume at, in
                                     // [rank data start, cursor].
  // Per rank: the published entries from delta_from on, each record starting
  // where its predecessor's total_size ends.
  std::vector<std::vector<RbWireEntry>> records;
  // Sync-agent log section; all zero when the workload runs no agent.
  uint64_t sync_log_size = 0;      // Log segment geometry (validated by the joiner).
  uint64_t sync_tail = 0;          // Absolute op count at capture.
  uint64_t sync_read_cursor = 0;   // The target replica's replay cursor at capture.
  uint64_t sync_from = 0;          // First op in sync_records.
  std::vector<RbSyncLogRecord> sync_records;  // Ops [sync_from, sync_tail), seq order.
};

// What the leader knows a replacement's mirror already holds: the horizon a
// capture resumes from. The transport folds it from a dead replica's cumulative
// acks (RbTransport::DeltaBasisFor); it is only usable while the leader's RB
// reset generation still matches, because a reset rewrites offsets wholesale.
struct RbDeltaBasis {
  bool valid = false;
  uint64_t reset_generation = 0;   // IpMon::rb_resets() the offsets belong to.
  std::vector<uint64_t> from_off;  // Per rank: highest acked entry offset (0 = none).
};

// The empty basis: the replica provably holds nothing. Every rank resumes at its
// data start — a full checkpoint is the capture cut against this basis.
inline RbDeltaBasis EmptyDeltaBasis(uint64_t reset_generation) {
  RbDeltaBasis basis;
  basis.valid = true;
  basis.reset_generation = reset_generation;
  return basis;
}

// Checkpoints the leader against `basis`: captures the global/rank headers, each
// rank's published entries from the basis offset up to the first unpublished one
// before the cursor — one acked entry of overlap, idempotent under the
// forward-only apply discipline — and the sync-log slots past `sync_read_cursor`.
// For multi-threaded workloads, `sync_master` is the leader's record/replay agent
// and `sync_read_cursor` the replay cursor of the replica being re-seeded — in a
// distributed deployment the cursor arrives with the join request; here the front
// end reads it off the replica's agent. The basis must belong to the current
// reset generation and the sync log must not have wrapped past the cursor (the
// wrap gate guarantees it); Remon::MakeReseedPayloads picks the basis.
ReplicaSnapshot CaptureLeaderDelta(IpMon* master, const SyncAgent* sync_master,
                                   uint64_t sync_read_cursor,
                                   const RbDeltaBasis& basis);

// --- Wire payloads -----------------------------------------------------------------

// kSnapshotChunk payload bytes: a chunk packs one rank's records up to this, and
// a single larger record travels alone. Small enough (a quarter of the stream
// window) that snapshot frames obey the window without head-of-line-blocking the
// data stream.
inline constexpr uint64_t kSnapshotChunkBytes = 64 * 1024;

// The fixed SNAPSHOT_BEGIN header (docs/RB_WIRE_FORMAT.md tabulates its fields);
// the rank records and the variable sections follow it.
inline constexpr size_t kSnapshotBeginHeaderSize = 80;

struct SnapshotPayloads {
  std::vector<uint8_t> begin;                // kSnapshotBegin payload.
  std::vector<std::vector<uint8_t>> chunks;  // One kSnapshotChunk payload each.
  std::vector<uint8_t> end;                  // kSnapshotEnd payload.
};

// Serializes a snapshot into the Begin/Chunk/End payloads (layouts in
// docs/RB_WIRE_FORMAT.md). Begin and End both carry the chunk count, the total
// chunk payload bytes, and the chained CRC-32 over the chunk payloads so
// truncation and reordering are detectable end-to-end, beyond the per-frame MAC.
SnapshotPayloads SerializeSnapshot(const ReplicaSnapshot& snap);

// Reassembles a snapshot from Begin/Chunk/End payloads on the receiving side.
// Begin checks every rank's window and that each sync slot names its position's
// op (seq = sync_from + k); each chunk's records are checked on arrival, as
// ApplySnapshotToMirror checks them. Any malformed payload, bounds
// violation, count/byte/CRC mismatch, or out-of-protocol call latches the
// assembler into the failed state.
class SnapshotAssembler {
 public:
  enum class State { kIdle, kAssembling, kComplete, kFailed };

  State state() const { return state_; }
  const std::string& error() const { return error_; }

  bool Begin(const std::vector<uint8_t>& payload);
  bool AddChunk(const std::vector<uint8_t>& payload);
  bool End(const std::vector<uint8_t>& payload);

  // Valid in kComplete: the checkpoint, records included.
  const ReplicaSnapshot& snapshot() const { return snap_; }

  void Reset();

 private:
  bool Fail(const char* why);

  State state_ = State::kIdle;
  std::string error_;
  ReplicaSnapshot snap_;
  uint64_t expect_chunks_ = 0;
  uint64_t expect_bytes_ = 0;
  uint32_t expect_crc_ = 0;
  uint64_t chunks_applied_ = 0;
  uint64_t bytes_applied_ = 0;
  uint32_t running_crc_ = 0;
};

// --- Mirror restoration ------------------------------------------------------------

struct SnapshotApplyResult {
  bool ok = false;
  const char* error = "";
  uint64_t entries_restored = 0;  // Records replayed into the mirror.
  uint64_t sync_slots_restored = 0;  // Sync-log slots re-published into the mirror.
};

// Applies a completed snapshot to `mon`'s RB mirror. Every check runs before the
// first write, so a refused join leaves the mirror and its sync log untouched:
//   * geometry and reset generation match the replica's (the leader parks its
//     reset round while a checkpoint is in flight, so a healthy leader never
//     ships a mismatch);
//   * per rank, data start <= delta_from <= cursor <= data end, and every record
//     is a publication (kRbArgsReady or kRbResultsReady) starting in [delta_from,
//     cursor) at strictly increasing offsets, where its predecessor's total_size
//     ends (the first at delta_from), and ending at or before the cursor;
//   * a sync slice is carried exactly when the replica runs an agent; it matches
//     the log geometry, spans at most one lap, and its carried read cursor equals
//     the replica's with sync_from <= cursor <= sync_tail. It then replays
//     through SyncAgent::ApplyLog, as a live kSyncLog frame does; those checks
//     are the last before any RB write.
// Then the headers are written, each rank's records replay through
// RbEntryOps::ReplayRecord, and the resume entry's futex queue is woken so a
// parked consumer re-examines the world. Bytes past the cursor stay: the reset
// round scrubbed both sides, so they are already the leader's zeros.
SnapshotApplyResult ApplySnapshotToMirror(Kernel* kernel, IpMon* mon,
                                          SyncAgent* sync_agent,
                                          const ReplicaSnapshot& snap);

}  // namespace remon

#endif  // SRC_CORE_SNAPSHOT_H_
