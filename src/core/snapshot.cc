#include "src/core/snapshot.h"

#include <cstring>

#include "src/core/ipmon.h"
#include "src/core/replication_buffer.h"
#include "src/core/sync_agent.h"
#include "src/kernel/kernel.h"
#include "src/sim/check.h"

namespace remon {

namespace {

// Serialization bounds: a snapshot whose metadata claims more than these is
// rejected before any allocation happens (the frame MAC already verified, so this
// guards against a buggy or hostile leader, not line noise).
constexpr uint64_t kMaxSnapshotRbSize = 1ULL << 30;
constexpr uint32_t kMaxSnapshotRanks = 4096;

// kSnapshotBegin payload header (kSnapshotBeginHeaderSize bytes). The variable
// sections that follow: rank records (cursor, delta_from — 16 bytes each), the RB
// headers (the global header, then one header per rank), and the sync-log slice
// [sync_from, sync_tail) in seq order, op `sync_from + k` as the 16-byte slot
// {u32 object, u32 rank, u64 seq = sync_from + k}.
constexpr size_t kBeginOffRbSize = 0;
constexpr size_t kBeginOffMaxRanks = 8;
constexpr size_t kBeginOffRankCount = 12;
constexpr size_t kBeginOffChunkBytes = 16;
constexpr size_t kBeginOffChunkCrc = 24;
constexpr size_t kBeginOffChunkCount = 28;
constexpr size_t kBeginOffResetGen = 32;
constexpr size_t kBeginOffSyncLogSize = 40;
constexpr size_t kBeginOffSyncTail = 48;
constexpr size_t kBeginOffSyncCursor = 56;
constexpr size_t kBeginOffSyncFrom = 64;
constexpr size_t kBeginOffSyncSliceLen = 72;
static_assert(kBeginOffSyncSliceLen + 8 == kSnapshotBeginHeaderSize);
constexpr size_t kBeginRankRecordSize = 16;

// kSnapshotChunk payload header; entry records in the kEntries layout follow.
constexpr size_t kChunkOffRank = 0;
constexpr size_t kChunkOffCount = 4;
constexpr size_t kChunkHeaderSize = 8;

// kSnapshotEnd payload.
constexpr size_t kEndOffChunkBytes = 0;
constexpr size_t kEndOffChunkCrc = 8;
constexpr size_t kEndOffChunkCount = 12;
constexpr size_t kEndSize = 16;

uint64_t RbHeadersSize(int max_ranks) {
  return kRbGlobalHeaderSize + static_cast<uint64_t>(max_ranks) * kRbRankHeaderSize;
}

// The entry's total_size field (the record's image holds the entry header).
uint64_t RecordTotal(const RbWireEntry& e) {
  uint64_t total = 0;
  std::memcpy(&total, e.image.data() + kRbOffTotalSize, 8);
  return total;
}

// Every rank's window: data start <= delta_from <= cursor <= data end.
const char* CheckRankWindows(const ReplicaSnapshot& snap) {
  RbView layout(nullptr, 0, snap.rb_size, snap.max_ranks);  // Sub-buffer arithmetic.
  for (int r = 0; r < snap.max_ranks; ++r) {
    uint64_t cursor = snap.cursors[static_cast<size_t>(r)];
    uint64_t from = snap.delta_from[static_cast<size_t>(r)];
    if (cursor < layout.RankDataStart(r) || cursor > layout.RankDataEnd(r)) {
      return "snapshot cursor outside the rank sub-buffer";
    }
    if (from < layout.RankDataStart(r) || from > cursor) {
      return "resume offset outside the published prefix";
    }
  }
  return nullptr;
}

// Checks record `e` of rank `rank` (windows already checked) against the rank's
// chain so far: `prev` is the rank's last accepted record, null before its first.
const char* CheckRecord(const ReplicaSnapshot& snap, int rank, const RbWireEntry* prev,
                        const RbWireEntry& e) {
  uint64_t from = snap.delta_from[static_cast<size_t>(rank)];
  uint64_t cursor = snap.cursors[static_cast<size_t>(rank)];
  if (e.final_state != kRbArgsReady && e.final_state != kRbResultsReady) {
    return "snapshot record state is not a publication";
  }
  if (e.entry_off < from || e.entry_off >= cursor) {
    return "snapshot record outside [delta_from, cursor)";
  }
  uint64_t chained = from;
  if (prev != nullptr) {
    if (e.entry_off <= prev->entry_off) {
      return "snapshot records out of order";
    }
    chained = prev->entry_off + RecordTotal(*prev);
    if (e.entry_off < chained) {
      return "snapshot record overlaps its predecessor";
    }
  }
  if (e.entry_off != chained) {
    return "snapshot record does not start where the chain ends";
  }
  if (e.image.size() < kRbEntryHeaderSize) {
    return "snapshot record shorter than an entry header";
  }
  // Subtraction forms: `entry_off + size` could wrap. Ending at or before the
  // cursor keeps the record inside its sub-buffer (the window check).
  if (e.image.size() > cursor - e.entry_off) {
    return "snapshot record runs past the cursor";
  }
  uint64_t total = RecordTotal(e);
  if (total < e.image.size() || (total & 7) != 0 || total > cursor - e.entry_off) {
    return "snapshot record total_size does not chain";
  }
  return nullptr;
}

// What a sync slice must satisfy as a checkpoint, against `agent`'s mirror: the
// log geometry, a slice within one lap whose length matches its tail, and the
// carried read cursor equal to the replica's with sync_from <= cursor <= tail.
const char* CheckSyncSlice(const ReplicaSnapshot& snap, const SyncAgent& agent) {
  if (snap.sync_log_size != agent.config().log_size) {
    return "sync log geometry does not match the replica";
  }
  if (snap.sync_from > snap.sync_tail || snap.sync_tail - snap.sync_from > agent.capacity()) {
    return "sync delta slice wrapped past the replica cursor";
  }
  if (snap.sync_records.size() != snap.sync_tail - snap.sync_from) {
    return "sync delta slice length disagrees with its tail";
  }
  if (snap.sync_read_cursor != agent.read_cursor()) {
    return "sync read cursor diverged from the leader checkpoint";
  }
  if (snap.sync_read_cursor > snap.sync_tail) {
    return "sync read cursor past the leader tail";
  }
  if (snap.sync_from > snap.sync_read_cursor) {
    // Ops in (cursor, sync_from) would never reach this replica: the slice must
    // start at or before what it still has to replay.
    return "sync delta starts past the replica replay cursor";
  }
  return nullptr;
}

SnapshotApplyResult ApplyFail(const char* why) {
  SnapshotApplyResult r;
  r.ok = false;
  r.error = why;
  return r;
}

}  // namespace

// --- The leader checkpoint ---------------------------------------------------------

ReplicaSnapshot CaptureLeaderDelta(IpMon* master, const SyncAgent* sync_master,
                                   uint64_t sync_read_cursor,
                                   const RbDeltaBasis& basis) {
  REMON_CHECK(master != nullptr && master->is_master());
  REMON_CHECK_MSG(master->rb().valid(), "cannot checkpoint before IP-MON initialized");
  // The caller (Remon::MakeReseedPayloads) picks the basis; one from a different
  // reset generation would make every offset in it meaningless.
  REMON_CHECK_MSG(basis.valid && basis.reset_generation == master->rb_resets(),
                  "capture needs a basis from the current reset generation");
  const RbView& rb = master->rb();
  ReplicaSnapshot snap;
  snap.reset_generation = master->rb_resets();
  snap.rb_size = rb.size();
  snap.max_ranks = rb.max_ranks();
  snap.rb_headers.resize(RbHeadersSize(snap.max_ranks));
  rb.ReadBytes(0, snap.rb_headers.data(), kRbGlobalHeaderSize);
  snap.records.resize(static_cast<size_t>(snap.max_ranks));
  for (int r = 0; r < snap.max_ranks; ++r) {
    size_t i = static_cast<size_t>(r);
    rb.ReadBytes(rb.RankStart(r),
                 snap.rb_headers.data() + kRbGlobalHeaderSize + i * kRbRankHeaderSize,
                 kRbRankHeaderSize);
    uint64_t cursor = master->rb_cursor(r);
    snap.cursors.push_back(cursor);
    // Resume at the replacement's highest acked entry (one entry of idempotent
    // overlap); an empty or implausible horizon resumes at the rank data start.
    uint64_t off = i < basis.from_off.size() ? basis.from_off[i] : 0;
    if (off < rb.RankDataStart(r) || off > cursor) {
      off = rb.RankDataStart(r);
    }
    snap.delta_from.push_back(off);
    // The published entries, each shipped as a full record (never results-only).
    // The walk stops at the first unpublished entry (an in-flight tail entry the
    // next data frame completes) and, since the RB is writable by every local
    // replica, at a total_size that would not advance it inside the cursor.
    while (off + kRbEntryHeaderSize <= cursor) {
      uint32_t state = rb.ReadU32(off + kRbOffState);
      uint64_t total = rb.ReadU64(off + kRbOffTotalSize);
      if ((state != kRbArgsReady && state != kRbResultsReady) ||
          total < kRbEntryHeaderSize || total > cursor - off) {
        break;
      }
      snap.records[i].push_back(RbEntryOps::ReadRecord(rb, off, state));
      off += total;
    }
  }

  if (sync_master != nullptr && sync_master->log_valid()) {
    snap.sync_log_size = sync_master->config().log_size;
    snap.sync_tail = sync_master->tail();
    snap.sync_read_cursor = sync_read_cursor;
    snap.sync_from = sync_read_cursor;
    // The wrap gate runs on the replica's ack-latched cursor, which survives its
    // death and never exceeds the cursor the replica resumes from: the
    // un-replayed suffix always fits one lap of the circular log.
    REMON_CHECK_MSG(snap.sync_from <= snap.sync_tail &&
                        snap.sync_tail - snap.sync_from <= sync_master->capacity(),
                    "capture after the sync log wrapped past the replica cursor");
    snap.sync_records = sync_master->CaptureLogDelta(snap.sync_from);
  }
  return snap;
}

// --- Wire payloads -----------------------------------------------------------------

SnapshotPayloads SerializeSnapshot(const ReplicaSnapshot& snap) {
  SnapshotPayloads out;

  // Chunks first: Begin carries their count, bytes and chained CRC. A chunk packs
  // one rank's consecutive records up to kSnapshotChunkBytes; a larger record
  // travels alone.
  uint32_t crc = 0;
  uint64_t chunk_bytes = 0;
  for (size_t r = 0; r < snap.records.size(); ++r) {
    const std::vector<RbWireEntry>& chain = snap.records[r];
    auto record_bytes = [&chain](size_t i) {
      return kRbWireEntryHeaderSize + chain[i].image.size();
    };
    for (size_t first = 0, last = 0; first < chain.size(); first = last) {
      uint64_t bytes = kChunkHeaderSize + record_bytes(last++);
      while (last < chain.size() && bytes + record_bytes(last) <= kSnapshotChunkBytes) {
        bytes += record_bytes(last++);
      }
      std::vector<uint8_t> chunk(kChunkHeaderSize, 0);
      PutU32(&chunk, kChunkOffRank, static_cast<uint32_t>(r));
      PutU32(&chunk, kChunkOffCount, static_cast<uint32_t>(last - first));
      std::vector<uint8_t> records = RbWireCodec::EncodeEntriesPayload(
          std::vector<RbWireEntry>(chain.begin() + static_cast<long>(first),
                                   chain.begin() + static_cast<long>(last)));
      chunk.insert(chunk.end(), records.begin(), records.end());
      crc = Crc32(chunk.data(), chunk.size(), crc);
      chunk_bytes += chunk.size();
      out.chunks.push_back(std::move(chunk));
    }
  }
  uint32_t chunk_count = static_cast<uint32_t>(out.chunks.size());
  size_t rank_count = snap.cursors.size();
  out.begin.assign(kSnapshotBeginHeaderSize + rank_count * kBeginRankRecordSize +
                       snap.rb_headers.size() + snap.sync_records.size() * kSyncLogEntrySize,
                   0);
  PutU64(&out.begin, kBeginOffRbSize, snap.rb_size);
  PutU32(&out.begin, kBeginOffMaxRanks, static_cast<uint32_t>(snap.max_ranks));
  PutU32(&out.begin, kBeginOffRankCount, static_cast<uint32_t>(rank_count));
  PutU64(&out.begin, kBeginOffChunkBytes, chunk_bytes);
  PutU32(&out.begin, kBeginOffChunkCrc, crc);
  PutU32(&out.begin, kBeginOffChunkCount, chunk_count);
  PutU64(&out.begin, kBeginOffResetGen, snap.reset_generation);
  PutU64(&out.begin, kBeginOffSyncLogSize, snap.sync_log_size);
  PutU64(&out.begin, kBeginOffSyncTail, snap.sync_tail);
  PutU64(&out.begin, kBeginOffSyncCursor, snap.sync_read_cursor);
  PutU64(&out.begin, kBeginOffSyncFrom, snap.sync_from);
  PutU64(&out.begin, kBeginOffSyncSliceLen, snap.sync_records.size() * kSyncLogEntrySize);
  size_t pos = kSnapshotBeginHeaderSize;
  for (size_t r = 0; r < rank_count; ++r) {
    PutU64(&out.begin, pos, snap.cursors[r]);
    PutU64(&out.begin, pos + 8, snap.delta_from[r]);
    pos += kBeginRankRecordSize;
  }
  if (!snap.rb_headers.empty()) {
    std::memcpy(out.begin.data() + pos, snap.rb_headers.data(), snap.rb_headers.size());
    pos += snap.rb_headers.size();
  }
  for (size_t k = 0; k < snap.sync_records.size(); ++k) {
    PutU32(&out.begin, pos, snap.sync_records[k].object_id);
    PutU32(&out.begin, pos + 4, snap.sync_records[k].rank);
    PutU64(&out.begin, pos + 8, snap.sync_from + k);
    pos += kSyncLogEntrySize;
  }

  out.end.assign(kEndSize, 0);
  PutU64(&out.end, kEndOffChunkBytes, chunk_bytes);
  PutU32(&out.end, kEndOffChunkCrc, crc);
  PutU32(&out.end, kEndOffChunkCount, chunk_count);
  return out;
}

bool SnapshotAssembler::Fail(const char* why) {
  state_ = State::kFailed;
  error_ = why;
  return false;
}

void SnapshotAssembler::Reset() {
  state_ = State::kIdle;
  error_.clear();
  snap_ = ReplicaSnapshot{};
  expect_chunks_ = expect_bytes_ = chunks_applied_ = bytes_applied_ = 0;
  expect_crc_ = running_crc_ = 0;
}

bool SnapshotAssembler::Begin(const std::vector<uint8_t>& payload) {
  if (state_ != State::kIdle) {
    return Fail("snapshot begin out of protocol");
  }
  if (payload.size() < kSnapshotBeginHeaderSize) {
    return Fail("snapshot begin payload truncated");
  }
  uint64_t rb_size = GetU64(payload, kBeginOffRbSize);
  uint32_t max_ranks = GetU32(payload, kBeginOffMaxRanks);
  uint32_t rank_count = GetU32(payload, kBeginOffRankCount);
  if (rb_size == 0 || rb_size > kMaxSnapshotRbSize || (rb_size & kPageMask) != 0 ||
      max_ranks == 0 || max_ranks > kMaxSnapshotRanks || rank_count != max_ranks) {
    return Fail("snapshot begin metadata out of bounds");
  }
  uint64_t sync_log_size = GetU64(payload, kBeginOffSyncLogSize);
  uint64_t sync_tail = GetU64(payload, kBeginOffSyncTail);
  uint64_t sync_cursor = GetU64(payload, kBeginOffSyncCursor);
  uint64_t sync_from = GetU64(payload, kBeginOffSyncFrom);
  uint64_t sync_slice_len = GetU64(payload, kBeginOffSyncSliceLen);
  if (sync_log_size == 0) {
    if (sync_tail != 0 || sync_cursor != 0 || sync_from != 0 || sync_slice_len != 0) {
      return Fail("snapshot sync section inconsistent with zero log size");
    }
  } else {
    if (sync_log_size <= kSyncLogOffEntries || sync_log_size > kMaxSnapshotRbSize) {
      return Fail("snapshot sync log size out of bounds");
    }
    uint64_t cap = (sync_log_size - kSyncLogOffEntries) / kSyncLogEntrySize;
    if (cap == 0 || sync_from > sync_cursor || sync_cursor > sync_tail) {
      return Fail("snapshot sync section out of bounds");
    }
    // The lap guard: a slice longer than the log claims slots the leader has
    // already overwritten, so it cannot be grounded — refuse the join.
    if (sync_tail - sync_from > cap) {
      return Fail("snapshot sync slice wrapped past the replica cursor");
    }
    if (sync_slice_len != (sync_tail - sync_from) * kSyncLogEntrySize) {
      return Fail("snapshot sync section out of bounds");
    }
  }
  uint64_t headers = RbHeadersSize(static_cast<int>(max_ranks));
  uint64_t variable =
      static_cast<uint64_t>(rank_count) * kBeginRankRecordSize + headers + sync_slice_len;
  if (payload.size() != kSnapshotBeginHeaderSize + variable) {
    return Fail("snapshot begin payload size mismatch");
  }

  snap_.rb_size = rb_size;
  snap_.max_ranks = static_cast<int>(max_ranks);
  snap_.reset_generation = GetU64(payload, kBeginOffResetGen);
  snap_.sync_log_size = sync_log_size;
  snap_.sync_tail = sync_tail;
  snap_.sync_read_cursor = sync_cursor;
  snap_.sync_from = sync_from;
  expect_bytes_ = GetU64(payload, kBeginOffChunkBytes);
  expect_crc_ = GetU32(payload, kBeginOffChunkCrc);
  expect_chunks_ = GetU32(payload, kBeginOffChunkCount);
  // Entries are at least a 64-byte header each, with disjoint footprints in the
  // RB, so records plus their 16-byte and chunks' 8-byte headers stay well under
  // twice the RB: this bounds what the assembler buffers.
  if (expect_bytes_ > 2 * rb_size) {
    return Fail("snapshot records larger than the RB they describe");
  }
  size_t pos = kSnapshotBeginHeaderSize;
  for (uint32_t r = 0; r < rank_count; ++r) {
    snap_.cursors.push_back(GetU64(payload, pos));
    snap_.delta_from.push_back(GetU64(payload, pos + 8));
    pos += kBeginRankRecordSize;
  }
  if (const char* why = CheckRankWindows(snap_)) {
    return Fail(why);
  }
  snap_.rb_headers.assign(payload.begin() + static_cast<long>(pos),
                          payload.begin() + static_cast<long>(pos + headers));
  pos += headers;
  // Each slot names its op: a slot whose seq is not its position's cannot be
  // replayed as the op it claims.
  for (uint64_t seq = sync_from; seq < sync_tail; ++seq) {
    if (GetU64(payload, pos + 8) != seq) {
      return Fail("snapshot sync slot names the wrong op");
    }
    snap_.sync_records.push_back(RbSyncLogRecord{GetU32(payload, pos), GetU32(payload, pos + 4)});
    pos += kSyncLogEntrySize;
  }
  snap_.records.resize(max_ranks);
  state_ = State::kAssembling;
  return true;
}

bool SnapshotAssembler::AddChunk(const std::vector<uint8_t>& payload) {
  if (state_ != State::kAssembling) {
    return Fail("snapshot chunk out of protocol");
  }
  if (payload.size() < kChunkHeaderSize) {
    return Fail("snapshot chunk payload truncated");
  }
  uint32_t rank = GetU32(payload, kChunkOffRank);
  uint32_t count = GetU32(payload, kChunkOffCount);
  if (rank >= static_cast<uint32_t>(snap_.max_ranks)) {
    return Fail("snapshot chunk rank out of range");
  }
  if (count == 0 || (payload.size() > kSnapshotChunkBytes && count != 1)) {
    return Fail("snapshot chunk out of bounds");
  }
  if (chunks_applied_ >= expect_chunks_) {
    return Fail("more snapshot chunks than announced");
  }
  if (payload.size() > expect_bytes_ - bytes_applied_) {
    return Fail("snapshot chunks exceed the announced bytes");
  }
  std::vector<RbWireEntry> decoded;
  if (const char* why = RbWireCodec::DecodeEntries(payload.data() + kChunkHeaderSize,
                                                   payload.size() - kChunkHeaderSize,
                                                   count, &decoded)) {
    return Fail(why);
  }
  std::vector<RbWireEntry>& chain = snap_.records[rank];
  for (RbWireEntry& e : decoded) {
    if (const char* why = CheckRecord(snap_, static_cast<int>(rank),
                                      chain.empty() ? nullptr : &chain.back(), e)) {
      return Fail(why);
    }
    chain.push_back(std::move(e));
  }
  running_crc_ = Crc32(payload.data(), payload.size(), running_crc_);
  ++chunks_applied_;
  bytes_applied_ += payload.size();
  return true;
}

bool SnapshotAssembler::End(const std::vector<uint8_t>& payload) {
  if (state_ != State::kAssembling) {
    return Fail("snapshot end out of protocol");
  }
  if (payload.size() != kEndSize) {
    return Fail("snapshot end payload malformed");
  }
  if (GetU64(payload, kEndOffChunkBytes) != expect_bytes_ ||
      GetU32(payload, kEndOffChunkCount) != expect_chunks_ ||
      GetU32(payload, kEndOffChunkCrc) != expect_crc_) {
    return Fail("snapshot end disagrees with begin");
  }
  if (chunks_applied_ != expect_chunks_ || bytes_applied_ != expect_bytes_) {
    return Fail("snapshot truncated: chunk or byte count short of announced");
  }
  if (running_crc_ != expect_crc_) {
    return Fail("snapshot chunk CRC mismatch");
  }
  state_ = State::kComplete;
  return true;
}

// --- Mirror restoration ------------------------------------------------------------

SnapshotApplyResult ApplySnapshotToMirror(Kernel* kernel, IpMon* mon,
                                          SyncAgent* sync_agent,
                                          const ReplicaSnapshot& snap) {
  RbView rb = mon->rb();
  if (!rb.valid()) {
    return ApplyFail("replica RB mirror not initialized");
  }
  size_t ranks = static_cast<size_t>(rb.max_ranks());
  if (snap.rb_size != rb.size() || snap.max_ranks != rb.max_ranks() ||
      snap.rb_headers.size() != RbHeadersSize(snap.max_ranks) ||
      snap.cursors.size() != ranks || snap.delta_from.size() != ranks ||
      snap.records.size() != ranks) {
    return ApplyFail("snapshot geometry does not match the replica RB");
  }
  // The generation guard: every offset in the checkpoint is relative to one RB
  // reset generation. The reset round scrubs every mirror, a dead one's too, and
  // the leader parks the round while a checkpoint is in flight, so a healthy
  // leader never ships a mismatch; one means the offsets describe sub-buffers
  // this mirror no longer holds.
  if (snap.reset_generation != mon->rb_resets()) {
    return ApplyFail("checkpoint from a different RB reset generation");
  }
  // The assembler checked all of this on arrival; the apply checks it again so
  // no write happens for a checkpoint that did not come through one.
  if (const char* why = CheckRankWindows(snap)) {
    return ApplyFail(why);
  }
  for (int r = 0; r < snap.max_ranks; ++r) {
    const RbWireEntry* prev = nullptr;
    for (const RbWireEntry& e : snap.records[static_cast<size_t>(r)]) {
      if (const char* why = CheckRecord(snap, r, prev, e)) {
        return ApplyFail(why);
      }
      prev = &e;
    }
  }
  // Sync-agent log: the checkpoint and the replica must agree on whether a
  // record/replay agent runs at all.
  bool replica_has_sync = sync_agent != nullptr && sync_agent->log_valid();
  if (snap.sync_log_size != 0 && !replica_has_sync) {
    return ApplyFail("snapshot carries a sync log the replica does not replay");
  }
  if (snap.sync_log_size == 0 && replica_has_sync) {
    return ApplyFail("snapshot lacks the sync log this replica replays");
  }

  SnapshotApplyResult result;
  result.ok = true;
  // The log restore is the last check before any RB write: after the
  // checkpoint's own checks the slice replays through ApplyLog, the function a
  // live kSyncLog frame goes through, which checks every slot before it writes
  // anything. Nothing below can fail.
  if (replica_has_sync) {
    const char* why = CheckSyncSlice(snap, *sync_agent);
    if (why == nullptr) {
      why = sync_agent->ApplyLog(snap.sync_from, snap.sync_records);
    }
    if (why != nullptr) {
      return ApplyFail(why);
    }
    result.sync_slots_restored = snap.sync_records.size();
  }

  // Global header (signals-pending flag, generation) exactly as the leader saw it.
  rb.WriteBytes(0, snap.rb_headers.data(), kRbGlobalHeaderSize);
  for (int r = 0; r < snap.max_ranks; ++r) {
    size_t i = static_cast<size_t>(r);
    rb.WriteBytes(rb.RankStart(r),
                  snap.rb_headers.data() + kRbGlobalHeaderSize + i * kRbRankHeaderSize,
                  kRbRankHeaderSize);
    // The published prefix from the replacement's highest acked entry (the rank
    // data start under the empty basis) — one entry of overlap, idempotent under
    // the forward-only flip.
    uint64_t off = snap.delta_from[i];
    for (const RbWireEntry& e : snap.records[i]) {
      REMON_CHECK(RbEntryOps::ReplayRecord(rb, kernel->futex(), static_cast<uint32_t>(r),
                                           e));
      ++result.entries_restored;
      off = e.entry_off + RecordTotal(e);
    }
    // Within one reset generation the mirror's bytes past the replayed prefix are
    // already the leader's zeros (the reset round scrubbed both sides), so
    // re-zeroing would only race a consumer parked on the resume entry. Just
    // wake it so it re-examines the restored world.
    if (off + kRbEntryHeaderSize <= rb.RankDataEnd(r)) {
      rb.WakeState(kernel->futex(), off);
    }
  }
  return result;
}

}  // namespace remon
