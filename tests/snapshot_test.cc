// Tests for the replica re-seed snapshot subsystem (src/core/snapshot.{h,cc}):
// serialization round trips of the stream's own entry records through the
// Begin/Chunk/End payloads, assembler rejection of malformed checkpoints (each
// record check on arrival), and — on one live cross-machine world — the
// equivalence of a checkpoint cut against the empty basis and one cut against
// the ack-folded basis, a refused apply that leaves the mirror untouched, and a
// re-seed that materializes only the pages it ships. The end-to-end kill/re-seed
// behavior is covered by the fuzz in tests/property_test.cc and the server test
// in tests/workloads_test.cc.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "src/core/remon.h"
#include "src/core/snapshot.h"
#include "src/core/sync_agent.h"
#include "src/sim/rng.h"
#include "tests/snapshot_fixtures.h"

namespace remon {
namespace {

// Adds a sync-log section: ops [from, tail) of a `cap`-slot log in seq order,
// the replay cursor somewhere inside the slice, slice length within one lap.
void AddSyncSection(ReplicaSnapshot* snap, Rng* rng, uint64_t cap, uint64_t from,
                    uint64_t tail) {
  snap->sync_log_size = kSyncLogOffEntries + cap * kSyncLogEntrySize;
  snap->sync_from = from;
  snap->sync_tail = tail;
  snap->sync_read_cursor = from + rng->NextBelow(tail - from + 1);
  snap->sync_records.clear();
  for (uint64_t i = 0; i < tail - from; ++i) {
    uint32_t obj = static_cast<uint32_t>(rng->NextBelow(1000));
    uint32_t rank = static_cast<uint32_t>(rng->NextBelow(4));
    snap->sync_records.push_back(RbSyncLogRecord{obj, rank});
  }
}

// Serializes `snap` and opens an assembler on its begin payload.
bool BeginSerialized(const ReplicaSnapshot& snap, SnapshotAssembler* asm_) {
  return asm_->Begin(SerializeSnapshot(snap).begin);
}

TEST(SnapshotCodecTest, SerializeAssembleRoundTrip) {
  Rng rng(101);
  for (int iter = 0; iter < 20; ++iter) {
    uint64_t rb_size = (64 + rng.NextBelow(128)) * kPageSize;
    int ranks = 1 + static_cast<int>(rng.NextBelow(8));
    ReplicaSnapshot snap = MakeSnapshot(&rng, rb_size, ranks);
    if (iter % 2 == 0) {
      // Half the sweep carries a sync section, past a wrap and before one alike.
      uint64_t cap = 8 + rng.NextBelow(64);
      uint64_t from = rng.NextBelow(3 * cap);
      uint64_t tail = from + rng.NextBelow(cap + 1);
      AddSyncSection(&snap, &rng, cap, from, tail);
    }
    SnapshotPayloads payloads = SerializeSnapshot(snap);

    SnapshotAssembler asm_;
    ASSERT_TRUE(asm_.Begin(payloads.begin)) << asm_.error();
    for (const auto& chunk : payloads.chunks) {
      ASSERT_TRUE(asm_.AddChunk(chunk)) << asm_.error();
    }
    ASSERT_TRUE(asm_.End(payloads.end)) << asm_.error();
    ASSERT_EQ(asm_.state(), SnapshotAssembler::State::kComplete);

    const ReplicaSnapshot& out = asm_.snapshot();
    EXPECT_EQ(out.rb_size, snap.rb_size);
    EXPECT_EQ(out.rb_headers, snap.rb_headers);
    EXPECT_EQ(out.max_ranks, snap.max_ranks);
    EXPECT_EQ(out.reset_generation, snap.reset_generation);
    EXPECT_EQ(out.cursors, snap.cursors);
    EXPECT_EQ(out.delta_from, snap.delta_from);
    EXPECT_EQ(out.sync_log_size, snap.sync_log_size);
    EXPECT_EQ(out.sync_from, snap.sync_from);
    EXPECT_EQ(out.sync_tail, snap.sync_tail);
    EXPECT_EQ(out.sync_read_cursor, snap.sync_read_cursor);
    EXPECT_EQ(out.sync_records, snap.sync_records) << "iter " << iter;
    ExpectSameRecords(out.records, snap.records);
    // Chunks pack one rank's records up to kSnapshotChunkBytes; only a lone
    // record may exceed it.
    for (const std::vector<uint8_t>& chunk : payloads.chunks) {
      uint32_t count = 0;
      std::memcpy(&count, chunk.data() + 4, 4);
      EXPECT_TRUE(chunk.size() <= kSnapshotChunkBytes || count == 1) << "iter " << iter;
    }
  }
}

// --- Begin-payload rejection vectors -------------------------------------------------

TEST(SnapshotCodecTest, TruncatedBeginPayloadRejected) {
  Rng rng(103);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  SnapshotPayloads payloads = SerializeSnapshot(snap);

  // One byte short: the variable-section arithmetic no longer adds up.
  std::vector<uint8_t> short_one = payloads.begin;
  short_one.pop_back();
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.Begin(short_one));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);

  // Shorter than the fixed header: rejected before any field is read.
  std::vector<uint8_t> short_hdr(payloads.begin.begin(), payloads.begin.begin() + 40);
  asm_.Reset();
  EXPECT_FALSE(asm_.Begin(short_hdr));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);

  // The untruncated payload still opens fine after Reset.
  asm_.Reset();
  EXPECT_TRUE(asm_.Begin(payloads.begin)) << asm_.error();
}

TEST(SnapshotCodecTest, SyncSectionWithoutLogSizeRejected) {
  Rng rng(41);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncSection(&snap, &rng, 16, 2, 10);
  snap.sync_log_size = 0;  // Image + tail without a log to describe them.
  SnapshotAssembler asm_;
  EXPECT_FALSE(BeginSerialized(snap, &asm_));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, SyncImageLengthDisagreeingWithSliceRejected) {
  Rng rng(43);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncSection(&snap, &rng, 16, 2, 10);
  snap.sync_records.pop_back();  // One short of the slice.
  SnapshotAssembler asm_;
  EXPECT_FALSE(BeginSerialized(snap, &asm_));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, SyncCursorPastTailRejected) {
  Rng rng(47);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncSection(&snap, &rng, 16, 2, 10);
  snap.sync_read_cursor = snap.sync_tail + 1;  // A cursor the log cannot reach.
  SnapshotAssembler asm_;
  EXPECT_FALSE(BeginSerialized(snap, &asm_));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, SyncLogSmallerThanItsHeaderRejected) {
  Rng rng(53);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncSection(&snap, &rng, 4, 0, 4);
  snap.sync_log_size = kSyncLogOffEntries;  // Room for the tail word, no slots.
  SnapshotAssembler asm_;
  EXPECT_FALSE(BeginSerialized(snap, &asm_));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, LapStaleSyncSliceRejected) {
  Rng rng(107);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  // A 16-slot log with a 20-op slice: slots [from, tail-cap) were overwritten
  // before the capture, so the slice cannot be grounded and the joiner refuses.
  uint64_t cap = 16;
  AddSyncSection(&snap, &rng, cap, /*from=*/10, /*tail=*/10 + cap + 4);
  SnapshotAssembler asm_;
  EXPECT_FALSE(BeginSerialized(snap, &asm_));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
  EXPECT_NE(asm_.error().find("wrapped past"), std::string::npos) << asm_.error();
}

// The sync slice travels as 16-byte slots {u32 object, u32 rank, u64 seq}, op
// `sync_from + k` at slot k: the same bytes a copy of the log's own slots gave
// before the checkpoint carried records. The size is wire v9's golden size less
// the bytes v10 removed from this fixture (2 ranks, 3 dirty file-map pages, 5
// epoll rows): 12 852 − 24 (header, 104 → 80) − 2 · 8 (the per-rank seq)
// − 3 · 4 100 (u32 page index + 4 096 page bytes) − 5 · 16 (epoll rows) = 432.
// The fixture still draws the removed fields, so every byte left is v9's; the
// CRC-32 is this layout's.
TEST(SnapshotCodecTest, BeginPayloadMatchesGoldenVector) {
  Rng rng(59);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncSection(&snap, &rng, 16, /*from=*/14, /*tail=*/22);  // Crosses a lap.
  std::vector<uint8_t> begin = SerializeSnapshot(snap).begin;
  EXPECT_EQ(begin.size(), 12852u - 24 - 2 * 8 - 3 * 4100 - 5 * 16);
  EXPECT_EQ(Crc32(begin.data(), begin.size()), 0x4acd63a7u);
  const uint32_t kObjects[] = {805, 215, 288, 560, 413, 598, 738, 221};
  const uint32_t kRanks[] = {2, 3, 2, 0, 0, 2, 3, 2};
  size_t pos = begin.size() - 8 * kSyncLogEntrySize;
  for (uint64_t k = 0; k < 8; ++k, pos += kSyncLogEntrySize) {
    uint32_t obj = 0;
    uint32_t rank = 0;
    uint64_t seq = 0;
    std::memcpy(&obj, begin.data() + pos, 4);
    std::memcpy(&rank, begin.data() + pos + 4, 4);
    std::memcpy(&seq, begin.data() + pos + 8, 8);
    EXPECT_EQ(obj, kObjects[k]) << "slot " << k;
    EXPECT_EQ(rank, kRanks[k]) << "slot " << k;
    EXPECT_EQ(seq, 14 + k) << "slot " << k;
  }
}

// docs/RB_WIRE_FORMAT.md's SNAPSHOT_BEGIN table is the normative header layout:
// its rows must tile [0, header size) with no gap or overlap, and that size must
// be the one the serializer writes — a one-rank checkpoint with no records and
// no sync section is the header, one 16-byte rank record and the RB headers.
TEST(SnapshotCodecTest, WireFormatDocTilesTheBeginHeader) {
  std::ifstream in(std::string(REMON_SOURCE_DIR) + "/docs/RB_WIRE_FORMAT.md");
  ASSERT_TRUE(in.good());
  std::string line;
  while (std::getline(in, line) && line != "### SNAPSHOT_BEGIN payload") {
  }
  ASSERT_EQ(line, "### SNAPSHOT_BEGIN payload");
  // The section's first table: the header row, the separator, then one row per
  // field, `| offset | size | field | meaning |`.
  while (std::getline(in, line) && line.rfind("| Offset", 0) != 0) {
  }
  ASSERT_TRUE(std::getline(in, line));  // Separator.
  uint64_t next = 0;
  int rows = 0;
  while (std::getline(in, line) && line.rfind("| ", 0) == 0) {
    std::istringstream row(line);
    char bar = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
    ASSERT_TRUE(row >> bar >> offset >> bar >> size) << line;
    EXPECT_EQ(offset, next) << "gap or overlap at: " << line;
    EXPECT_GT(size, 0u) << line;
    next = offset + size;
    ++rows;
  }
  EXPECT_GT(rows, 0);
  EXPECT_EQ(next, kSnapshotBeginHeaderSize);

  ReplicaSnapshot one;
  one.rb_size = 64 * kPageSize;
  one.max_ranks = 1;
  one.rb_headers.assign(kRbGlobalHeaderSize + kRbRankHeaderSize, 0);
  uint64_t start = RbView(nullptr, 0, one.rb_size, 1).RankDataStart(0);
  one.cursors = {start};
  one.delta_from = {start};
  one.records.resize(1);
  EXPECT_EQ(SerializeSnapshot(one).begin.size(), next + 16 + one.rb_headers.size());
}

TEST(SnapshotCodecTest, SyncSlotNamingTheWrongOpRejected) {
  Rng rng(61);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncSection(&snap, &rng, 16, 2, 10);
  std::vector<uint8_t> begin = SerializeSnapshot(snap).begin;
  // Slot 3 claims op 9 instead of op 5: it cannot be replayed as the op it names.
  uint64_t wrong = 9;
  std::memcpy(begin.data() + begin.size() - 5 * kSyncLogEntrySize + 8, &wrong, 8);
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.Begin(begin));
  EXPECT_EQ(asm_.error(), "snapshot sync slot names the wrong op");
}

TEST(SnapshotCodecTest, TruncatedChunkStreamRejectedAtEnd) {
  Rng rng(7);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 128 * kPageSize, 4);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  ASSERT_GT(payloads.chunks.size(), 1u);

  SnapshotAssembler asm_;
  ASSERT_TRUE(asm_.Begin(payloads.begin));
  // Drop the last chunk: the commit record must refuse the short image.
  for (size_t i = 0; i + 1 < payloads.chunks.size(); ++i) {
    ASSERT_TRUE(asm_.AddChunk(payloads.chunks[i]));
  }
  EXPECT_FALSE(asm_.End(payloads.end));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, CorruptChunkByteFailsImageCrc) {
  Rng rng(11);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 128 * kPageSize, 2);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  ASSERT_FALSE(payloads.chunks.empty());

  SnapshotAssembler asm_;
  ASSERT_TRUE(asm_.Begin(payloads.begin));
  for (size_t i = 0; i < payloads.chunks.size(); ++i) {
    std::vector<uint8_t> chunk = payloads.chunks[i];
    if (i == payloads.chunks.size() / 2) {
      chunk[chunk.size() - 1] ^= 0x01;  // One flipped image bit.
    }
    ASSERT_TRUE(asm_.AddChunk(chunk));  // Per-chunk structure is still valid...
  }
  EXPECT_FALSE(asm_.End(payloads.end));  // ...but the end-to-end CRC is not.
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

// --- Record checks: each refuses the chunk that carries the bad record ------------

// A synthetic checkpoint whose rank 0 carries at least three records.
ReplicaSnapshot SnapshotWithChain(uint64_t seed) {
  Rng rng(seed);
  for (;;) {
    ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
    if (snap.records[0].size() >= 3) {
      return snap;
    }
  }
}

// Serializes `snap` and feeds its chunks until one is refused. Returns the
// assembler's error ("" when every chunk was accepted); `refused_at` is the
// refused chunk's index.
std::string FeedUntilRefused(const ReplicaSnapshot& snap, size_t* refused_at = nullptr) {
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  EXPECT_TRUE(asm_.Begin(payloads.begin)) << asm_.error();
  for (size_t i = 0; i < payloads.chunks.size(); ++i) {
    if (!asm_.AddChunk(payloads.chunks[i])) {
      EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
      if (refused_at != nullptr) {
        *refused_at = i;
      }
      return asm_.error();
    }
  }
  return "";
}

TEST(SnapshotCodecTest, RecordOutsideResumeWindowRejectedImmediately) {
  ReplicaSnapshot below = SnapshotWithChain(13);
  below.records[0][0].entry_off = below.delta_from[0] - 8;
  size_t at = 99;
  EXPECT_NE(FeedUntilRefused(below, &at).find("outside [delta_from, cursor)"),
            std::string::npos);
  EXPECT_EQ(at, 0u);  // Rank 0's first chunk: refused on arrival, not at End.

  ReplicaSnapshot past = SnapshotWithChain(13);
  RbWireEntry at_cursor = past.records[0].back();
  at_cursor.entry_off = past.cursors[0];
  past.records[0].push_back(at_cursor);
  EXPECT_NE(FeedUntilRefused(past).find("outside [delta_from, cursor)"),
            std::string::npos);
}

TEST(SnapshotCodecTest, OverlappingRecordRejectedImmediately) {
  ReplicaSnapshot snap = SnapshotWithChain(19);
  snap.records[0][1].entry_off = snap.records[0][0].entry_off + 8;
  size_t at = 99;
  EXPECT_NE(FeedUntilRefused(snap, &at).find("overlaps its predecessor"),
            std::string::npos);
  EXPECT_EQ(at, 0u);
}

TEST(SnapshotCodecTest, OutOfOrderRecordRejectedImmediately) {
  // A record replayed again after later ones: its offset goes backwards.
  ReplicaSnapshot snap = SnapshotWithChain(23);
  snap.records[0].push_back(snap.records[0][1]);
  EXPECT_NE(FeedUntilRefused(snap).find("out of order"), std::string::npos);
  // The same record twice in a row.
  ReplicaSnapshot dup = SnapshotWithChain(23);
  dup.records[0].insert(dup.records[0].begin() + 1, dup.records[0][0]);
  size_t at = 99;
  EXPECT_NE(FeedUntilRefused(dup, &at).find("out of order"), std::string::npos);
  EXPECT_EQ(at, 0u);
}

TEST(SnapshotCodecTest, EveryRecordCheckRefusesOnArrival) {
  struct Vector {
    const char* error;
    void (*mutate)(ReplicaSnapshot*);
  };
  const Vector vectors[] = {
      {"not a publication",
       [](ReplicaSnapshot* s) { s->records[0][1].final_state = kRbEmpty; }},
      {"not a publication",
       [](ReplicaSnapshot* s) { s->records[0][1].final_state = kRbResultsReady + 1; }},
      {"does not start where the chain ends",  // A gap: record 1 dropped.
       [](ReplicaSnapshot* s) { s->records[0].erase(s->records[0].begin() + 1); }},
      {"does not start where the chain ends",  // The first record past delta_from.
       [](ReplicaSnapshot* s) { s->records[0].erase(s->records[0].begin()); }},
      {"total_size does not chain",  // Shorter than the record's own image.
       [](ReplicaSnapshot* s) {
         RbWireEntry& e = s->records[0][0];
         PutImageU64(&e, kRbOffTotalSize, e.image.size() - 8);
       }},
      {"total_size does not chain",  // Not 8-aligned.
       [](ReplicaSnapshot* s) {
         RbWireEntry& e = s->records[0].back();
         uint64_t total = 0;
         std::memcpy(&total, e.image.data() + kRbOffTotalSize, 8);
         PutImageU64(&e, kRbOffTotalSize, total + 4);
       }},
      {"total_size does not chain",  // Chains past the cursor.
       [](ReplicaSnapshot* s) {
         RbWireEntry& e = s->records[0].back();
         PutImageU64(&e, kRbOffTotalSize, s->cursors[0] - e.entry_off + 8);
       }},
      {"runs past the cursor",
       [](ReplicaSnapshot* s) {
         RbWireEntry& e = s->records[0].back();
         e.image.resize(s->cursors[0] - e.entry_off + 8, 0);
         PutImageU64(&e, kRbOffTotalSize, (e.image.size() + 7) & ~uint64_t{7});
       }},
      {"shorter than an entry header",
       [](ReplicaSnapshot* s) { s->records[0][0].image.resize(kRbEntryHeaderSize - 8); }},
  };
  for (const Vector& v : vectors) {
    ReplicaSnapshot snap = SnapshotWithChain(29);
    v.mutate(&snap);
    std::string error = FeedUntilRefused(snap);
    EXPECT_NE(error.find(v.error), std::string::npos) << v.error << " vs " << error;
  }
}

TEST(SnapshotCodecTest, ChunkRankAndSizeRejectedImmediately) {
  ReplicaSnapshot snap = SnapshotWithChain(31);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  ASSERT_FALSE(payloads.chunks.empty());
  {
    std::vector<uint8_t> chunk = payloads.chunks[0];
    uint32_t rank = static_cast<uint32_t>(snap.max_ranks);
    std::memcpy(chunk.data(), &rank, 4);
    SnapshotAssembler asm_;
    ASSERT_TRUE(asm_.Begin(payloads.begin));
    EXPECT_FALSE(asm_.AddChunk(chunk));
    EXPECT_NE(asm_.error().find("rank out of range"), std::string::npos) << asm_.error();
  }
  {
    std::vector<uint8_t> chunk = payloads.chunks[0];
    uint32_t zero = 0;
    std::memcpy(chunk.data() + 4, &zero, 4);  // No records, yet bytes follow.
    SnapshotAssembler asm_;
    ASSERT_TRUE(asm_.Begin(payloads.begin));
    EXPECT_FALSE(asm_.AddChunk(chunk));
  }
  // Two records past kSnapshotChunkBytes in one chunk: only a lone record may be
  // that large.
  ReplicaSnapshot big;
  big.rb_size = 64 * kPageSize;
  big.max_ranks = 1;
  big.rb_headers.assign(2 * kRbRankHeaderSize, 0);
  uint64_t off = RbView(nullptr, 0, big.rb_size, 1).RankDataStart(0);
  big.delta_from = {off};
  big.records.resize(1);
  for (int i = 0; i < 2; ++i) {
    RbWireEntry e;
    e.entry_off = off;
    e.final_state = kRbArgsReady;
    e.image.assign(kRbEntryHeaderSize + 40 * 1024, 0x5a);
    PutImageU64(&e, kRbOffTotalSize, e.image.size());
    off += e.image.size();
    big.records[0].push_back(std::move(e));
  }
  big.cursors = {off};
  SnapshotPayloads split = SerializeSnapshot(big);
  ASSERT_EQ(split.chunks.size(), 2u);  // The packer never merges them.
  std::vector<uint8_t> merged(8, 0);
  uint32_t two = 2;
  std::memcpy(merged.data() + 4, &two, 4);
  std::vector<uint8_t> records = RbWireCodec::EncodeEntriesPayload(big.records[0]);
  merged.insert(merged.end(), records.begin(), records.end());
  SnapshotAssembler asm_;
  ASSERT_TRUE(asm_.Begin(split.begin)) << asm_.error();
  EXPECT_FALSE(asm_.AddChunk(merged));
  EXPECT_NE(asm_.error().find("out of bounds"), std::string::npos) << asm_.error();
}

TEST(SnapshotCodecTest, RankWindowOutsideSubBufferRejectedAtBegin) {
  RbView layout(nullptr, 0, 64 * kPageSize, 2);
  ReplicaSnapshot cursor_past = SnapshotWithChain(37);
  cursor_past.cursors[1] = layout.RankDataEnd(1) + 8;
  SnapshotAssembler asm_;
  EXPECT_FALSE(BeginSerialized(cursor_past, &asm_));
  EXPECT_NE(asm_.error().find("cursor outside"), std::string::npos) << asm_.error();

  ReplicaSnapshot from_past = SnapshotWithChain(37);
  from_past.delta_from[1] = from_past.cursors[1] + 8;
  asm_.Reset();
  EXPECT_FALSE(BeginSerialized(from_past, &asm_));
  EXPECT_NE(asm_.error().find("resume offset"), std::string::npos) << asm_.error();

  ReplicaSnapshot from_header = SnapshotWithChain(37);
  from_header.delta_from[0] = layout.RankStart(0);  // Inside the rank header.
  asm_.Reset();
  EXPECT_FALSE(BeginSerialized(from_header, &asm_));
}

TEST(SnapshotCodecTest, ChunkBeforeBeginIsProtocolViolation) {
  Rng rng(17);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  ASSERT_FALSE(payloads.chunks.empty());
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.AddChunk(payloads.chunks[0]));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
  // A failed assembler refuses everything until Reset.
  EXPECT_FALSE(asm_.Begin(payloads.begin));
  asm_.Reset();
  EXPECT_TRUE(asm_.Begin(payloads.begin));
}

// --- One checkpoint path: the empty basis vs the ack-folded basis -------------------

// Serializes `snap` and reassembles it through the receiver's codec, as the wire
// would deliver it.
SnapshotAssembler Reassemble(const ReplicaSnapshot& snap) {
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  EXPECT_TRUE(asm_.Begin(payloads.begin)) << asm_.error();
  for (const auto& chunk : payloads.chunks) {
    EXPECT_TRUE(asm_.AddChunk(chunk)) << asm_.error();
  }
  EXPECT_TRUE(asm_.End(payloads.end)) << asm_.error();
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kComplete);
  return asm_;
}

TEST(SnapshotEquivalenceTest, EmptyAndFoldedBasisRestoreIdenticalMirrors) {
  LiveCheckpointWorld live;
  ASSERT_TRUE(live.RunToFoldedBasis());
  IpMon* leader = live.mvee->ipmon(0);
  IpMon* mirror = live.mvee->ipmon(1);
  SyncAgent* replica_sync = live.mvee->sync_agent(1);
  RbView rb = mirror->rb();  // Views are handles: copies write the same mirror.
  RbView log = replica_sync->log();

  ReplicaSnapshot empty = live.Capture(EmptyDeltaBasis(leader->rb_resets()));
  ReplicaSnapshot folded = live.Capture(live.basis);
  // The two differ only in what they ship: the folded cut resumes later, and each
  // of its ranks carries a suffix of the empty cut's records, byte for byte.
  EXPECT_EQ(empty.cursors, folded.cursors);
  EXPECT_EQ(empty.reset_generation, folded.reset_generation);
  EXPECT_EQ(empty.rb_headers, folded.rb_headers);
  for (size_t r = 0; r < empty.records.size(); ++r) {
    const std::vector<RbWireEntry>& all = empty.records[r];
    const std::vector<RbWireEntry>& tail = folded.records[r];
    ASSERT_LE(tail.size(), all.size()) << "rank " << r;
    for (size_t i = 0; i < tail.size(); ++i) {
      const RbWireEntry& same = all[all.size() - tail.size() + i];
      EXPECT_EQ(tail[i].entry_off, same.entry_off) << "rank " << r;
      EXPECT_EQ(tail[i].image, same.image) << "rank " << r;
    }
  }
  bool resumes_later = false;
  for (int r = 0; r < rb.max_ranks(); ++r) {
    size_t i = static_cast<size_t>(r);
    EXPECT_EQ(empty.delta_from[i], rb.RankDataStart(r));
    resumes_later |= folded.delta_from[i] > empty.delta_from[i];
  }
  EXPECT_TRUE(resumes_later);

  // Two copies of the same mirror: restore the saved bytes between the applies.
  const std::vector<uint8_t> rb_before = ReadView(rb);
  const std::vector<uint8_t> log_before = ReadView(log);
  auto apply = [&](const ReplicaSnapshot& snap, std::vector<uint8_t>* rb_out,
                   std::vector<uint8_t>* log_out) {
    rb.WriteBytes(0, rb_before.data(), rb_before.size());
    log.WriteBytes(0, log_before.data(), log_before.size());
    SnapshotAssembler asm_ = Reassemble(snap);
    SnapshotApplyResult res =
        ApplySnapshotToMirror(&live.w.kernel, mirror, replica_sync, asm_.snapshot());
    EXPECT_TRUE(res.ok) << res.error;
    *rb_out = ReadView(rb);
    *log_out = ReadView(log);
    return res;
  };
  std::vector<uint8_t> rb_empty, log_empty, rb_folded, log_folded;
  SnapshotApplyResult from_empty = apply(empty, &rb_empty, &log_empty);
  SnapshotApplyResult from_folded = apply(folded, &rb_folded, &log_folded);
  // The empty basis re-walks every published entry; the folded one only the tail.
  EXPECT_GT(from_empty.entries_restored, from_folded.entries_restored);
  EXPECT_GT(from_folded.sync_slots_restored, 0u);

  for (int r = 0; r < rb.max_ranks(); ++r) {
    uint64_t lo = rb.RankDataStart(r);
    uint64_t hi = empty.cursors[static_cast<size_t>(r)];
    ASSERT_LE(lo, hi);
    EXPECT_TRUE(std::equal(rb_empty.begin() + static_cast<long>(lo),
                           rb_empty.begin() + static_cast<long>(hi),
                           rb_folded.begin() + static_cast<long>(lo)))
        << "rank " << r << " diverged in [" << lo << ", " << hi << ")";
  }
  EXPECT_EQ(log_empty, log_folded);
  EXPECT_EQ(replica_sync->tail(), empty.sync_tail);
}

TEST(SnapshotEquivalenceTest, MirrorOneResetGenerationBehindIsRefusedUntouched) {
  LiveCheckpointWorld live;
  ASSERT_TRUE(live.RunToFoldedBasis());
  IpMon* leader = live.mvee->ipmon(0);
  IpMon* mirror = live.mvee->ipmon(1);
  const RbView& rb = mirror->rb();
  // The reset round runs every IP-MON through OnRbReset, so a live mirror always
  // sits at the leader's generation...
  ASSERT_EQ(mirror->rb_resets(), leader->rb_resets());

  // ...and a checkpoint a generation ahead of the mirror — the mirror one reset
  // behind — is refused before anything is written.
  ReplicaSnapshot snap = live.Capture(EmptyDeltaBasis(leader->rb_resets()));
  ++snap.reset_generation;
  SnapshotAssembler asm_ = Reassemble(snap);
  const std::vector<uint8_t> rb_before = ReadView(rb);
  SnapshotApplyResult res = ApplySnapshotToMirror(&live.w.kernel, mirror,
                                                  live.mvee->sync_agent(1),
                                                  asm_.snapshot());
  EXPECT_FALSE(res.ok);
  EXPECT_NE(std::string(res.error).find("reset generation"), std::string::npos)
      << res.error;
  EXPECT_EQ(ReadView(rb), rb_before);
}

TEST(SnapshotEquivalenceTest, BadRecordInTheLastRankRefusesBeforeAnyWrite) {
  LiveCheckpointWorld live;
  ASSERT_TRUE(live.RunToFoldedBasis());
  IpMon* mirror = live.mvee->ipmon(1);
  SyncAgent* replica_sync = live.mvee->sync_agent(1);
  RbView rb = mirror->rb();
  RbView log = replica_sync->log();
  ReplicaSnapshot snap = live.Capture(EmptyDeltaBasis(live.mvee->ipmon(0)->rb_resets()));
  ASSERT_FALSE(snap.sync_records.empty());
  size_t first = snap.records.size();
  size_t last = 0;
  for (size_t r = 0; r < snap.records.size(); ++r) {
    if (!snap.records[r].empty()) {
      first = std::min(first, r);
      last = r;
    }
  }
  ASSERT_LT(first, snap.records.size());
  // Make every write the apply could make visible: the mirror loses the body of
  // the first record it would replay, and its sync log falls back to the replay
  // cursor, so a restore that ran before the last rank's checks changes both.
  const RbWireEntry& probe = snap.records[first].front();
  std::vector<uint8_t> zeros(probe.image.size() - kRbOffSysno, 0);
  rb.WriteBytes(probe.entry_off + kRbOffSysno, zeros.data(), zeros.size());
  log.WriteU64(kSyncLogOffTail, snap.sync_from);
  snap.records[last].back().final_state = kRbEmpty;  // Not a publication.

  const std::vector<uint8_t> rb_before = ReadView(rb);
  const std::vector<uint8_t> log_before = replica_sync->CaptureLogImage();
  SnapshotApplyResult res =
      ApplySnapshotToMirror(&live.w.kernel, mirror, replica_sync, snap);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(std::string(res.error).find("not a publication"), std::string::npos)
      << res.error;
  EXPECT_EQ(ReadView(rb), rb_before);
  EXPECT_EQ(replica_sync->CaptureLogImage(), log_before);
}

// --- One sync-log replay: live kSyncLog frames and the checkpoint slice --------------

// The replica's sync mirror rewound to just before `snap`'s slice: its tail falls
// back to sync_from and the slice's slots are scrubbed, so a replay writes every op.
void RewindSyncMirror(SyncAgent* agent, const std::vector<uint8_t>& saved,
                      const ReplicaSnapshot& snap) {
  RbView log = agent->log();
  log.WriteBytes(0, saved.data(), saved.size());
  log.WriteU64(kSyncLogOffTail, snap.sync_from);
  const uint8_t zeros[kSyncLogEntrySize] = {};
  for (uint64_t seq = snap.sync_from; seq < snap.sync_tail; ++seq) {
    log.WriteBytes(kSyncLogOffEntries + (seq % agent->capacity()) * kSyncLogEntrySize,
                   zeros, kSyncLogEntrySize);
  }
}

// One kSyncLog frame of the leader's current stream.
RbWireFrame SyncLogFrame(const LiveCheckpointWorld& live, uint64_t start,
                         const RbSyncLogRecord& record) {
  RbWireFrame f;
  f.type = RbFrameType::kSyncLog;
  f.epoch = live.mvee->transport()->epoch();
  f.sync_start = start;
  f.sync_records = {record};
  return f;
}

TEST(SyncReplayTest, LiveFramesAndCheckpointSliceReplayIdentically) {
  LiveCheckpointWorld live;
  ASSERT_TRUE(live.RunToFoldedBasis());
  SyncAgent* replica_sync = live.mvee->sync_agent(1);
  RemoteSyncAgent* agent = live.mvee->remote_agent(1);
  ReplicaSnapshot snap = live.Capture(live.basis);
  ASSERT_GT(snap.sync_records.size(), 1u);
  const std::vector<uint8_t> saved = ReadView(replica_sync->log());

  // Once as the leader streamed them: one kSyncLog frame per append.
  RewindSyncMirror(replica_sync, saved, snap);
  for (size_t k = 0; k < snap.sync_records.size(); ++k) {
    ASSERT_TRUE(agent->InjectFrameForTest(
        SyncLogFrame(live, snap.sync_from + k, snap.sync_records[k])));
  }
  const std::vector<uint8_t> live_image = replica_sync->CaptureLogImage();
  const std::vector<uint8_t> live_log = ReadView(replica_sync->log());
  EXPECT_EQ(replica_sync->tail(), snap.sync_tail);

  // Once as a checkpoint carries them, through the receiver's codec.
  RewindSyncMirror(replica_sync, saved, snap);
  SnapshotAssembler asm_ = Reassemble(snap);
  SnapshotApplyResult res = ApplySnapshotToMirror(&live.w.kernel, live.mvee->ipmon(1),
                                                  replica_sync, asm_.snapshot());
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.sync_slots_restored, snap.sync_records.size());
  EXPECT_EQ(replica_sync->CaptureLogImage(), live_image);
  EXPECT_EQ(ReadView(replica_sync->log()), live_log);
}

TEST(SyncReplayTest, DivergedSlotRefusedByBothPathsWithOneReason) {
  LiveCheckpointWorld live;
  ASSERT_TRUE(live.RunToFoldedBasis());
  SyncAgent* replica_sync = live.mvee->sync_agent(1);
  RemoteSyncAgent* agent = live.mvee->remote_agent(1);
  ReplicaSnapshot snap = live.Capture(live.basis);
  ASSERT_FALSE(snap.sync_records.empty());
  const std::vector<uint8_t> saved = ReadView(replica_sync->log());
  RbView log = replica_sync->log();
  uint64_t slot = kSyncLogOffEntries +
                  (snap.sync_from % replica_sync->capacity()) * kSyncLogEntrySize;

  // The mirror already holds the slice, its first slot changed: a different
  // object under the same op, then a seq that is neither this op nor whole laps
  // past it.
  struct Case {
    uint64_t field;
    uint64_t value;
    const char* reason;
  };
  const RbSyncLogRecord& first = snap.sync_records[0];
  const Case cases[] = {
      {slot, first.object_id + 1u, "sync log diverged from the leader"},
      {slot + 8, snap.sync_from + 1, "sync log slot sequence diverged from the leader"},
  };
  for (const Case& c : cases) {
    RewindSyncMirror(replica_sync, saved, snap);
    ASSERT_EQ(replica_sync->ApplyLog(snap.sync_from, snap.sync_records), nullptr);
    if (c.field == slot) {
      log.WriteU32(c.field, static_cast<uint32_t>(c.value));
    } else {
      log.WriteU64(c.field, c.value);
    }
    const std::vector<uint8_t> before = ReadView(log);

    // The live path: the function a kSyncLog frame replays through.
    const char* live_why = replica_sync->ApplyLog(snap.sync_from, {first});
    ASSERT_NE(live_why, nullptr);
    EXPECT_STREQ(live_why, c.reason);
    EXPECT_EQ(ReadView(log), before);

    // The checkpoint path refuses the join with the same reason, unwritten.
    SnapshotAssembler asm_ = Reassemble(snap);
    SnapshotApplyResult res = ApplySnapshotToMirror(&live.w.kernel, live.mvee->ipmon(1),
                                                    replica_sync, asm_.snapshot());
    EXPECT_FALSE(res.ok);
    EXPECT_STREQ(res.error, c.reason);
    EXPECT_EQ(ReadView(log), before);
  }
  // And the agent tears the link for the frame itself.
  EXPECT_FALSE(agent->InjectFrameForTest(SyncLogFrame(live, snap.sync_from, first)));
  EXPECT_TRUE(agent->link_torn());
}

TEST(SnapshotEquivalenceTest, DeltaReseedMaterializesOnlyWhatItShips) {
  LiveCheckpointWorld live;
  IpMon* leader = live.mvee->ipmon(0);
  IpMon* mirror = live.mvee->ipmon(1);
  // Pause where the leader has published past the folded basis into pages the
  // mirror has not materialized yet, so the re-seed has pages to fault in.
  auto mirror_lags = [&] {
    if (!mirror->rb().valid()) {
      return false;
    }
    const RbView& rb = leader->rb();
    for (int r = 0; r < rb.max_ranks(); ++r) {
      size_t i = static_cast<size_t>(r);
      uint64_t from = i < live.basis.from_off.size() ? live.basis.from_off[i] : 0;
      for (uint64_t off = std::max(from, rb.RankDataStart(r)) & ~kPageMask;
           off < leader->rb_cursor(r); off += kPageSize) {
        if (!mirror->process()->mem().PageMaterialized(mirror->rb().AddrOf(off))) {
          return true;
        }
      }
    }
    return false;
  };
  ASSERT_TRUE(live.RunToFoldedBasis(mirror_lags));
  ReplicaSnapshot snap = live.Capture(live.basis);
  const RbView& rb = mirror->rb();
  const AddressSpace& mirror_mem = mirror->process()->mem();

  // The pages the checkpoint ships: the RB headers and every record's bytes.
  std::set<uint64_t> shipped = {0};
  auto ship = [&shipped](uint64_t lo, uint64_t len) {
    for (uint64_t p = lo / kPageSize; p <= (lo + len - 1) / kPageSize; ++p) {
      shipped.insert(p);
    }
  };
  for (int r = 0; r < rb.max_ranks(); ++r) {
    ship(rb.RankStart(r), kRbRankHeaderSize);
    for (const RbWireEntry& e : snap.records[static_cast<size_t>(r)]) {
      ship(e.entry_off, e.image.size());
    }
  }
  std::vector<bool> resident(rb.size() / kPageSize);
  for (uint64_t p = 0; p < resident.size(); ++p) {
    resident[p] = mirror_mem.PageMaterialized(rb.AddrOf(p * kPageSize));
  }
  uint64_t resident_before = live.w.shm.resident_pages();
  SnapshotAssembler asm_ = Reassemble(snap);
  SnapshotApplyResult res = ApplySnapshotToMirror(&live.w.kernel, mirror,
                                                  live.mvee->sync_agent(1),
                                                  asm_.snapshot());
  ASSERT_TRUE(res.ok) << res.error;
  uint64_t grown = live.w.shm.resident_pages() - resident_before;

  uint64_t faulted = 0;
  for (uint64_t p = 0; p < resident.size(); ++p) {
    if (!resident[p] && mirror_mem.PageMaterialized(rb.AddrOf(p * kPageSize))) {
      ++faulted;
      EXPECT_EQ(shipped.count(p), 1u) << "page " << p << " materialized, not shipped";
    }
  }
  EXPECT_EQ(grown, faulted);  // Only the mirror grew.
  EXPECT_GT(grown, 0u);
  EXPECT_LE(grown, shipped.size());
}

TEST(SnapshotEquivalenceDeathTest, ReseedOfMirrorOffTheLeaderGenerationIsACheck) {
  // The front end never cuts a checkpoint for a mirror the reset round left on a
  // different generation: that state is unreachable, so it is a check, not a
  // scrub branch in the apply.
  LiveCheckpointWorld live;
  ASSERT_TRUE(live.RunToFoldedBasis());
  uint64_t cursor = live.mvee->sync_agent(1)->read_cursor();
  EXPECT_DEATH(
      {
        live.mvee->ipmon(1)->OnRbReset(0);
        live.mvee->MakeReseedPayloads(1, cursor);
      },
      "left behind by an RB reset round");
}

}  // namespace
}  // namespace remon
