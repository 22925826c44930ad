// Tests for the RB wire format (src/core/rb_wire.{h,cc}): CRC and SipHash
// reference vectors, sealed encode/decode round trips under arbitrary stream
// fragmentation, and rejection of truncated, tampered, unsealed or structurally
// bad frames, including a negative corpus of mutated checkpoint payloads through
// the snapshot assembler. docs/RB_WIRE_FORMAT.md is the normative spec the
// expectations here encode.

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "src/core/rb_auth.h"
#include "src/core/rb_wire.h"
#include "src/core/replication_buffer.h"
#include "src/core/snapshot.h"
#include "src/sim/rng.h"
#include "tests/snapshot_fixtures.h"

namespace remon {
namespace {

// Every stream is sealed: test frames are sealed under one context for the
// leader-to-replica flow, as RbTransport seals them, and parsers are keyed with it.
const RbAuthContext& TestAuth() {
  static const RbAuthContext auth("wire-test-secret");
  return auth;
}
constexpr RbAuthDirection kTestDir = RbAuthDirection::kLeaderToReplica;

std::vector<uint8_t> Sealed(std::vector<uint8_t> frame) {
  TestAuth().SealFrame(&frame, kTestDir);
  return frame;
}

RbFrameParser KeyedParser() {
  RbFrameParser parser;
  parser.set_auth(TestAuth(), kTestDir);
  return parser;
}

// Feeds `bytes` into `parser` in random-size chunks (1..17 bytes).
void FeedFragmented(RbFrameParser* parser, const std::vector<uint8_t>& bytes, Rng* rng) {
  size_t pos = 0;
  while (pos < bytes.size()) {
    size_t n = 1 + rng->NextBelow(17);
    n = std::min(n, bytes.size() - pos);
    parser->Feed(bytes.data() + pos, n);
    pos += n;
  }
}

std::vector<RbWireEntry> RandomEntries(Rng* rng, int count) {
  std::vector<RbWireEntry> entries;
  uint64_t off = kRbGlobalHeaderSize + kRbRankHeaderSize;
  for (int i = 0; i < count; ++i) {
    RbWireEntry e;
    e.entry_off = off;
    e.final_state = kRbArgsReady + static_cast<uint32_t>(rng->NextBelow(3));  // 1..3.
    e.image.resize(kRbEntryHeaderSize + rng->NextBelow(300));
    for (uint8_t& b : e.image) {
      b = static_cast<uint8_t>(rng->NextBelow(256));
    }
    off += (e.image.size() + 7) & ~uint64_t{7};
    entries.push_back(std::move(e));
  }
  return entries;
}

TEST(Crc32Test, MatchesIeeeReferenceVector) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xcbf43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(RbWireTest, EntriesRoundTrip) {
  std::vector<RbWireEntry> entries;
  RbWireEntry e;
  e.entry_off = 4096;
  e.final_state = kRbResultsReady;
  e.image = {1, 2, 3, 4, 5, 6, 7, 8};
  entries.push_back(e);

  std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeEntries(
      /*epoch=*/7, /*rank=*/3, /*frame_seq=*/42, entries));
  ASSERT_GE(frame.size(), kRbWireHeaderSize);

  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
  EXPECT_EQ(out.type, RbFrameType::kEntries);
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.rank, 3u);
  EXPECT_EQ(out.frame_seq, 42u);
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(out.entries[0].entry_off, 4096u);
  EXPECT_EQ(out.entries[0].final_state, kRbResultsReady);
  EXPECT_EQ(out.entries[0].image, e.image);
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kNeedMore);
}

TEST(RbWireTest, AckRoundTrip) {
  std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeAck(/*epoch=*/2, /*ack_seq=*/99));
  EXPECT_EQ(frame.size(), kRbWireHeaderSize);
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
  EXPECT_EQ(out.type, RbFrameType::kAck);
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.ack_seq, 99u);
  EXPECT_TRUE(out.entries.empty());
}

// Property: random entry sets survive encode -> fragmented stream ->
// decode byte-identically, including many frames back to back on one stream.
TEST(RbWireTest, RandomizedRoundTripUnderFragmentation) {
  Rng rng(20260730);
  for (int iter = 0; iter < 200; ++iter) {
    int frames = 1 + static_cast<int>(rng.NextBelow(5));
    std::vector<std::vector<RbWireEntry>> sent;
    std::vector<uint8_t> stream;
    for (int f = 0; f < frames; ++f) {
      std::vector<RbWireEntry> entries =
          RandomEntries(&rng, 1 + static_cast<int>(rng.NextBelow(16)));
      std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeEntries(
          1, static_cast<uint32_t>(rng.NextBelow(16)), static_cast<uint64_t>(f),
          entries));
      stream.insert(stream.end(), frame.begin(), frame.end());
      sent.push_back(std::move(entries));
    }

    RbFrameParser parser = KeyedParser();
    FeedFragmented(&parser, stream, &rng);
    for (int f = 0; f < frames; ++f) {
      RbWireFrame out;
      ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame)
          << "iter " << iter << " frame " << f;
      ASSERT_EQ(out.entries.size(), sent[static_cast<size_t>(f)].size());
      for (size_t i = 0; i < out.entries.size(); ++i) {
        const RbWireEntry& a = out.entries[i];
        const RbWireEntry& b = sent[static_cast<size_t>(f)][i];
        EXPECT_EQ(a.entry_off, b.entry_off);
        EXPECT_EQ(a.final_state, b.final_state);
        ASSERT_EQ(a.image, b.image) << "iter " << iter << " frame " << f;
      }
    }
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kNeedMore);
    EXPECT_FALSE(parser.corrupt());
  }
}

TEST(RbWireTest, TruncatedFrameIsNeedMoreNotCorrupt) {
  Rng rng(7);
  std::vector<uint8_t> frame =
      Sealed(RbWireCodec::EncodeEntries(1, 0, 1, RandomEntries(&rng, 3)));
  RbFrameParser parser = KeyedParser();
  RbWireFrame out;
  // Every strict prefix is "need more", never a frame and never corruption.
  for (size_t cut = 0; cut < frame.size(); cut += 13) {
    RbFrameParser fresh = KeyedParser();
    fresh.Feed(frame.data(), cut);
    EXPECT_EQ(fresh.Next(&out), RbFrameParser::Status::kNeedMore) << cut;
    EXPECT_FALSE(fresh.corrupt());
  }
  parser.Feed(frame.data(), frame.size());
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
}

TEST(RbWireTest, CorruptPayloadByteFailsMac) {
  Rng rng(11);
  std::vector<uint8_t> frame =
      Sealed(RbWireCodec::EncodeEntries(1, 0, 1, RandomEntries(&rng, 2)));
  frame[kRbWireHeaderSize + 5] ^= 0x40;  // One flipped bit in the first entry.
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  EXPECT_TRUE(parser.corrupt());
  EXPECT_STREQ(parser.corrupt_reason(), "MAC verification failed");
  // The stream is latched dead: even a pristine follow-up frame is rejected.
  std::vector<uint8_t> good = Sealed(RbWireCodec::EncodeAck(1, 1));
  parser.Feed(good.data(), good.size());
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
}

TEST(RbWireTest, BadMagicAndBadVersionRejected) {
  std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeAck(1, 1));
  {
    std::vector<uint8_t> bad = frame;
    bad[0] ^= 0xff;
    RbFrameParser parser = KeyedParser();
    parser.Feed(bad.data(), bad.size());
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  }
  {
    std::vector<uint8_t> bad = frame;
    bad[4] = 0x7f;  // version low byte
    RbFrameParser parser = KeyedParser();
    parser.Feed(bad.data(), bad.size());
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  }
}

TEST(RbWireTest, OversizedPayloadRejectedBeforeBuffering) {
  std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeAck(1, 1));
  uint32_t huge = kRbWireMaxPayload + 1;
  std::memcpy(frame.data() + 20, &huge, 4);  // payload_len field.
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  // Rejected from the header alone — no need to feed 16 MiB first.
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
}

// --- Snapshot frames (replica re-seed) ---------------------------------------------

TEST(RbWireTest, SnapshotFramesRoundTripWithOpaquePayload) {
  Rng rng(21);
  std::vector<uint8_t> payload(3000);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  std::vector<uint8_t> stream;
  uint64_t seq = 0;
  for (RbFrameType type : {RbFrameType::kSnapshotBegin, RbFrameType::kSnapshotChunk,
                           RbFrameType::kSnapshotEnd}) {
    std::vector<uint8_t> frame = Sealed(RbWireCodec::FrameFromPayload(
        type, /*epoch=*/3, /*rank=*/2, ++seq, /*count=*/0, payload));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  RbFrameParser parser = KeyedParser();
  FeedFragmented(&parser, stream, &rng);
  for (RbFrameType type : {RbFrameType::kSnapshotBegin, RbFrameType::kSnapshotChunk,
                           RbFrameType::kSnapshotEnd}) {
    RbWireFrame out;
    ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
    EXPECT_EQ(out.type, type);
    EXPECT_EQ(out.epoch, 3u);
    EXPECT_EQ(out.rank, 2u);
    EXPECT_TRUE(out.entries.empty());
    EXPECT_EQ(out.payload, payload);
  }
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kNeedMore);
}

TEST(RbWireTest, CorruptSnapshotChunkByteFailsFrameMac) {
  std::vector<uint8_t> payload(512, 0x5a);
  std::vector<uint8_t> frame = Sealed(RbWireCodec::FrameFromPayload(
      RbFrameType::kSnapshotChunk, 2, 1, 7, /*count=*/0, payload));
  frame[kRbWireHeaderSize + 100] ^= 0x08;
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  EXPECT_TRUE(parser.corrupt());
}

TEST(RbWireTest, TruncatedSnapshotChunkIsNeedMoreUntilComplete) {
  std::vector<uint8_t> payload(4096, 0x11);
  std::vector<uint8_t> frame = Sealed(RbWireCodec::FrameFromPayload(
      RbFrameType::kSnapshotChunk, 2, 1, 9, /*count=*/0, payload));
  for (size_t cut : {size_t{10}, kRbWireHeaderSize, frame.size() - 1}) {
    RbFrameParser parser = KeyedParser();
    parser.Feed(frame.data(), cut);
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kNeedMore) << cut;
    EXPECT_FALSE(parser.corrupt());
  }
}

TEST(RbWireTest, SnapshotFrameWithEntryCountRejected) {
  // entry_count is meaningful only for kEntries; a snapshot frame claiming entries
  // is structurally corrupt even with a valid MAC.
  std::vector<uint8_t> payload(64, 0x22);
  std::vector<uint8_t> frame = RbWireCodec::FrameFromPayload(
      RbFrameType::kSnapshotEnd, 2, 0, 3, /*count=*/0, payload);
  uint32_t one = 1;
  std::memcpy(frame.data() + 16, &one, 4);  // entry_count field.
  frame = Sealed(std::move(frame));
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  EXPECT_STREQ(parser.corrupt_reason(), "snapshot frame carries entries");
}

// End-to-end: serialized snapshot payloads survive the wire framing + arbitrary
// fragmentation and reassemble into the identical checkpoint records.
TEST(RbWireTest, SnapshotPayloadsThroughWireFraming) {
  Rng rng(31);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 256 * kPageSize, 4);  // Several chunks.
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  ASSERT_GT(payloads.chunks.size(), 2u);
  std::vector<uint8_t> stream;
  uint64_t seq = 0;
  auto add = [&](RbFrameType type, const std::vector<uint8_t>& p) {
    std::vector<uint8_t> frame =
        Sealed(RbWireCodec::FrameFromPayload(type, 2, 1, ++seq, /*count=*/0, p));
    stream.insert(stream.end(), frame.begin(), frame.end());
  };
  add(RbFrameType::kSnapshotBegin, payloads.begin);
  for (const auto& c : payloads.chunks) {
    add(RbFrameType::kSnapshotChunk, c);
  }
  add(RbFrameType::kSnapshotEnd, payloads.end);

  RbFrameParser parser = KeyedParser();
  FeedFragmented(&parser, stream, &rng);
  SnapshotAssembler assembler;
  RbWireFrame out;
  while (parser.Next(&out) == RbFrameParser::Status::kFrame) {
    switch (out.type) {
      case RbFrameType::kSnapshotBegin:
        ASSERT_TRUE(assembler.Begin(out.payload)) << assembler.error();
        break;
      case RbFrameType::kSnapshotChunk:
        ASSERT_TRUE(assembler.AddChunk(out.payload)) << assembler.error();
        break;
      case RbFrameType::kSnapshotEnd:
        ASSERT_TRUE(assembler.End(out.payload)) << assembler.error();
        break;
      default:
        FAIL() << "unexpected frame type";
    }
  }
  ASSERT_EQ(assembler.state(), SnapshotAssembler::State::kComplete);
  ExpectSameRecords(assembler.snapshot().records, snap.records);
  EXPECT_EQ(assembler.snapshot().rb_headers, snap.rb_headers);
  EXPECT_EQ(assembler.snapshot().delta_from, snap.delta_from);
}

// --- kSyncLog frames (sync-agent log transport) ------------------------------------

std::vector<RbSyncLogRecord> RandomSyncRecords(Rng* rng, int count) {
  std::vector<RbSyncLogRecord> records;
  for (int i = 0; i < count; ++i) {
    records.push_back(RbSyncLogRecord{static_cast<uint32_t>(rng->NextBelow(1 << 20)),
                                      static_cast<uint32_t>(rng->NextBelow(16))});
  }
  return records;
}

TEST(RbWireTest, SyncLogRoundTrip) {
  std::vector<RbSyncLogRecord> records{{42, 1}, {7, 0}, {42, 3}};
  std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeSyncLog(
      /*epoch=*/5, /*frame_seq=*/9, /*start_index=*/1234, records));
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
  EXPECT_EQ(out.type, RbFrameType::kSyncLog);
  EXPECT_EQ(out.epoch, 5u);
  EXPECT_EQ(out.frame_seq, 9u);
  EXPECT_EQ(out.sync_start, 1234u);
  EXPECT_EQ(out.sync_records, records);
  EXPECT_TRUE(out.entries.empty());
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kNeedMore);
}

// Property: random sync-log flushes interleaved with entry frames survive
// encode -> fragmented stream -> decode byte-identically (the two data-frame
// types share one connection in production).
TEST(RbWireTest, RandomizedSyncLogRoundTripUnderFragmentation) {
  Rng rng(20260731);
  for (int iter = 0; iter < 200; ++iter) {
    int frames = 1 + static_cast<int>(rng.NextBelow(5));
    std::vector<uint8_t> stream;
    std::vector<std::pair<uint64_t, std::vector<RbSyncLogRecord>>> sent_sync;
    std::vector<std::vector<RbWireEntry>> sent_entries;
    std::vector<bool> is_sync;
    uint64_t index = rng.NextBelow(1 << 30);
    for (int f = 0; f < frames; ++f) {
      if (rng.NextBelow(2) == 0) {
        std::vector<RbSyncLogRecord> records =
            RandomSyncRecords(&rng, 1 + static_cast<int>(rng.NextBelow(16)));
        std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeSyncLog(
            1, static_cast<uint64_t>(f), index, records));
        stream.insert(stream.end(), frame.begin(), frame.end());
        index += records.size();
        sent_sync.emplace_back(index - records.size(), std::move(records));
        is_sync.push_back(true);
      } else {
        std::vector<RbWireEntry> entries =
            RandomEntries(&rng, 1 + static_cast<int>(rng.NextBelow(8)));
        std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeEntries(
            1, static_cast<uint32_t>(rng.NextBelow(16)), static_cast<uint64_t>(f),
            entries));
        stream.insert(stream.end(), frame.begin(), frame.end());
        sent_entries.push_back(std::move(entries));
        is_sync.push_back(false);
      }
    }
    RbFrameParser parser = KeyedParser();
    FeedFragmented(&parser, stream, &rng);
    size_t si = 0;
    size_t ei = 0;
    for (int f = 0; f < frames; ++f) {
      RbWireFrame out;
      ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame)
          << "iter " << iter << " frame " << f;
      if (is_sync[static_cast<size_t>(f)]) {
        ASSERT_EQ(out.type, RbFrameType::kSyncLog);
        EXPECT_EQ(out.sync_start, sent_sync[si].first);
        ASSERT_EQ(out.sync_records, sent_sync[si].second) << "iter " << iter;
        ++si;
      } else {
        ASSERT_EQ(out.type, RbFrameType::kEntries);
        ASSERT_EQ(out.entries.size(), sent_entries[ei].size());
        ++ei;
      }
    }
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kNeedMore);
    EXPECT_FALSE(parser.corrupt());
  }
}

TEST(RbWireTest, TruncatedSyncLogFrameIsNeedMoreNotCorrupt) {
  Rng rng(17);
  std::vector<uint8_t> frame =
      Sealed(RbWireCodec::EncodeSyncLog(1, 1, 0, RandomSyncRecords(&rng, 5)));
  RbWireFrame out;
  for (size_t cut = 0; cut < frame.size(); cut += 7) {
    RbFrameParser fresh = KeyedParser();
    fresh.Feed(frame.data(), cut);
    EXPECT_EQ(fresh.Next(&out), RbFrameParser::Status::kNeedMore) << cut;
    EXPECT_FALSE(fresh.corrupt());
  }
}

TEST(RbWireTest, CorruptSyncLogByteFailsMac) {
  Rng rng(19);
  std::vector<uint8_t> frame =
      Sealed(RbWireCodec::EncodeSyncLog(1, 1, 77, RandomSyncRecords(&rng, 4)));
  frame[kRbWireHeaderSize + 11] ^= 0x10;  // One flipped record bit.
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  EXPECT_TRUE(parser.corrupt());
}

TEST(RbWireTest, SyncLogCountPayloadMismatchIsStructurallyCorrupt) {
  // A record count disagreeing with payload_len is corruption even under a valid
  // MAC (mirrors the entry-record overrun vector below).
  Rng rng(23);
  std::vector<uint8_t> frame =
      RbWireCodec::EncodeSyncLog(1, 1, 5, RandomSyncRecords(&rng, 3));
  uint32_t lied = 4;  // Claims one more record than the payload carries.
  std::memcpy(frame.data() + 16, &lied, 4);  // entry_count field.
  frame = Sealed(std::move(frame));
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  EXPECT_STREQ(parser.corrupt_reason(), "sync-log count/length mismatch");
}

TEST(RbWireTest, EmptySyncLogFrameIsStructurallyCorrupt) {
  // A flush only happens when records are pending; a zero-record sync frame
  // cannot be produced and is rejected on receive.
  std::vector<uint8_t> payload(kRbWireSyncHeaderSize, 0);
  std::vector<uint8_t> frame = Sealed(
      RbWireCodec::FrameFromPayload(RbFrameType::kSyncLog, 1, 0, 1, /*count=*/0, payload));
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
}

// --- Ack-piggybacked cursors + join attestation ------------------------------------

TEST(RbWireTest, AckCursorRoundTrip) {
  std::vector<uint8_t> frame =
      Sealed(RbWireCodec::EncodeAck(/*epoch=*/3, /*ack_seq=*/17, /*sync_cursor=*/4242));
  EXPECT_EQ(frame.size(), kRbWireHeaderSize);
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
  EXPECT_EQ(out.type, RbFrameType::kAck);
  EXPECT_EQ(out.epoch, 3u);
  EXPECT_EQ(out.ack_seq, 17u);
  EXPECT_EQ(out.ack_cursor, 4242u);
  // The cursor rides in the header's frame_seq slot; the parser moves it out so
  // acks keep their pre-v4 "no data sequence" reading.
  EXPECT_EQ(out.frame_seq, 0u);
}

TEST(RbWireTest, JoinAttestRoundTrip) {
  std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeJoinAttest(
      /*epoch=*/2, /*replica_index=*/5, /*config_digest=*/0xfeedfacecafebeefull,
      /*sync_cursor=*/321));
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
  EXPECT_EQ(out.type, RbFrameType::kJoinAttest);
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.attest_replica, 5u);
  EXPECT_EQ(out.attest_digest, 0xfeedfacecafebeefull);
  EXPECT_EQ(out.attest_cursor, 321u);
  // Default placement: in-place respawn attests machine 0.
  EXPECT_EQ(out.attest_machine, 0u);
}

TEST(RbWireTest, JoinAttestCarriesPlacementMachine) {
  // A migrating replacement attests the machine it actually landed on, so the
  // leader can verify respawn-as-migration placement before serving it.
  std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeJoinAttest(
      /*epoch=*/4, /*replica_index=*/2, /*config_digest=*/0x1122334455667788ull,
      /*sync_cursor=*/99, /*machine=*/7));
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
  EXPECT_EQ(out.type, RbFrameType::kJoinAttest);
  EXPECT_EQ(out.attest_replica, 2u);
  EXPECT_EQ(out.attest_digest, 0x1122334455667788ull);
  EXPECT_EQ(out.attest_cursor, 99u);
  EXPECT_EQ(out.attest_machine, 7u);
}

// Rewrites a u16 header field of an unsealed frame and leaves it unsealed.
std::vector<uint8_t> PlainRestampU16(std::vector<uint8_t> frame, size_t off, uint16_t v) {
  std::memcpy(frame.data() + off, &v, 2);
  return frame;
}

// The same rewrite, sealed, so only the field's meaning — not the tag — can
// reject it.
std::vector<uint8_t> RestampU16(std::vector<uint8_t> frame, size_t off, uint16_t v) {
  return Sealed(PlainRestampU16(std::move(frame), off, v));
}

// The trailer wire v7 and earlier sent on unauthenticated streams: a CRC-32 over
// the frame with bytes 40-47 zeroed, in bytes 40-43. No v8 parser accepts it.
std::vector<uint8_t> WithCrcTrailer(std::vector<uint8_t> frame) {
  std::memset(frame.data() + 40, 0, 8);
  uint32_t crc = Crc32(frame.data(), frame.size());
  std::memcpy(frame.data() + 40, &crc, 4);
  return frame;
}

// Wire v6 retired the separate delta begin frame (type 8): every checkpoint opens
// with SNAPSHOT_BEGIN. v7 retired the v6 page-image checkpoint payloads, and v8
// the unsealed stream. A type-8 frame and a version-5, -6 or -7 header are all
// corrupt — nothing speaks an older version — and latch the parser even when
// sealed with the right key; a frame with the CRC trailer and no tag fails the
// MAC check.
TEST(RbWireTest, RetiredAndUnsealedFramesLatchCorrupt) {
  std::vector<uint8_t> begin = RbWireCodec::FrameFromPayload(
      RbFrameType::kSnapshotBegin, /*epoch=*/6, /*rank=*/1, /*frame_seq=*/42, /*count=*/0,
      std::vector<uint8_t>(257, 0x3c));
  struct Vector {
    std::vector<uint8_t> frame;
    const char* reason;
  };
  std::vector<Vector> vectors = {
      {RestampU16(begin, 6, 8), "unknown frame type"},
      {RestampU16(begin, 4, 5), "bad magic/version"},
      {RestampU16(begin, 4, 6), "bad magic/version"},
      {RestampU16(begin, 4, 7), "bad magic/version"},
      {WithCrcTrailer(begin), "MAC verification failed"},
  };
  std::vector<uint8_t> good = Sealed(begin);
  for (const Vector& v : vectors) {
    RbFrameParser parser = KeyedParser();
    parser.Feed(v.frame.data(), v.frame.size());
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
    EXPECT_STREQ(parser.corrupt_reason(), v.reason);
    EXPECT_TRUE(parser.corrupt());
    // Latched: a valid frame behind it is never decoded.
    parser.Feed(good.data(), good.size());
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  }
}

// A parser never keyed with set_auth has no decode path at all: it is latched
// before its first frame and stays latched.
TEST(RbWireTest, UnkeyedParserLatchesCorrupt) {
  std::vector<uint8_t> frame = Sealed(RbWireCodec::EncodeAck(1, 1));
  RbFrameParser parser;
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  EXPECT_TRUE(parser.corrupt());
  EXPECT_STREQ(parser.corrupt_reason(), "no authentication context");
  EXPECT_EQ(parser.frames_decoded(), 0u);
}

TEST(RbWireTest, TruncatedJoinAttestPayloadRejected) {
  std::vector<uint8_t> frame = RbWireCodec::EncodeJoinAttest(1, 1, 2, 3);
  uint32_t short_len = kRbWireAttestPayloadSize - 8;
  std::memcpy(frame.data() + 20, &short_len, 4);  // payload_len field.
  frame.resize(kRbWireHeaderSize + short_len);
  frame = Sealed(std::move(frame));
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  EXPECT_STREQ(parser.corrupt_reason(), "malformed join attestation");
}

// --- Sealing: keys, directions, epochs ----------------------------------------------

TEST(SipHashTest, MatchesReferenceVectors) {
  // Vectors from the SipHash reference implementation's test program: key
  // 000102...0f, message 00 01 02 ... (n-1), cross-checked against an
  // independent implementation of the spec.
  constexpr uint64_t k0 = 0x0706050403020100ull;
  constexpr uint64_t k1 = 0x0f0e0d0c0b0a0908ull;
  uint8_t msg[16];
  for (size_t i = 0; i < sizeof(msg); ++i) {
    msg[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(SipHash24(k0, k1, msg, 0), 0x726fdb47dd0e0e31ull);
  EXPECT_EQ(SipHash24(k0, k1, msg, 1), 0x74f839c593dc67fdull);
  EXPECT_EQ(SipHash24(k0, k1, msg, 8), 0x93f5f5799a932462ull);
  EXPECT_EQ(SipHash24(k0, k1, msg, 15), 0xa129ca6149be45e5ull);
}

TEST(RbWireAuthTest, SealedFramesRoundTripAllTypes) {
  Rng rng(41);
  RbAuthContext auth("test-secret");
  std::vector<RbWireEntry> entries = RandomEntries(&rng, 3);
  std::vector<RbSyncLogRecord> records = RandomSyncRecords(&rng, 4);
  std::vector<uint8_t> snap_payload(700, 0x5c);

  std::vector<std::vector<uint8_t>> frames;
  frames.push_back(RbWireCodec::EncodeEntries(2, 1, 1, entries));
  frames.push_back(RbWireCodec::EncodeSyncLog(2, 2, 50, records));
  frames.push_back(RbWireCodec::FrameFromPayload(RbFrameType::kSnapshotChunk, 2, 0, 3,
                                                 /*count=*/0, snap_payload));
  std::vector<uint8_t> stream;
  for (auto& f : frames) {
    std::vector<uint8_t> plain = f;
    auth.SealFrame(&f, RbAuthDirection::kLeaderToReplica);
    ASSERT_EQ(f.size(), plain.size());
    if (f.size() > kRbWireHeaderSize) {
      // The payload actually travels encrypted.
      EXPECT_NE(std::memcmp(f.data() + kRbWireHeaderSize,
                            plain.data() + kRbWireHeaderSize,
                            f.size() - kRbWireHeaderSize),
                0);
    }
    stream.insert(stream.end(), f.begin(), f.end());
  }

  RbFrameParser parser;
  parser.set_auth(auth, RbAuthDirection::kLeaderToReplica);
  FeedFragmented(&parser, stream, &rng);
  RbWireFrame out;
  ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
  ASSERT_EQ(out.type, RbFrameType::kEntries);
  ASSERT_EQ(out.entries.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(out.entries[i].image, entries[i].image);
  }
  ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
  ASSERT_EQ(out.type, RbFrameType::kSyncLog);
  EXPECT_EQ(out.sync_records, records);
  ASSERT_EQ(parser.Next(&out), RbFrameParser::Status::kFrame);
  ASSERT_EQ(out.type, RbFrameType::kSnapshotChunk);
  EXPECT_EQ(out.payload, snap_payload);
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kNeedMore);
  EXPECT_FALSE(parser.corrupt());
}

TEST(RbWireAuthTest, TamperedSealedFrameRejected) {
  Rng rng(43);
  RbAuthContext auth("test-secret");
  std::vector<uint8_t> frame = RbWireCodec::EncodeEntries(1, 0, 1, RandomEntries(&rng, 2));
  auth.SealFrame(&frame, RbAuthDirection::kLeaderToReplica);
  for (size_t flip : {size_t{8}, size_t{41}, kRbWireHeaderSize + 3, frame.size() - 1}) {
    std::vector<uint8_t> bad = frame;
    bad[flip] ^= 0x20;
    RbFrameParser parser;
    parser.set_auth(auth, RbAuthDirection::kLeaderToReplica);
    parser.Feed(bad.data(), bad.size());
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt) << flip;
    EXPECT_STREQ(parser.corrupt_reason(), "MAC verification failed");
  }
}

TEST(RbWireAuthTest, WrongKeyDirectionOrEpochRejected) {
  Rng rng(47);
  std::vector<uint8_t> sealed = RbWireCodec::EncodeEntries(3, 0, 1, RandomEntries(&rng, 1));
  RbAuthContext auth("test-secret");
  auth.SealFrame(&sealed, RbAuthDirection::kLeaderToReplica);

  // Different secret: never opens.
  {
    RbAuthContext other("other-secret");
    std::vector<uint8_t> f = sealed;
    RbFrameParser parser;
    parser.set_auth(other, RbAuthDirection::kLeaderToReplica);
    parser.Feed(f.data(), f.size());
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  }
  // Right secret, wrong flow direction: a reflected frame never opens.
  {
    std::vector<uint8_t> f = sealed;
    RbFrameParser parser;
    parser.set_auth(auth, RbAuthDirection::kReplicaToLeader);
    parser.Feed(f.data(), f.size());
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  }
  // Same frame re-stamped with a different epoch: the per-epoch session key no
  // longer matches the tag (key rotation at epoch bumps is what retires captured
  // frames from dead replicas).
  {
    std::vector<uint8_t> f = sealed;
    uint32_t epoch = 4;
    std::memcpy(f.data() + 8, &epoch, 4);
    RbFrameParser parser;
    parser.set_auth(auth, RbAuthDirection::kLeaderToReplica);
    parser.Feed(f.data(), f.size());
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  }
  // Unkeyed parser: a sealed frame is never decoded without the key.
  {
    std::vector<uint8_t> f = sealed;
    RbFrameParser parser;
    parser.Feed(f.data(), f.size());
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  }
}

// Negative corpus: mutated sealed frames must never crash the parser — every
// mutation either still parses (mutations can cancel out only with the key, so
// in practice they reject) or lands on kCorrupt; no UB, no hang, no wild reads.
// Run under ASan/UBSan in CI (frame-parser robustness gate).
TEST(RbWireNegativeCorpus, MutatedAuthFramesNeverCrashParser) {
  Rng rng(53);
  std::vector<uint8_t> begin = RbWireCodec::FrameFromPayload(
      RbFrameType::kSnapshotBegin, 1, 0, 3, /*count=*/0, std::vector<uint8_t>(128, 0x7e));
  std::vector<std::vector<uint8_t>> corpus;
  corpus.push_back(Sealed(RbWireCodec::EncodeEntries(1, 0, 1, RandomEntries(&rng, 2))));
  corpus.push_back(Sealed(RbWireCodec::EncodeSyncLog(1, 2, 9, RandomSyncRecords(&rng, 3))));
  corpus.push_back(Sealed(RbWireCodec::EncodeAck(1, 5, 77)));
  corpus.push_back(Sealed(RbWireCodec::EncodeJoinAttest(1, 2, 0x1234, 8)));
  corpus.push_back(Sealed(begin));
  // Must-latch-corrupt before any mutation: the retired delta begin type and
  // version-5/6/7/9 headers sealed with the right key, a version-9 header left
  // unsealed (v9's SNAPSHOT_BEGIN was 104 bytes, v10's is 80), and frames
  // carrying the v7 unauthenticated CRC trailer instead of a tag.
  struct MustLatch {
    std::vector<uint8_t> frame;
    const char* reason;
  };
  const std::vector<MustLatch> must_latch = {
      {RestampU16(begin, 6, 8), "unknown frame type"},
      {RestampU16(begin, 4, 5), "bad magic/version"},
      {RestampU16(begin, 4, 6), "bad magic/version"},
      {RestampU16(begin, 4, 7), "bad magic/version"},
      {RestampU16(begin, 4, 9), "bad magic/version"},
      {PlainRestampU16(begin, 4, 9), "bad magic/version"},
      {WithCrcTrailer(RestampU16(begin, 4, 7)), "bad magic/version"},
      {WithCrcTrailer(begin), "MAC verification failed"},
      {WithCrcTrailer(RbWireCodec::EncodeEntries(1, 0, 1, RandomEntries(&rng, 2))),
       "MAC verification failed"},
      {WithCrcTrailer(RbWireCodec::EncodeAck(1, 5, 77)), "MAC verification failed"},
  };
  for (const MustLatch& v : must_latch) {
    RbFrameParser parser = KeyedParser();
    parser.Feed(v.frame.data(), v.frame.size());
    RbWireFrame out;
    EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
    EXPECT_STREQ(parser.corrupt_reason(), v.reason);
    corpus.push_back(v.frame);
  }

  std::mt19937_64 mut(0x5eedc0de);  // Deterministic: failures reproduce.
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> frame = corpus[mut() % corpus.size()];
    int flips = 1 + static_cast<int>(mut() % 8);
    for (int i = 0; i < flips; ++i) {
      frame[mut() % frame.size()] ^= static_cast<uint8_t>(1 + (mut() % 255));
    }
    if (mut() % 4 == 0) {
      frame.resize(mut() % (frame.size() + 1));  // Truncations too.
    }
    RbFrameParser parser = KeyedParser();
    parser.Feed(frame.data(), frame.size());
    RbWireFrame out;
    RbFrameParser::Status st = parser.Next(&out);
    EXPECT_TRUE(st == RbFrameParser::Status::kCorrupt ||
                st == RbFrameParser::Status::kNeedMore ||
                st == RbFrameParser::Status::kFrame)
        << iter;
  }
}

// Re-stamps the chunk count, bytes and chained CRC that Begin and End announce
// (offsets from docs/RB_WIRE_FORMAT.md) to match the chunks as they now stand.
void RestampChunkSummary(SnapshotPayloads* p) {
  uint64_t bytes = 0;
  uint32_t crc = 0;
  for (const std::vector<uint8_t>& c : p->chunks) {
    bytes += c.size();
    crc = Crc32(c.data(), c.size(), crc);
  }
  uint32_t count = static_cast<uint32_t>(p->chunks.size());
  if (p->begin.size() >= 32) {
    std::memcpy(p->begin.data() + 16, &bytes, 8);
    std::memcpy(p->begin.data() + 24, &crc, 4);
    std::memcpy(p->begin.data() + 28, &count, 4);
  }
  if (p->end.size() == 16) {
    std::memcpy(p->end.data(), &bytes, 8);
    std::memcpy(p->end.data() + 8, &crc, 4);
    std::memcpy(p->end.data() + 12, &count, 4);
  }
}

// Negative corpus for the checkpoint codec: seeded, randomly mutated, truncated,
// dropped or duplicated Begin/Chunk/End payloads of two real checkpoints (full
// and ack-folded) go through SnapshotAssembler, then through
// ApplySnapshotToMirror whenever assembly completes. Half the chunk mutations
// re-stamp the announced count, bytes and CRC so they reach the record checks.
// The rule is reject, never crash; CI runs it under ASan/UBSan.
TEST(SnapshotNegativeCorpus, MutatedPayloadsNeverCrashAssembler) {
  LiveCheckpointWorld live;
  ASSERT_TRUE(live.RunToFoldedBasis());
  IpMon* mirror = live.mvee->ipmon(1);
  SyncAgent* replica_sync = live.mvee->sync_agent(1);
  const std::vector<SnapshotPayloads> corpus = {
      SerializeSnapshot(live.Capture(EmptyDeltaBasis(live.mvee->ipmon(0)->rb_resets()))),
      SerializeSnapshot(live.Capture(live.basis)),
  };
  ASSERT_FALSE(corpus[0].chunks.empty());

  std::mt19937_64 mut(0x5eed5a5e);  // Deterministic: failures reproduce.
  int assembled = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    SnapshotPayloads p = corpus[mut() % corpus.size()];
    size_t pick = mut() % (p.chunks.size() + 2);
    std::vector<uint8_t>& target =
        pick == 0 ? p.begin : (pick == 1 ? p.end : p.chunks[pick - 2]);
    int flips = static_cast<int>(mut() % 9);  // Zero flips: truncation or reorder only.
    for (int i = 0; i < flips && !target.empty(); ++i) {
      target[mut() % target.size()] ^= static_cast<uint8_t>(1 + (mut() % 255));
    }
    if (mut() % 4 == 0) {
      target.resize(mut() % (target.size() + 1));
    }
    if (mut() % 8 == 0 && !p.chunks.empty()) {
      size_t c = mut() % p.chunks.size();
      if (mut() % 2 == 0) {
        p.chunks.erase(p.chunks.begin() + static_cast<long>(c));
      } else {
        p.chunks.insert(p.chunks.begin() + static_cast<long>(c), p.chunks[c]);
      }
    }
    if (pick >= 2 && mut() % 2 == 0) {
      RestampChunkSummary(&p);
    }
    SnapshotAssembler assembler;
    bool ok = assembler.Begin(p.begin);
    for (size_t c = 0; ok && c < p.chunks.size(); ++c) {
      ok = assembler.AddChunk(p.chunks[c]);
    }
    ok = ok && assembler.End(p.end);
    EXPECT_EQ(ok, assembler.state() == SnapshotAssembler::State::kComplete) << iter;
    if (ok) {
      ++assembled;
      ApplySnapshotToMirror(&live.w.kernel, mirror, replica_sync, assembler.snapshot());
    }
  }
  EXPECT_GT(assembled, 0);  // Some mutations assemble and reach the apply.
}

TEST(RbWireTest, EntryRecordOverrunningPayloadRejected) {
  // Hand-craft a frame whose entry record claims more image bytes than the payload
  // holds; the frame is sealed after the edit so only the structural check can
  // catch it.
  Rng rng(13);
  std::vector<RbWireEntry> entries = RandomEntries(&rng, 1);
  std::vector<uint8_t> frame = RbWireCodec::EncodeEntries(1, 0, 1, entries);
  uint32_t lied = static_cast<uint32_t>(entries[0].image.size()) + 64;
  std::memcpy(frame.data() + kRbWireHeaderSize + 12, &lied, 4);  // image_len field.
  frame = Sealed(std::move(frame));

  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  EXPECT_STREQ(parser.corrupt_reason(), "entry image overruns payload");
}

TEST(RbWireTest, EntryCountBeyondPayloadRejectedBeforeAllocation) {
  // A MAC-valid frame claiming 2^32-1 records in a 100-byte payload: the count is
  // refused from the payload length alone, before it can size an allocation.
  Rng rng(17);
  std::vector<uint8_t> frame =
      RbWireCodec::EncodeEntries(1, 0, 1, RandomEntries(&rng, 1));
  uint32_t lied = 0xffffffffu;
  std::memcpy(frame.data() + 16, &lied, 4);  // entry_count field.
  frame = Sealed(std::move(frame));
  RbFrameParser parser = KeyedParser();
  parser.Feed(frame.data(), frame.size());
  RbWireFrame out;
  EXPECT_EQ(parser.Next(&out), RbFrameParser::Status::kCorrupt);
  EXPECT_STREQ(parser.corrupt_reason(), "entry record overruns payload");
}

// --- Results-only records (wire v9) ------------------------------------------------

// A leader RB and separate mirror segments, as a remote replica's agent sees them:
// records are read from the leader and replayed into a mirror.
class ResultsOnlyRecordTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRbSize = 64 * kPageSize;
  static constexpr int kRanks = 2;
  static constexpr uint64_t kSigLen = 40;

  void SetUp() override { leader_ = NewRb(); }

  // A fresh RB segment mapped into a fresh process.
  RbView NewRb() {
    GuestAddr base = 0x7100'0000'0000ULL + (next_rb_++) * 0x10'0000'0000ULL;
    Process* p = w_.NewProcess("rb-" + std::to_string(next_rb_));
    auto frames = std::make_shared<FrameTable>(kRbSize / kPageSize);
    EXPECT_TRUE(p->mem().MapShared(base, kRbSize, kProtRead | kProtWrite, "rb", frames, 0));
    return RbView(p, base, kRbSize, kRanks);
  }

  // Commits an entry's args in the leader and returns its args-ready record.
  RbWireEntry CommitArgs(uint64_t off, uint64_t out_cap) {
    std::vector<uint8_t> sig(kSigLen);
    for (size_t i = 0; i < sig.size(); ++i) {
      sig[i] = static_cast<uint8_t>(0x40 + i);
    }
    RbEntryOps::CommitArgs(leader_, off, Sys::kRead, kRbFlagMasterCall, 7,
                           RbEntryOps::EntrySize(kSigLen, out_cap), sig);
    return RbEntryOps::ReadRecord(leader_, off, kRbArgsReady);
  }

  // Commits `out_len` result bytes in the leader and returns the results-only record.
  RbWireEntry CommitResults(uint64_t off, uint64_t out_len) {
    std::vector<uint8_t> out(out_len);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<uint8_t>(0xa0 + i);
    }
    RbEntryOps::CommitResults(leader_, off, static_cast<int64_t>(out_len), out);
    return RbEntryOps::ReadRecord(leader_, off, kRbResultsOnly);
  }

  bool Replay(RbView& mirror, const RbWireEntry& e) {
    return RbEntryOps::ReplayRecord(mirror, w_.kernel.futex(), 0, e);
  }

  SimWorld w_;
  RbView leader_;
  uint64_t next_rb_ = 0;
};

TEST_F(ResultsOnlyRecordTest, ArgsPlusResultsOnlyReplaysLikeOneFullRecord) {
  uint64_t off = leader_.RankDataStart(0);
  RbWireEntry args = CommitArgs(off, 128);
  RbWireEntry results = CommitResults(off, 100);
  RbWireEntry full = RbEntryOps::ReadRecord(leader_, off, kRbResultsReady);
  // The results-only record is the header and the out bytes: no signature.
  EXPECT_EQ(args.image.size(), kRbEntryHeaderSize + kSigLen);
  EXPECT_EQ(results.image.size(), kRbEntryHeaderSize + 100);
  EXPECT_EQ(full.image.size(), kRbEntryHeaderSize + kSigLen + 100);

  // The pair crosses the wire codec unchanged, state 3 included.
  std::vector<RbWireEntry> decoded;
  std::vector<uint8_t> payload = RbWireCodec::EncodeEntriesPayload({args, results});
  ASSERT_EQ(RbWireCodec::DecodeEntries(payload.data(), payload.size(), 2, &decoded),
            nullptr);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[1].final_state, kRbResultsOnly);
  EXPECT_EQ(decoded[1].image, results.image);

  RbView pair = NewRb();
  ASSERT_TRUE(Replay(pair, decoded[0]));
  EXPECT_EQ(pair.ReadU32(off + kRbOffState), kRbArgsReady);
  ASSERT_TRUE(Replay(pair, decoded[1]));
  RbView one = NewRb();
  ASSERT_TRUE(Replay(one, full));
  EXPECT_EQ(pair.ReadU32(off + kRbOffState), kRbResultsReady);
  EXPECT_EQ(ReadView(pair), ReadView(one));
  EXPECT_EQ(RbEntryOps::ReadPayload(pair, off), RbEntryOps::ReadPayload(leader_, off));
}

// Every malformed results-only record is refused, and the refusal writes nothing.
TEST_F(ResultsOnlyRecordTest, MalformedResultsOnlyRecordsRefusedWithoutWriting) {
  uint64_t off = leader_.RankDataStart(0);
  RbWireEntry args = CommitArgs(off, 64);
  RbWireEntry results = CommitResults(off, 48);
  // An entry whose signature and out bytes cannot both fit the sub-buffer's end.
  uint64_t tail_off = leader_.RankDataEnd(0) - RbEntryOps::EntrySize(kSigLen, 16);
  RbWireEntry tail_args = CommitArgs(tail_off, 16);
  RbWireEntry tail_results = CommitResults(tail_off, 32);
  ASSERT_LE(tail_results.image.size(), leader_.RankDataEnd(0) - tail_off);

  struct Case {
    const char* name;
    std::vector<RbWireEntry> before;  // Replayed first, and accepted.
    RbWireEntry record;               // Must be refused.
  };
  std::vector<Case> cases;
  cases.push_back({"entry still empty", {}, results});
  {
    RbWireEntry other = results;
    PutImageU64(&other, kRbOffResult, 47);
    cases.push_back({"entry already results-ready", {args, results}, other});
  }
  {
    RbWireEntry other = results;
    PutImageU64(&other, kRbOffSigLen, kSigLen + 8);
    cases.push_back({"sig_len differs from the mirror's", {args}, other});
  }
  {
    RbWireEntry other = results;
    PutImageU64(&other, kRbOffOutLen, 49);
    cases.push_back({"out_len past the image", {args}, other});
  }
  {
    RbWireEntry other = results;
    PutImageU64(&other, kRbOffOutLen, 47);
    cases.push_back({"image longer than out_len", {args}, other});
  }
  cases.push_back({"out bytes past the sub-buffer", {tail_args}, tail_results});

  for (const Case& c : cases) {
    RbView mirror = NewRb();
    for (const RbWireEntry& e : c.before) {
      ASSERT_TRUE(Replay(mirror, e)) << c.name;
    }
    std::vector<uint8_t> held = ReadView(mirror);
    EXPECT_FALSE(Replay(mirror, c.record)) << c.name;
    EXPECT_EQ(ReadView(mirror), held) << c.name;
  }
}

// Replicas co-located on one machine share its mirror, so two agents replay the
// same stream into it: the second agent's args record writes nothing over the
// results already there, and its results-only record is accepted as an exact
// replay.
TEST_F(ResultsOnlyRecordTest, CoLocatedAgentsReplayOneStreamIntoOneMirror) {
  uint64_t off = leader_.RankDataStart(1);
  RbWireEntry args = CommitArgs(off, 64);
  RbWireEntry results = CommitResults(off, 48);
  RbView mirror = NewRb();
  ASSERT_TRUE(RbEntryOps::ReplayRecord(mirror, w_.kernel.futex(), 1, args));
  ASSERT_TRUE(RbEntryOps::ReplayRecord(mirror, w_.kernel.futex(), 1, results));
  std::vector<uint8_t> held = ReadView(mirror);
  EXPECT_TRUE(RbEntryOps::ReplayRecord(mirror, w_.kernel.futex(), 1, args));
  EXPECT_TRUE(RbEntryOps::ReplayRecord(mirror, w_.kernel.futex(), 1, results));
  EXPECT_EQ(ReadView(mirror), held);
}

// A checkpoint ships full records only: a results-only record in a chunk refuses it.
TEST(SnapshotCodecResultsOnlyTest, ResultsOnlyRecordInSnapshotChunkRefused) {
  Rng rng(29);
  ReplicaSnapshot snap;
  do {
    snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  } while (snap.records[0].empty());
  snap.records[0].back().final_state = kRbResultsOnly;
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler assembler;
  ASSERT_TRUE(assembler.Begin(payloads.begin)) << assembler.error();
  bool refused = false;
  for (const std::vector<uint8_t>& chunk : payloads.chunks) {
    if (!assembler.AddChunk(chunk)) {
      refused = true;
      break;
    }
  }
  EXPECT_TRUE(refused);
  EXPECT_EQ(assembler.error(), "snapshot record state is not a publication");
}

// Byte count: in a remote world every entry crosses the link as an args record
// (header + signature) and a results-only record (header + out bytes), so the
// entry images on the wire total sum(header + sig) + sum(header + out) over the
// leader's entries — no signature byte is shipped twice.
TEST(ResultsOnlyWireBytesTest, RemoteWorldShipsEachSignatureByteOnce) {
  SimWorld w(20261019);
  uint32_t host = w.net.AddMachine("replica-host-1");
  w.net.SetLink(w.server_machine, host, LinkParams{60 * kMicrosecond, 0.125});
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.machine = w.server_machine;
  opts.replica_machines = {w.server_machine, host};
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/v9-bytes", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(512);
    GuestAddr st = g.Alloc(sizeof(GuestStat));
    for (int i = 0; i < 60; ++i) {
      std::string line(static_cast<size_t>(16 + 7 * i), static_cast<char>('a' + i % 26));
      g.Poke(buf, line.data(), line.size());
      co_await g.Write(static_cast<int>(fd), buf, line.size());
      co_await g.Fstat(static_cast<int>(fd), st);
      co_await g.Pread(static_cast<int>(fd), buf, 64, 0);
    }
    // Keeps the leader alive while the test reads its RB.
    co_await g.SleepNs(Millis(50));
  }, "v9-bytes");
  w.Run(Millis(20));
  ASSERT_FALSE(mvee.divergence_detected());

  const RbView& rb = mvee.ipmon(0)->rb();
  ASSERT_EQ(mvee.ipmon(0)->rb_resets(), 0u);
  uint64_t expected = 0;
  uint64_t entries = 0;
  for (int r = 0; r < rb.max_ranks(); ++r) {
    for (uint64_t off = rb.RankDataStart(r); off + kRbEntryHeaderSize <= rb.RankDataEnd(r);) {
      RbEntryHeader h = RbEntryOps::ReadHeader(rb, off);
      if (h.state == kRbEmpty) {
        break;
      }
      ASSERT_EQ(h.state, kRbResultsReady) << "rank " << r << " offset " << off;
      expected += (kRbEntryHeaderSize + h.sig_len) + (kRbEntryHeaderSize + h.out_len);
      ++entries;
      off += h.total_size;
    }
  }
  const SimStats& stats = w.sim.stats();
  ASSERT_GE(entries, 180u);
  // One record per frame, two frames per entry, nothing else on the stream.
  ASSERT_EQ(stats.rb_frames_sent, 2 * entries);
  uint64_t images =
      stats.rb_frame_bytes_sent -
      stats.rb_frames_sent * (kRbWireHeaderSize + kRbWireEntryHeaderSize);
  EXPECT_EQ(images, expected);
}

}  // namespace
}  // namespace remon
