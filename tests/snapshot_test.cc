// Tests for the replica re-seed snapshot subsystem (src/core/snapshot.{h,cc}):
// sparse VMA image capture/restore (page-for-page equality including lazy holes),
// serialization round trips through the Begin/Chunk/End payloads, assembler
// rejection of malformed checkpoints, and — on one live cross-machine world — the
// equivalence of a checkpoint cut against the empty basis and one cut against
// the ack-folded basis. The end-to-end kill/re-seed behavior is covered by the
// fuzz in tests/property_test.cc and the server test in tests/workloads_test.cc.

#include <gtest/gtest.h>

#include <cstring>

#include "src/core/remon.h"
#include "src/core/snapshot.h"
#include "src/core/sync_agent.h"
#include "src/mem/address_space.h"
#include "src/sim/rng.h"
#include "src/workloads/suites.h"
#include "tests/test_util.h"

namespace remon {
namespace {

constexpr GuestAddr kBase = 0x100000;

// Page-for-page comparison including materialization state: a hole (untouched
// lazy page) must stay a hole, and every materialized page must be byte-equal.
void ExpectPageForPageEqual(const AddressSpace& a, GuestAddr a_start,
                            const AddressSpace& b, GuestAddr b_start, uint64_t length) {
  uint8_t pa[kPageSize];
  uint8_t pb[kPageSize];
  for (uint64_t off = 0; off < length; off += kPageSize) {
    bool ma = a.PageMaterialized(a_start + off);
    bool mb = b.PageMaterialized(b_start + off);
    ASSERT_TRUE(a.ReadUnchecked(a_start + off, pa, kPageSize).ok) << "off " << off;
    ASSERT_TRUE(b.ReadUnchecked(b_start + off, pb, kPageSize).ok) << "off " << off;
    EXPECT_EQ(0, std::memcmp(pa, pb, kPageSize)) << "page content at off " << off;
    if (ma != mb) {
      // Permitted only when the page reads as zero on both sides (an all-zero
      // materialized page is captured as a hole by design).
      uint8_t zero[kPageSize] = {};
      EXPECT_EQ(0, std::memcmp(pa, zero, kPageSize)) << "off " << off;
    }
  }
}

TEST(VmaImageTest, RoundTripPreservesLazyHoles) {
  constexpr uint64_t kLen = 64 * kPageSize;
  AddressSpace src;
  ASSERT_TRUE(src.MapFixedLazy(kBase, kLen, kProtRead | kProtWrite, "lazy"));

  // Touch a scattered subset; everything else stays a lazy hole.
  Rng rng(20260730);
  std::vector<uint64_t> touched;
  for (uint64_t p = 0; p < 60; p += 1 + rng.NextBelow(5)) {
    touched.push_back(p);
    std::vector<uint8_t> bytes(kPageSize);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    bytes[0] = static_cast<uint8_t>(1 + rng.NextBelow(255));  // Never a zero page.
    ASSERT_TRUE(src.Write(kBase + p * kPageSize, bytes.data(), bytes.size()).ok);
  }
  // One touched-but-zero page: must be captured as a hole.
  uint8_t zeros[kPageSize] = {};
  ASSERT_TRUE(src.Write(kBase + 63 * kPageSize, zeros, kPageSize).ok);

  VmaImage image = CaptureVmaImage(src, kBase, kLen);
  EXPECT_EQ(image.length, kLen);
  EXPECT_EQ(image.run_bytes(), touched.size() * kPageSize);

  // Capture must not have materialized any hole (page 63 stays materialized in the
  // source — it was written, just with zeros — but is captured as a hole).
  for (uint64_t p = 0; p < 60; ++p) {
    bool is_touched = false;
    for (uint64_t t : touched) {
      is_touched |= t == p;
    }
    EXPECT_EQ(src.PageMaterialized(kBase + p * kPageSize), is_touched) << p;
  }

  AddressSpace dst;
  ASSERT_TRUE(dst.MapFixedLazy(kBase, kLen, kProtRead | kProtWrite, "lazy"));
  ASSERT_TRUE(RestoreVmaImage(&dst, kBase, image));

  ExpectPageForPageEqual(src, kBase, dst, kBase, kLen);
  // Holes stayed lazy on the restored side too (the zero page at 63 included).
  for (uint64_t p = 0; p < 64; ++p) {
    bool is_touched = false;
    for (uint64_t t : touched) {
      is_touched |= t == p;
    }
    EXPECT_EQ(dst.PageMaterialized(kBase + p * kPageSize), is_touched) << p;
  }
}

TEST(VmaImageTest, AdjacentPagesCoalesceIntoOneRun) {
  AddressSpace src;
  ASSERT_TRUE(src.MapFixedLazy(kBase, 16 * kPageSize, kProtRead | kProtWrite, "lazy"));
  uint8_t fill[kPageSize];
  std::memset(fill, 0xab, sizeof(fill));
  for (uint64_t p = 2; p <= 5; ++p) {
    ASSERT_TRUE(src.Write(kBase + p * kPageSize, fill, kPageSize).ok);
  }
  VmaImage image = CaptureVmaImage(src, kBase, 16 * kPageSize);
  ASSERT_EQ(image.runs.size(), 1u);
  EXPECT_EQ(image.runs[0].offset, 2 * kPageSize);
  EXPECT_EQ(image.runs[0].bytes.size(), 4 * kPageSize);
}

TEST(VmaImageTest, PageFilterSkipsUnselectedPages) {
  AddressSpace src;
  ASSERT_TRUE(src.MapFixedLazy(kBase, 8 * kPageSize, kProtRead | kProtWrite, "lazy"));
  uint8_t fill[kPageSize];
  std::memset(fill, 0xcd, sizeof(fill));
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(src.Write(kBase + p * kPageSize, fill, kPageSize).ok);
  }
  std::vector<bool> pages(8, false);
  pages[1] = pages[2] = pages[6] = true;
  VmaImage image = CaptureVmaImage(src, kBase, 8 * kPageSize, pages);
  ASSERT_EQ(image.runs.size(), 2u);  // Pages 1-2 coalesce; page 6 stands alone.
  EXPECT_EQ(image.runs[0].offset, 1 * kPageSize);
  EXPECT_EQ(image.runs[0].bytes.size(), 2 * kPageSize);
  EXPECT_EQ(image.runs[1].offset, 6 * kPageSize);
  EXPECT_EQ(image.runs[1].bytes.size(), kPageSize);
}

// A synthetic checkpoint with a sparse multi-run image, per-rank resume offsets,
// a dirty-page file-map section (3 of 4 pages) with a whole-map CRC, and a reset
// generation for the lap guard — exercised through the exact payloads the wire
// carries.
ReplicaSnapshot MakeSnapshot(Rng* rng, uint64_t rb_size, int max_ranks) {
  ReplicaSnapshot snap;
  snap.rb_size = rb_size;
  snap.max_ranks = max_ranks;
  snap.reset_generation = rng->NextBelow(5);
  snap.rb_image.length = rb_size;
  uint64_t off = 0;
  while (off < rb_size) {
    uint64_t pages = 1 + rng->NextBelow(40);
    uint64_t len = std::min(pages * kPageSize, rb_size - off);
    if (rng->NextBelow(2) == 0) {
      PageRun run;
      run.offset = off;
      run.bytes.resize(len);
      for (auto& b : run.bytes) {
        b = static_cast<uint8_t>(rng->NextBelow(256));
      }
      snap.rb_image.runs.push_back(std::move(run));
    }
    off += len;
  }
  if (snap.rb_image.runs.empty()) {
    // Every test needs at least one chunk on the wire.
    PageRun run;
    run.offset = 0;
    run.bytes.assign(kPageSize, 0x77);
    snap.rb_image.runs.push_back(std::move(run));
  }
  for (int r = 0; r < max_ranks; ++r) {
    uint64_t cursor = 128 + static_cast<uint64_t>(r) * 64;
    snap.cursors.push_back(cursor);
    snap.seqs.push_back(rng->NextBelow(1000));
    snap.delta_from.push_back(rng->NextBelow(cursor + 1));
  }
  snap.lockstep_cursor = rng->NextBelow(100000);
  snap.file_map_page_count = 4;
  snap.file_map_crc = static_cast<uint32_t>(rng->NextBelow(1u << 31));
  snap.file_map_pages = {0, 2, 3};
  snap.file_map.assign(3 * kPageSize, 0);
  for (auto& b : snap.file_map) {
    b = static_cast<uint8_t>(rng->NextBelow(256));
  }
  for (int i = 0; i < 5; ++i) {
    snap.epoll.push_back(EpollShadowTriple{i, 10 + i, rng->NextBelow(1u << 30)});
  }
  return snap;
}

// Adds a sync-log section: slots [from, tail) of a `cap`-slot log in seq order,
// the replay cursor somewhere inside the slice, slice length within one lap.
void AddSyncSection(ReplicaSnapshot* snap, Rng* rng, uint64_t cap, uint64_t from,
                    uint64_t tail) {
  snap->sync_log_size = kSyncLogOffEntries + cap * kSyncLogEntrySize;
  snap->sync_from = from;
  snap->sync_tail = tail;
  snap->sync_read_cursor = from + rng->NextBelow(tail - from + 1);
  snap->sync_image.assign((tail - from) * kSyncLogEntrySize, 0);
  for (uint64_t i = 0; i < tail - from; ++i) {
    uint32_t obj = static_cast<uint32_t>(rng->NextBelow(1000));
    uint32_t rank = static_cast<uint32_t>(rng->NextBelow(4));
    uint64_t seq = from + i;  // Seq order, embedded seqs.
    uint8_t* slot = snap->sync_image.data() + i * kSyncLogEntrySize;
    std::memcpy(slot, &obj, 4);
    std::memcpy(slot + 4, &rank, 4);
    std::memcpy(slot + 8, &seq, 8);
  }
}

std::vector<uint8_t> FlattenImage(const ReplicaSnapshot& snap) {
  std::vector<uint8_t> flat(snap.rb_size, 0);
  for (const PageRun& run : snap.rb_image.runs) {
    std::memcpy(flat.data() + run.offset, run.bytes.data(), run.bytes.size());
  }
  return flat;
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
    EXPECT_EQ(out.max_ranks, snap.max_ranks);
    EXPECT_EQ(out.reset_generation, snap.reset_generation);
    EXPECT_EQ(out.cursors, snap.cursors);
    EXPECT_EQ(out.seqs, snap.seqs);
    EXPECT_EQ(out.delta_from, snap.delta_from);
    EXPECT_EQ(out.lockstep_cursor, snap.lockstep_cursor);
    EXPECT_EQ(out.file_map_page_count, snap.file_map_page_count);
    EXPECT_EQ(out.file_map_crc, snap.file_map_crc);
    EXPECT_EQ(out.file_map_pages, snap.file_map_pages);
    EXPECT_EQ(out.file_map, snap.file_map);
    ASSERT_EQ(out.epoll.size(), snap.epoll.size());
    for (size_t i = 0; i < out.epoll.size(); ++i) {
      EXPECT_EQ(out.epoll[i].epfd, snap.epoll[i].epfd);
      EXPECT_EQ(out.epoll[i].fd, snap.epoll[i].fd);
      EXPECT_EQ(out.epoll[i].data, snap.epoll[i].data);
    }
    EXPECT_EQ(out.sync_log_size, snap.sync_log_size);
    EXPECT_EQ(out.sync_from, snap.sync_from);
    EXPECT_EQ(out.sync_tail, snap.sync_tail);
    EXPECT_EQ(out.sync_read_cursor, snap.sync_read_cursor);
    EXPECT_EQ(out.sync_image, snap.sync_image) << "iter " << iter;
    EXPECT_EQ(asm_.image(), FlattenImage(snap)) << "iter " << iter;
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
  snap.sync_image.resize(snap.sync_image.size() - kSyncLogEntrySize);  // One short.
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

TEST(SnapshotCodecTest, FileMapPagesOutOfOrderRejected) {
  Rng rng(109);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  snap.file_map_pages = {2, 1, 3};  // Not strictly increasing.
  SnapshotAssembler asm_;
  EXPECT_FALSE(BeginSerialized(snap, &asm_));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
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

TEST(SnapshotCodecTest, OutOfBoundsChunkRejectedImmediately) {
  Rng rng(13);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  ASSERT_TRUE(asm_.Begin(payloads.begin));
  ASSERT_FALSE(payloads.chunks.empty());
  std::vector<uint8_t> chunk = payloads.chunks[0];
  uint64_t bad_off = snap.rb_size - 16;  // Data would run past the image end.
  std::memcpy(chunk.data(), &bad_off, 8);
  EXPECT_FALSE(asm_.AddChunk(chunk));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
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

std::vector<uint8_t> ReadView(const RbView& view) {
  std::vector<uint8_t> bytes(view.size());
  view.ReadBytes(0, bytes.data(), bytes.size());
  return bytes;
}

// A cross-machine world mid-run: a barrier-rotated multi-threaded suite program
// under the sync agent, replica 1 behind the RB transport, paused at the first
// instant the transport holds an ack-folded basis in the leader's current reset
// generation that resumes past some rank's data start.
class LiveCheckpointWorld {
 public:
  LiveCheckpointWorld() {
    uint32_t host = w.net.AddMachine("replica-host-1");
    w.net.SetLink(w.server_machine, host, LinkParams{60 * kMicrosecond, 0.125});
    RemonOptions opts;
    opts.mode = MveeMode::kRemon;
    opts.replicas = 2;
    opts.level = PolicyLevel::kNonsocketRw;
    opts.rb_size = 256 * 1024;  // Small enough that the run crosses RB resets.
    opts.max_ranks = 8;
    opts.rb_batch_max = 8;
    opts.rb_batch_policy = RbBatchPolicy::kAdaptive;
    opts.use_sync_agent = true;
    opts.sync_log_size = kSyncLogOffEntries + 64 * kSyncLogEntrySize;
    opts.machine = w.server_machine;
    opts.replica_machines = {w.server_machine, host};
    mvee = std::make_unique<Remon>(&w.kernel, opts);
    // Write-heavy enough that 2 KiB results lap the 32 KiB rank sub-buffers.
    WorkloadSpec spec;
    spec.name = "equiv";
    spec.suite = "parsec";
    spec.threads = 4;
    spec.iterations = 200;
    spec.compute_per_iter = Micros(20);
    spec.file_writes = 2;
    spec.io_size = 2048;
    spec.sync_ops = 2;
    mvee->Launch(SuiteProgram(spec), spec.name);
  }

  // Runs until the folded basis is usable past at least one RB reset, with sync
  // ops the replica has yet to replay; false if the run ended first.
  bool RunToFoldedBasis() {
    IpMon* leader = mvee->ipmon(0);
    for (TimeNs t = Millis(1); t < Millis(500) && !mvee->finished(); t += Micros(50)) {
      w.Run(t);
      if (!leader->rb().valid() || !mvee->sync_agent(1)->log_valid() ||
          leader->rb_resets() == 0 ||
          mvee->sync_agent(0)->tail() <= mvee->sync_agent(1)->read_cursor()) {
        continue;
      }
      basis = mvee->transport()->DeltaBasisFor(1);
      if (!basis.valid || basis.reset_generation != leader->rb_resets()) {
        continue;
      }
      for (size_t r = 0; r < basis.from_off.size(); ++r) {
        if (basis.from_off[r] > leader->rb().RankDataStart(static_cast<int>(r))) {
          return true;
        }
      }
    }
    return false;
  }

  ReplicaSnapshot Capture(const RbDeltaBasis& b) {
    return CaptureLeaderDelta(mvee->ipmon(0), mvee->ghumvee(), mvee->sync_agent(0),
                              mvee->sync_agent(1)->read_cursor(), b);
  }

  SimWorld w{20261016};
  std::unique_ptr<Remon> mvee;
  RbDeltaBasis basis;
};

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
  // The two differ only in what they ship: the folded cut resumes later, and it
  // never carries more image than the empty one.
  EXPECT_EQ(empty.cursors, folded.cursors);
  EXPECT_EQ(empty.reset_generation, folded.reset_generation);
  EXPECT_EQ(empty.file_map_crc, folded.file_map_crc);
  EXPECT_LE(folded.rb_image.run_bytes(), empty.rb_image.run_bytes());
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
    SnapshotApplyResult res = ApplySnapshotToMirror(&live.w.kernel, mirror, replica_sync,
                                                    asm_.snapshot(), asm_.image());
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
  uint32_t fm_crc = 0;
  for (const PageRef& page : mirror->file_map()->pages()) {
    fm_crc = Crc32(page->bytes.data(), kPageSize, fm_crc);
  }
  EXPECT_EQ(fm_crc, empty.file_map_crc);
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
                                                  asm_.snapshot(), asm_.image());
  EXPECT_FALSE(res.ok);
  EXPECT_NE(std::string(res.error).find("reset generation"), std::string::npos)
      << res.error;
  EXPECT_EQ(ReadView(rb), rb_before);
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
