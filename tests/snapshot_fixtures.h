// Shared checkpoint fixtures for the snapshot and wire tests: a synthetic
// checkpoint whose records form well-formed per-rank entry chains, and a live
// cross-machine world paused where an ack-folded delta basis is usable.

#ifndef TESTS_SNAPSHOT_FIXTURES_H_
#define TESTS_SNAPSHOT_FIXTURES_H_

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/core/remon.h"
#include "src/core/replication_buffer.h"
#include "src/core/snapshot.h"
#include "src/core/sync_agent.h"
#include "src/sim/rng.h"
#include "src/workloads/suites.h"
#include "tests/test_util.h"

namespace remon {

inline void PutImageU64(RbWireEntry* e, uint64_t off, uint64_t v) {
  std::memcpy(e->image.data() + off, &v, 8);
}

// A synthetic checkpoint exercised through the exact payloads the wire carries:
// random RB headers; per rank a resume offset near the data start, a chain of
// well-formed records from it (random states, signatures, result payloads and
// reserved capacity), and a cursor at the chain end or one unpublished entry
// past it; and a reset generation for the lap guard.
inline ReplicaSnapshot MakeSnapshot(Rng* rng, uint64_t rb_size, int max_ranks) {
  ReplicaSnapshot snap;
  snap.rb_size = rb_size;
  snap.max_ranks = max_ranks;
  snap.reset_generation = rng->NextBelow(5);
  snap.rb_headers.resize(kRbGlobalHeaderSize +
                         static_cast<uint64_t>(max_ranks) * kRbRankHeaderSize);
  for (uint8_t& b : snap.rb_headers) {
    b = static_cast<uint8_t>(rng->NextBelow(256));
  }
  RbView layout(nullptr, 0, rb_size, max_ranks);
  snap.records.resize(static_cast<size_t>(max_ranks));
  for (int r = 0; r < max_ranks; ++r) {
    uint64_t off = layout.RankDataStart(r) + 8 * rng->NextBelow(64);
    snap.delta_from.push_back(off);
    uint64_t count = rng->NextBelow(48);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t sig_len = rng->NextBelow(600);
      uint64_t out_cap = rng->NextBelow(3000);
      uint64_t total = RbEntryOps::EntrySize(sig_len, out_cap);
      if (total > layout.RankDataEnd(r) - off) {
        break;
      }
      RbWireEntry e;
      e.entry_off = off;
      e.final_state = rng->NextBelow(2) == 0 ? kRbArgsReady : kRbResultsReady;
      uint64_t out_len =
          e.final_state == kRbResultsReady ? rng->NextBelow(out_cap + 1) : 0;
      e.image.resize(kRbEntryHeaderSize + sig_len + out_len);
      for (uint8_t& b : e.image) {
        b = static_cast<uint8_t>(rng->NextBelow(256));
      }
      PutImageU64(&e, kRbOffTotalSize, total);
      PutImageU64(&e, kRbOffSigLen, sig_len);
      PutImageU64(&e, kRbOffOutLen, out_len);
      snap.records[static_cast<size_t>(r)].push_back(std::move(e));
      off += total;
    }
    if (rng->NextBelow(2) == 0 && kRbEntryHeaderSize <= layout.RankDataEnd(r) - off) {
      off += kRbEntryHeaderSize;  // An in-flight entry the chain stops before.
    }
    snap.cursors.push_back(off);
    rng->NextBelow(1000);  // The per-rank seq wire v9 carried.
  }
  // The draws of the sections wire v9 carried: a lockstep cursor, a file-map CRC,
  // three file-map pages and five epoll rows. Drawing them still keeps every
  // later draw, and so every byte the checkpoint carries, as it was.
  rng->NextBelow(100000);
  rng->NextBelow(1u << 31);
  for (uint64_t i = 0; i < 3 * kPageSize; ++i) {
    rng->NextBelow(256);
  }
  for (int i = 0; i < 5; ++i) {
    rng->NextBelow(1u << 30);
  }
  return snap;
}

inline void ExpectSameRecords(const std::vector<std::vector<RbWireEntry>>& a,
                              const std::vector<std::vector<RbWireEntry>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size()) << "rank " << r;
    for (size_t i = 0; i < a[r].size(); ++i) {
      EXPECT_EQ(a[r][i].entry_off, b[r][i].entry_off) << "rank " << r << " #" << i;
      EXPECT_EQ(a[r][i].final_state, b[r][i].final_state) << "rank " << r << " #" << i;
      EXPECT_EQ(a[r][i].image, b[r][i].image) << "rank " << r << " #" << i;
    }
  }
}

inline std::vector<uint8_t> ReadView(const RbView& view) {
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
    opts.use_sync_agent = true;
    opts.sync_log_size = kSyncLogOffEntries + 64 * kSyncLogEntrySize;
    opts.machine = w.server_machine;
    opts.replica_machines = {w.server_machine, host};
    mvee = std::make_unique<Remon>(&w.kernel, opts);
    // Write-heavy enough that 2 KiB results lap the 32 KiB rank sub-buffers. Each
    // entry crosses the link as an args record and a results-only record: at 20 us
    // of compute per iteration the bursts fill the 1 Gbit/s link, and the acks
    // that fold the basis queue behind the next burst of resets. 40 us leaves the
    // link idle between bursts, so the basis catches up with the reset generation.
    WorkloadSpec spec;
    spec.name = "equiv";
    spec.suite = "parsec";
    spec.threads = 4;
    spec.iterations = 200;
    spec.compute_per_iter = Micros(40);
    spec.file_writes = 2;
    spec.io_size = 2048;
    spec.sync_ops = 2;
    mvee->Launch(SuiteProgram(spec), spec.name);
  }

  // Runs until the folded basis is usable past at least one RB reset, with sync
  // ops the replica has yet to replay, and `also` holds; false if the run ended
  // first.
  template <typename Pred>
  bool RunToFoldedBasis(Pred also) {
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
        if (basis.from_off[r] > leader->rb().RankDataStart(static_cast<int>(r)) &&
            also()) {
          return true;
        }
      }
    }
    return false;
  }
  bool RunToFoldedBasis() {
    return RunToFoldedBasis([] { return true; });
  }

  ReplicaSnapshot Capture(const RbDeltaBasis& b) {
    return CaptureLeaderDelta(mvee->ipmon(0), mvee->sync_agent(0),
                              mvee->sync_agent(1)->read_cursor(), b);
  }

  SimWorld w{20261016};
  std::unique_ptr<Remon> mvee;
  RbDeltaBasis basis;
};

}  // namespace remon

#endif  // TESTS_SNAPSHOT_FIXTURES_H_
