// The IP-MON replication buffer (paper §3.2, §3.7).
//
// A System V shared-memory segment mapped at a *different, hidden* virtual address in
// every replica. The master's IP-MON appends one variable-size entry per unmonitored
// call: deep-copied arguments (for the slaves' sanity checks), a small flag word, and
// later the results. Slaves consume entries in order, each tracking only its own read
// cursor — the buffer is linear, not circular; on overflow GHUMVEE arbitrates a reset
// (all replicas synchronize, cursors return to zero). Every entry embeds its own
// condition variable (a futex word) so slaves waiting for different invocations never
// contend, and the master skips FUTEX_WAKE entirely when no slave is waiting.
//
// Multi-threaded replicas get one sub-buffer per thread rank: "each replica thread
// only reads and writes its own RB position".
//
// All accesses go through the owning process's mapping (AddressSpace), so the RB
// content truly lives in shared frames — an attacker replica that somehow learned the
// address could tamper with it, which is exactly the threat model the security tests
// probe.

#ifndef SRC_CORE_REPLICATION_BUFFER_H_
#define SRC_CORE_REPLICATION_BUFFER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/rb_wire.h"
#include "src/kernel/process.h"
#include "src/kernel/sysno.h"
#include "src/mem/page.h"

namespace remon {

class FutexTable;
class WaitQueue;

// System V keys at or above this base are reserved for ReMon infrastructure (the RB
// and the sync-agent log); GHUMVEE's shared-memory policing admits them and denies
// application requests for writable inter-replica channels (paper §2.1).
inline constexpr int kRemonShmKeyBase = 0x5245'0000;
inline constexpr int kRbShmKey = kRemonShmKeyBase + 1;
inline constexpr int kSyncShmKey = kRemonShmKeyBase + 2;

// Entry states.
inline constexpr uint32_t kRbEmpty = 0;
inline constexpr uint32_t kRbArgsReady = 1;    // PRECALL data committed by the master.
inline constexpr uint32_t kRbResultsReady = 2;  // POSTCALL data committed.

// Entry flags.
inline constexpr uint32_t kRbFlagMasterCall = 1u << 0;   // Only the master executes.
inline constexpr uint32_t kRbFlagMaybeBlocking = 1u << 1;  // Slaves should futex-wait.
inline constexpr uint32_t kRbFlagForwarded = 1u << 2;    // Master forwarded to GHUMVEE.

// Fixed header of each entry (bytes; see replication_buffer.cc for field offsets).
inline constexpr uint64_t kRbEntryHeaderSize = 64;
// Global RB header: signals_pending flag + generation counter.
inline constexpr uint64_t kRbGlobalHeaderSize = 64;
// Per-rank sub-buffer header: the master's write cursor.
inline constexpr uint64_t kRbRankHeaderSize = 64;

// One replica's view of the shared buffer.
class RbView {
 public:
  RbView() = default;
  RbView(Process* process, GuestAddr base, uint64_t size, int max_ranks)
      : process_(process), base_(base), size_(size), max_ranks_(max_ranks) {}

  bool valid() const { return process_ != nullptr; }
  Process* process() const { return process_; }
  GuestAddr base() const { return base_; }
  uint64_t size() const { return size_; }
  int max_ranks() const { return max_ranks_; }

  // --- Layout -----------------------------------------------------------------

  uint64_t SubBufferSize() const {
    return (size_ - kRbGlobalHeaderSize) / static_cast<uint64_t>(max_ranks_);
  }
  // Offset (from base) of rank r's sub-buffer.
  uint64_t RankStart(int rank) const {
    return kRbGlobalHeaderSize + static_cast<uint64_t>(rank) * SubBufferSize();
  }
  // Offset of the first entry slot in rank r's sub-buffer.
  uint64_t RankDataStart(int rank) const { return RankStart(rank) + kRbRankHeaderSize; }
  uint64_t RankDataEnd(int rank) const { return RankStart(rank) + SubBufferSize(); }

  // --- Global header ---------------------------------------------------------------

  void SetSignalsPending(bool pending);
  bool SignalsPending() const;

  // --- Raw access (through the replica's page mappings) ---------------------------

  uint32_t ReadU32(uint64_t offset) const;
  uint64_t ReadU64(uint64_t offset) const;
  void WriteU32(uint64_t offset, uint32_t v);
  void WriteU64(uint64_t offset, uint64_t v);
  void WriteBytes(uint64_t offset, const void* data, uint64_t len);
  void ReadBytes(uint64_t offset, void* out, uint64_t len) const;
  // Zeroes a range, skipping the pages no mapping has materialized: they already
  // read as zeroes, and scrubbing must not make them resident.
  void Zero(uint64_t offset, uint64_t len);

  // Guest virtual address of a given offset (for futex waits on entry words).
  GuestAddr AddrOf(uint64_t offset) const { return base_ + offset; }

  // The futex wait queue of the word at `offset` (an entry's state word, a rank
  // header word, the sync log's tail), created for a waiter about to park on it.
  // Resolving the word's frame materializes its page.
  WaitQueue& WordQueue(FutexTable& futex, uint64_t offset) const;
  // The entry's state word queue: the slaves' waits.
  WaitQueue& StateQueue(FutexTable& futex, uint64_t entry_off) const;
  // The word's queue while a waiter is parked on it, else null. Creates no queue
  // and materializes no page (a word on a page nobody touched has no waiter).
  WaitQueue* FindWordQueue(FutexTable& futex, uint64_t offset) const;
  // The one wake every waker of a word shares (FUTEX_WAKE): a word nobody waits
  // on costs a lookup, not a queue.
  void WakeWord(FutexTable& futex, uint64_t offset) const;
  // Wakes the entry's state word: the master's publications, the live replay and
  // the checkpoint replay.
  void WakeState(FutexTable& futex, uint64_t entry_off) const;

 private:
  Process* process_ = nullptr;
  GuestAddr base_ = 0;
  uint64_t size_ = 0;
  int max_ranks_ = 1;
};

// Decoded entry header.
struct RbEntryHeader {
  uint32_t state = kRbEmpty;
  uint32_t waiters = 0;
  uint32_t sysno = 0;
  uint32_t flags = 0;
  uint64_t total_size = 0;
  uint64_t seq = 0;
  int64_t result = 0;
  uint64_t sig_len = 0;
  uint64_t out_len = 0;
};

// Entry field offsets (relative to the entry start).
inline constexpr uint64_t kRbOffState = 0;
inline constexpr uint64_t kRbOffWaiters = 4;
inline constexpr uint64_t kRbOffSysno = 8;
inline constexpr uint64_t kRbOffFlags = 12;
inline constexpr uint64_t kRbOffTotalSize = 16;
inline constexpr uint64_t kRbOffSeq = 24;
inline constexpr uint64_t kRbOffResult = 32;
inline constexpr uint64_t kRbOffSigLen = 40;
inline constexpr uint64_t kRbOffOutLen = 48;

// Entry-level operations used by IP-MON's handlers.
class RbEntryOps {
 public:
  // Total entry footprint for a signature of `sig_len` bytes and result payload
  // capacity `out_capacity`.
  static uint64_t EntrySize(uint64_t sig_len, uint64_t out_capacity) {
    uint64_t raw = kRbEntryHeaderSize + sig_len + out_capacity;
    return (raw + 7) & ~uint64_t{7};
  }

  static RbEntryHeader ReadHeader(const RbView& view, uint64_t entry_off);

  // Master: writes argument data + header fields WITHOUT flipping the state word.
  // The entry stays kRbEmpty until PublishState — this is the staging half of
  // PRECALL coalescing: consecutive entries' argument commits land back to back in
  // the RB as plain contiguous writes and become visible in one publication pass.
  static void StageArgs(RbView& view, uint64_t entry_off, Sys nr, uint32_t flags,
                        uint64_t seq, uint64_t total_size,
                        const std::vector<uint8_t>& signature);

  // Master: writes the result + payload bytes WITHOUT flipping the state word
  // (the staging half of a deferred POSTCALL commit).
  static void StageResults(RbView& view, uint64_t entry_off, int64_t result,
                           const std::vector<uint8_t>& payload);

  // Master: flips the entry's state word (the publication). Returns the number of
  // slave waiters registered on the entry before the flip (0 -> the FUTEX_WAKE can
  // be elided, §3.7).
  static uint32_t PublishState(RbView& view, uint64_t entry_off, uint32_t state);

  // Master: commits argument data and flips state to kRbArgsReady (eager PRECALL).
  static void CommitArgs(RbView& view, uint64_t entry_off, Sys nr, uint32_t flags,
                         uint64_t seq, uint64_t total_size,
                         const std::vector<uint8_t>& signature);

  // Master: appends result payload (concatenated out-regions) and flips state to
  // kRbResultsReady. Returns the number of slave waiters present before the flip
  // (0 -> the FUTEX_WAKE can be elided, §3.7).
  static uint32_t CommitResults(RbView& view, uint64_t entry_off, int64_t result,
                                const std::vector<uint8_t>& payload);

  // Slave: reads the master's recorded signature.
  static std::vector<uint8_t> ReadSignature(const RbView& view, uint64_t entry_off);
  // Slave: reads the result payload.
  static std::vector<uint8_t> ReadPayload(const RbView& view, uint64_t entry_off);

  // Master: the wire record of a published entry — its header, signature and, once
  // `state` is kRbResultsReady, its result payload; never the entry's unused
  // reserved capacity. Live flushes and checkpoints both ship these.
  static RbWireEntry ReadRecord(const RbView& view, uint64_t entry_off, uint32_t state);

  // Mirror: replays a wire record into rank `rank`'s sub-buffer with the SHM
  // publication order — the body first (the mirror's own state and waiter words
  // preserved), the state word last and only forward — then wakes the entry's
  // futex queue. Returns false, writing nothing, for a record outside the rank's
  // sub-buffer or a state that is not a publication.
  static bool ReplayRecord(RbView& view, FutexTable& futex, uint32_t rank,
                           const RbWireEntry& e);

  // Slave: registers itself as waiting on this entry's condition variable.
  static void AddWaiter(RbView& view, uint64_t entry_off);
  static void RemoveWaiter(RbView& view, uint64_t entry_off);
};

// How the effective batch window is chosen.
//   kFixed    — the window is always Config::rb_batch_max (PR 1 behavior).
//   kAdaptive — the window floats in [1, rb_batch_max], driven by the slave waiter
//               pressure observed at flush points (see RbBatch::ObservePressure).
enum class RbBatchPolicy { kFixed, kAdaptive };

// Batched RB publication: the master coalesces the commits of consecutive small,
// non-blocking unmonitored calls on one rank into a single publication. Both sides
// are deferred:
//   PRECALL  — argument bytes are staged into the RB as one contiguous run of plain
//              writes (RbEntryOps::StageArgs), with the per-entry args-ready flips
//              held back;
//   POSTCALL — result payloads are buffered and written back to back at the flush.
// At the flush the state words flip oldest-to-newest in one cache-line-friendly
// pass — an entry holding both deferred sides flips straight to kRbResultsReady —
// and the slaves get *one* wakeup instead of one per entry. Divergence fidelity is
// preserved: every entry's argument bytes are in the RB before the entry's POSTCALL
// becomes visible, so a slave always checks the master's arguments before it can
// consume that entry's results. The batch must be flushed before anything that can
// park the master indefinitely or leave the fast path (blocked socket/pipe reads,
// explicit sleeps, local calls, GHUMVEE forwards, RB resets) — IP-MON owns those
// flush points, with a kernel park hook as the liveness backstop; deferring across
// bounded-latency regular-file I/O is the intended trade-off.
class RbBatch {
 public:
  struct Slot {
    uint64_t entry_off = 0;
    bool args_deferred = false;    // Staged args: state word still kRbEmpty.
    bool results_pending = false;  // Result payload buffered for the flush.
    int64_t result = 0;
    std::vector<uint8_t> payload;
  };

  bool empty() const { return slots_.empty(); }
  size_t size() const { return slots_.size(); }
  const std::vector<Slot>& slots() const { return slots_; }

  // Records an entry whose argument bytes were staged (RbEntryOps::StageArgs) with
  // the args-ready publication deferred to the next flush.
  void StageArgs(uint64_t entry_off) {
    slots_.push_back(Slot{entry_off, /*args_deferred=*/true,
                          /*results_pending=*/false, 0, {}});
  }

  // Defers an entry's POSTCALL commit. Merges into the entry's staged-args slot
  // when one is still pending (the common case); otherwise — the staged args were
  // already published by an intervening flush — appends a results-only slot.
  void AddResults(uint64_t entry_off, int64_t result, std::vector<uint8_t> payload) {
    for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
      if (it->entry_off == entry_off) {
        it->results_pending = true;
        it->result = result;
        it->payload = std::move(payload);
        return;
      }
    }
    slots_.push_back(Slot{entry_off, /*args_deferred=*/false,
                          /*results_pending=*/true, result, std::move(payload)});
  }

  // True while the entry's args-ready publication is still deferred in this batch.
  bool ArgsDeferred(uint64_t entry_off) const {
    for (const Slot& s : slots_) {
      if (s.entry_off == entry_off && s.args_deferred) {
        return true;
      }
    }
    return false;
  }

  // Number of deferred POSTCALL commits currently held.
  size_t results_pending() const {
    size_t n = 0;
    for (const Slot& s : slots_) {
      n += s.results_pending ? 1 : 0;
    }
    return n;
  }

  // The coalesced publication: every pending payload is written first, then the
  // state words flip oldest-to-newest — straight to kRbResultsReady for slots
  // carrying results, to kRbArgsReady for args-only slots (an entry mid-execution
  // when the flush hit). Returns the total waiter count observed before the flips —
  // zero means even the single batched FUTEX_WAKE can be elided. The caller wakes
  // the entries' wait queues and clears the batch via Take().
  uint32_t Commit(RbView& view) {
    for (const Slot& s : slots_) {
      if (s.results_pending) {
        RbEntryOps::StageResults(view, s.entry_off, s.result, s.payload);
      }
    }
    uint32_t waiters = 0;
    for (const Slot& s : slots_) {
      waiters += RbEntryOps::PublishState(
          view, s.entry_off, s.results_pending ? kRbResultsReady : kRbArgsReady);
    }
    return waiters;
  }

  std::vector<Slot> Take() {
    std::vector<Slot> out = std::move(slots_);
    slots_.clear();
    return out;
  }

  // --- Adaptive window (RbBatchPolicy::kAdaptive) ---------------------------------

  int window() const { return window_; }

  // Feeds one flush-point observation into the AIMD window state machine:
  //   futex waiters > 0 — slaves were parked on deferred entries; the deferral is
  //     costing them real sleep/wake round trips: halve the window.
  //   spinners only     — slaves just arrived and are burning cycles on the state
  //     word; mild pressure: shrink by one.
  //   neither           — the slaves lag the master anyway; deferral is free:
  //     grow by one toward `window_max`.
  // Returns the signed window change (for the caller's stats).
  int ObservePressure(uint32_t futex_waiters, uint32_t spinners, int window_max) {
    int before = window_;
    if (futex_waiters > 0) {
      window_ = window_ > 1 ? window_ / 2 : 1;
    } else if (spinners > 0) {
      window_ = window_ > 1 ? window_ - 1 : 1;
    } else if (window_ < window_max) {
      ++window_;
    }
    return window_ - before;
  }

  // Feeds one transport-backpressure observation (the leader stalled at a flush
  // point because a remote link's flow-control window is full).
  // On a slow link the cure is the opposite of local waiter pressure: coalesce
  // *more* entries per frame, so the window takes the AIMD additive step up.
  // Returns the signed window change (for the caller's stats).
  int ObserveBackpressure(int window_max) {
    if (window_ >= window_max) {
      return 0;
    }
    ++window_;
    return 1;
  }

 private:
  std::vector<Slot> slots_;
  int window_ = 1;  // Effective batch size under kAdaptive; grows on idle flushes.
};

}  // namespace remon

#endif  // SRC_CORE_REPLICATION_BUFFER_H_
