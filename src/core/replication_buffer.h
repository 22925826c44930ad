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
// Wire-only record state, never stored in an entry: the results-ready publication
// of an entry whose args-ready record already went. Its image is the entry header
// and the out bytes; the receiver's mirror already holds the signature.
inline constexpr uint32_t kRbResultsOnly = 3;

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
  // Clears a range at a ring reset. The pages wholly inside it are freed, so
  // they read as zeroes and hold no host memory until the next lap writes them
  // (Linux MADV_REMOVE on shmem); no futex waiter may be parked on one, which a
  // REMON_CHECK asserts. Only the partial head and tail pages, which a
  // sub-buffer shares with a rank header or its neighbour, get zeroes written
  // into the range's bytes, and only when resident: a page no mapping touched
  // already reads as zeroes.
  void Zero(FutexTable& futex, uint64_t offset, uint64_t len);

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
  // reserved capacity. Under kRbResultsOnly the signature is left out: the header
  // is followed directly by the out bytes. Live publications and checkpoints both
  // ship these; a checkpoint ships full records only.
  static RbWireEntry ReadRecord(const RbView& view, uint64_t entry_off, uint32_t state);

  // Mirror: replays a wire record into rank `rank`'s sub-buffer with the SHM
  // publication order — the body first (the mirror's own state and waiter words
  // preserved), the state word last and only forward — then wakes the entry's
  // futex queue. A kRbResultsOnly record writes the header words and then the out
  // bytes after the signature already in the mirror, and flips the entry to
  // kRbResultsReady. Returns false, writing nothing, for a record outside the
  // rank's sub-buffer, a state that is not a publication, or a results-only
  // record whose mirror entry is not args-ready with the same signature length.
  static bool ReplayRecord(RbView& view, FutexTable& futex, uint32_t rank,
                           const RbWireEntry& e);

  // Slave: registers itself as waiting on this entry's condition variable.
  static void AddWaiter(RbView& view, uint64_t entry_off);
  static void RemoveWaiter(RbView& view, uint64_t entry_off);
};

}  // namespace remon

#endif  // SRC_CORE_REPLICATION_BUFFER_H_
