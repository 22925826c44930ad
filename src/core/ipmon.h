// IP-MON: the in-process monitor (paper §3.2-§3.9).
//
// One IpMon instance lives in each replica (the paper loads it as a shared library;
// here it is a host-side component whose code runs on the replica's virtual
// timeline and whose data lives in the replica's simulated memory). It replicates
// the results of unmonitored system calls from the master to the slaves through the
// shared replication buffer without any context switch:
//
//   master:  MAYBE_CHECKED -> CALCSIZE -> PRECALL (log args) -> execute (token-
//            authorized restart through IK-B) -> POSTCALL (log results, wake slaves)
//   slaves:  wait for the entry -> compare own args against the master's (divergence
//            check) -> abort own call -> wait for results (spin or per-invocation
//            futex condvar, predicted via the file map) -> copy results out
//
// Calls the policy conditionally rejects, calls that do not fit the RB, and calls
// made while GHUMVEE has signals pending are forwarded to GHUMVEE by destroying the
// authorization token and restarting (fig. 2, 4'); a forwarded stub entry keeps the
// slaves in sync.

#ifndef SRC_CORE_IPMON_H_
#define SRC_CORE_IPMON_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/core/epoll_shadow.h"
#include "src/core/file_map.h"
#include "src/core/policy.h"
#include "src/core/replication_buffer.h"
#include "src/kernel/guest.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall_meta.h"

namespace remon {

class IkBroker;
class RbTransport;

// Monitor flavor: ReMon's IP-MON (split-monitor, GHUMVEE fallback) or a VARAN-like
// reliability-oriented monitor (everything in-process, no lockstep, no CP fallback).
enum class IpmonMode { kRemon, kVaranLike };

// --- One master-call result payload (§2, §3.2, §3.9) --------------------------------
// A master call's results on their way to the slaves, whichever monitor carries
// them: GHUMVEE with process_vm_readv/writev, IP-MON through the RB. Layout: u64
// region count, then per out-region a u64 length and its bytes, with epoll cookies
// rewritten to fds. Memory access is the caller's, as `read(addr, out, len)` and
// `write(addr, data, len)` returning true on success: GHUMVEE passes the kernel's
// tracer access, IP-MON its replica's own.

// Replaces `*payload` with the out-regions the call `req` (returning `ret`) wrote in
// `p`. A region whose read fails travels as zeroes; epoll cookies become fds
// through `shadow`, the capturing replica's.
template <typename Read>
void CaptureResults(Process* p, const SyscallRequest& req, int64_t ret,
                    const EpollShadowMap& shadow, Read&& read,
                    std::vector<uint8_t>* payload) {
  std::vector<OutRegion> regions = CollectOutRegions(p, req, ret);
  payload->assign(8, 0);
  PutU64(payload, 0, regions.size());
  for (const OutRegion& r : regions) {
    size_t off = payload->size() + 8;
    payload->resize(off + r.len);
    PutU64(payload, off - 8, r.len);
    uint8_t* data = payload->data() + off;
    if (!read(r.addr, data, r.len)) {
      std::memset(data, 0, r.len);
    }
    if (r.is_epoll_events) {
      shadow.CookiesToFds(static_cast<int>(req.arg(0)), data, r.len);
    }
  }
}

// Steps through a payload's regions in order. Next() fails after the last counted
// region, and at a region whose length runs past the payload. The payload must
// not change while a reader walks it.
class ResultPayloadReader {
 public:
  explicit ResultPayloadReader(const std::vector<uint8_t>& payload)
      : payload_(payload), left_(payload.size() >= 8 ? GetU64(payload, 0) : 0) {}
  bool Next(const uint8_t** data, uint64_t* len);

 private:
  const std::vector<uint8_t>& payload_;
  size_t pos_ = 8;
  uint64_t left_;
};

// Writes `payload` into the call's out-regions in `p` at `p`'s own addresses, up to
// the smaller of the two region counts; a region running past the payload ends the
// walk unwritten. fds become `p`'s cookies through `shadow`; each region gets
// min(payload length, its own length). Returns the number of regions applied.
template <typename Write>
uint64_t ApplyResults(Process* p, const SyscallRequest& req, int64_t ret,
                      const EpollShadowMap& shadow, const std::vector<uint8_t>& payload,
                      Write&& write) {
  std::vector<OutRegion> regions = CollectOutRegions(p, req, ret);
  ResultPayloadReader reader(payload);
  std::vector<uint8_t> events;
  uint64_t applied = 0;
  const uint8_t* data = nullptr;
  uint64_t len = 0;
  for (; applied < regions.size() && reader.Next(&data, &len); ++applied) {
    const OutRegion& r = regions[applied];
    if (r.is_epoll_events) {
      events.assign(data, data + len);
      shadow.FdsToCookies(static_cast<int>(req.arg(0)), events.data(), len);
      data = events.data();
    }
    // A write fault means this replica's buffer differs in validity from the
    // master's: the region is skipped and the next consistency check catches it.
    write(r.addr, data, std::min<uint64_t>(len, r.len));
  }
  return applied;
}

// Records the (epfd, fd) -> data association an epoll_ctl `req` establishes into
// `shadow`, reading the event through `read` (not for EPOLL_CTL_DEL). Any other
// call, or a failed read, records nothing.
template <typename Read>
void RecordEpollCtl(const SyscallRequest& req, EpollShadowMap& shadow, Read&& read) {
  if (req.nr != Sys::kEpollCtl) {
    return;
  }
  GuestEpollEvent ev{0, 0};
  int op = static_cast<int>(req.arg(1));
  if (op != kEpollCtlDel && !read(req.arg(3), &ev, sizeof(ev))) {
    return;
  }
  shadow.Record(static_cast<int>(req.arg(0)), op, static_cast<int>(req.arg(2)), ev.data);
}

class IpMon {
 public:
  struct Config {
    int replica_index = 0;
    int num_replicas = 2;
    uint64_t rb_size = 16 * 1024 * 1024;
    int max_ranks = 16;
    IpmonMode mode = IpmonMode::kRemon;
  };

  IpMon(Kernel* kernel, IkBroker* broker, RelaxationPolicy policy, FileMap* file_map,
        Config config);

  bool is_master() const { return config_.replica_index == 0; }
  const Config& config() const { return config_; }
  const RbView& rb() const { return rb_; }
  Process* process() const { return process_; }

  // --- Cross-machine replica sets (src/core/rb_transport.h) ---------------------

  // Master only: every publication is additionally serialized into one wire frame
  // and pumped to the remote replicas' sync agents.
  void set_transport(RbTransport* transport) { transport_ = transport; }

  // Remote slaves: this replica's RB is a machine-local mirror fed by its
  // RemoteSyncAgent rather than leader-shared frames; on RB resets the replica
  // zeroes its own mirror (there is no master with shared frames to do it).
  void set_rb_private_mirror(bool mirror) { rb_private_mirror_ = mirror; }

  // Invoked at the end of Initialize, once the RB view is valid (the remote sync
  // agent drains frames that raced ahead of the replica's prologue).
  void set_on_initialized(std::function<void()> cb) { on_initialized_ = std::move(cb); }

  // Guest-side initialization prologue: creates/attaches the RB segment (System V
  // IPC, arbitrated by GHUMVEE), maps the file map read-only, and registers with the
  // kernel via the dedicated system call (paper §3.5).
  GuestTask<void> Initialize(Guest& g);

  // The system call entry point IK-B forwards to (paper fig. 2, step 2).
  GuestTask<void> HandleCall(Thread* t, SyscallRequest req, uint64_t token,
                             bool temporal_exempt);

  // --- GHUMVEE callbacks -------------------------------------------------------

  // Resets rank r's sub-buffer after an overflow flush (only the master's IpMon
  // clears the shared bytes, a remote replica its own mirror; every replica
  // resets its own cursor).
  void OnRbReset(int rank);

  // The replica's one epoll shadow (§3.9). GHUMVEE records the epoll_ctl calls it
  // monitors here and translates the epoll_wait results it replicates through it,
  // so the translation holds when the policy level monitors epoll_ctl but exempts
  // epoll_wait (e.g. SOCKET_RO), and the other way round.
  EpollShadowMap& epoll_shadow() { return epoll_shadow_; }

  // The paper's §4 extension: IK-B periodically moves the RB to a fresh virtual
  // address by remapping the replica's page-table entries, shrinking the window for
  // address-guessing attacks. Invoked by GHUMVEE at flush points while the replica
  // is fully stopped. Returns the new base (0 if migration was not possible).
  GuestAddr MigrateRb();
  uint64_t rb_migrations() const { return rb_migrations_; }

  // Number of RB resets this replica has observed.
  uint64_t rb_resets() const { return rb_resets_; }
  // This replica's RB cursor for `rank` (diagnostics/tests): the offset of the
  // next entry it will produce (master) or consume (slave).
  uint64_t rb_cursor(int rank) const {
    return static_cast<size_t>(rank) < cursor_.size()
               ? cursor_[static_cast<size_t>(rank)]
               : 0;
  }
  // This replica's next entry sequence number for `rank` (diagnostics/tests).
  uint64_t rb_seq(int rank) const {
    return static_cast<size_t>(rank) < seq_.size() ? seq_[static_cast<size_t>(rank)] : 0;
  }
  // Slave argument mismatches the VARAN-like mode let through.
  uint64_t mismatches_tolerated() const { return mismatches_tolerated_; }

 private:
  // Decides whether the active policy requires CP monitoring for this call
  // (MAYBE_CHECKED). Consults the file map (via the descriptor registry's
  // EffectiveFdType) for FD-dependent decisions.
  bool NeedsGhumvee(Thread* t, const SyscallRequest& req) const;

  // Master + transport: parks the thread while any remote link's flow-control
  // window is full (slow-link backpressure stalls the leader before it publishes
  // instead of queuing unboundedly). No-op without a transport.
  GuestTask<void> StallOnTransport(Thread* t);

  // Master + transport: serializes one fresh publication into one frame broadcast
  // to every remote agent: kRbArgsReady, or kRbResultsOnly for the results — every
  // entry publishes its args first, so each signature byte crosses the link once.
  void EmitToTransport(int rank, uint64_t entry_off, uint32_t state);

  // --- One RB entry protocol (§3.2, §3.7) -----------------------------------------
  // ReMon's master and slave paths and the VARAN-like path all run these steps;
  // only what each does on an oversized entry, a full sub-buffer, a mismatch or a
  // forward stays in the callers.

  // An entry as this replica sees it: CALCSIZE's signature and size, then the slot
  // ClaimSlot gave it.
  struct RbSlot {
    std::vector<uint8_t> sig;
    uint64_t size = 0;
    uint64_t off = 0;
    uint64_t seq = 0;
  };
  // CALCSIZE, charged as one signature copy.
  GuestTask<RbSlot> SizeEntry(Thread* t, const SyscallRequest& req);
  // False when the entry is larger than the rank's whole sub-buffer.
  bool FitsSubBuffer(int rank, const RbSlot& e) const;
  // True when the entry does not fit behind the rank's cursor: reset first.
  bool RankFull(int rank, const RbSlot& e) const;
  // Takes the next offset and sequence number, and records the call's epoll_ctl
  // (slaves too, before their call is aborted).
  void ClaimSlot(const SyscallRequest& req, int rank, RbSlot* e);
  // Clears rank `rank`'s data area at a reset (RbView::Zero): its interior frames
  // are freed, its edge pages zeroed.
  void ScrubRank(int rank);
  // ReMon's overflow: a GHUMVEE reset round; returns the fresh token.
  GuestTask<uint64_t> ResetRankThroughGhumvee(Thread* t, const SyscallRequest& req,
                                              int rank);
  // Master: commits the signature, wakes the slaves and ships kRbArgsReady.
  GuestTask<void> PublishArgs(Thread* t, int rank, const SyscallRequest& req,
                              const RbSlot& e, uint32_t flags);
  // Master: commits results, wakes the slaves, ships kRbResultsOnly; returns the
  // number of futex waiters.
  uint32_t CommitResults(int rank, uint64_t entry_off, int64_t result,
                         const std::vector<uint8_t>& payload);
  // Master: captures and commits the result payload, charging the copy and the
  // FUTEX_WAKE (or counting it elided), and completes the call.
  GuestTask<void> PublishResults(Thread* t, int rank, const SyscallRequest& req,
                                 uint64_t entry_off, int64_t result);
  // Master: marks the entry forwarded, publishes an empty results stub so the
  // slaves follow, and forwards the call to GHUMVEE.
  GuestTask<void> ForwardWithStub(Thread* t, const SyscallRequest& req, int rank,
                                  uint64_t entry_off);
  // Slave: waits until the entry reaches `state`, spinning or on the futex.
  GuestTask<void> AwaitState(Thread* t, uint64_t entry_off, uint32_t state, bool spin);
  // Slave: waits for the master's arguments and compares its own against them.
  GuestTask<bool> ArgsMatch(Thread* t, const RbSlot& e);
  // Slave: waits for the results (futex if the master predicted a block) and
  // returns the entry's header.
  GuestTask<RbEntryHeader> AwaitResults(Thread* t, uint64_t entry_off);
  // Slave: copies the results into this replica, charging the copy, and completes
  // the call with the master's result.
  GuestTask<void> ConsumeResults(Thread* t, const SyscallRequest& req,
                                 uint64_t entry_off, int64_t result);

  GuestTask<void> MasterPath(Thread* t, SyscallRequest req, uint64_t token);
  GuestTask<void> SlavePath(Thread* t, SyscallRequest req);
  // Forward the call to GHUMVEE (4'): destroy token, restart traced.
  GuestTask<void> ForwardToGhumvee(Thread* t, SyscallRequest req);

  // VARAN-like mode: everything replicates in-process, loosely synchronized, no CP
  // fallback, overflow handled by a replica barrier instead of a GHUMVEE reset.
  GuestTask<void> VaranPath(Thread* t, SyscallRequest req);
  GuestTask<void> VaranFlushBarrier(Thread* t, int rank);

  // Raises the intentional crash that signals GHUMVEE about an argument mismatch.
  void IntentionalCrash(Thread* t);

  Kernel* kernel_;
  IkBroker* broker_;
  RelaxationPolicy policy_;
  FileMap* file_map_;
  Config config_;
  Process* process_ = nullptr;
  RbView rb_;
  RbTransport* transport_ = nullptr;  // Master of a cross-machine set; not owned.
  bool rb_private_mirror_ = false;    // Remote slave: RB is a machine-local mirror.
  std::function<void()> on_initialized_;

  // Per-rank cursors/sequence numbers: this replica's private positions ("each
  // replica thread only reads and writes its own RB position", §3.2). The master's
  // IP-MON additionally owns the write cursor; they advance identically because
  // every replica computes the same entry sizes.
  std::vector<uint64_t> cursor_;
  std::vector<uint64_t> seq_;

  // epoll shadow mapping (§3.9): (epfd, fd) <-> this replica's data values, for
  // translating epoll_wait results between replicas.
  EpollShadowMap epoll_shadow_;

  uint64_t rb_resets_ = 0;
  uint64_t rb_migrations_ = 0;
  uint64_t mismatches_tolerated_ = 0;  // VARAN-like mode tolerates small mismatches.
  std::vector<uint64_t> varan_flush_gen_;  // Per-rank flush-barrier generation.
};

}  // namespace remon

#endif  // SRC_CORE_IPMON_H_
