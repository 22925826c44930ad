// GHUMVEE: the security-oriented cross-process monitor (paper §2, §3).
//
// GHUMVEE attaches to every replica with (simulated) ptrace and receives
// syscall-entry, syscall-exit, and signal-delivery stops. Like the paper's monitor it
// runs one monitor thread per set of replica threads: every rank has its own lane in
// the PtraceHub and its own MonitorLoop, so different ranks' rounds overlap. Monitored
// calls run in lockstep: all replicas' rank-r threads must arrive at the entry stop,
// their deep-compared argument signatures must match, and then either
//   * master-call: the master executes while every slave is resumed into a fake
//     (skipped) call and parks at its exit stop; at the master's exit stop GHUMVEE
//     captures the results into IP-MON's result payload, resumes the master at
//     once, and applies the payload to each parked slave (process_vm_writev
//     analog) with the master's return value, or
//   * local call: every replica executes its own (memory management, thread
//     creation, signal bookkeeping, futexes).
//
// GHUMVEE additionally: maintains the FD metadata that backs the IP-MON file map
// (§3.6); polices shared-memory requests that could form inter-replica channels
// (§2.1); filters /proc/<pid>/maps so the RB and IP-MON stay hidden (§3.1); defers
// asynchronous signals until all replicas are at equivalent states, reaching into
// unmonitored execution via the RB's signals-pending flag (§2.2, §3.8); arbitrates
// IP-MON registration and RB overflow resets (§3.2, §3.5); and shuts the MVEE down
// on divergence.

#ifndef SRC_CORE_GHUMVEE_H_
#define SRC_CORE_GHUMVEE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/epoll_shadow.h"
#include "src/core/file_map.h"
#include "src/core/policy.h"
#include "src/kernel/kernel.h"
#include "src/kernel/ptrace.h"
#include "src/kernel/syscall_meta.h"
#include "src/sim/task.h"

namespace remon {

class IpMon;

struct DivergenceRecord {
  TimeNs when = 0;
  int rank = -1;
  Sys nr = Sys::kInvalid;
  std::string reason;
};

class Ghumvee {
 public:
  explicit Ghumvee(Kernel* kernel);
  ~Ghumvee();
  Ghumvee(const Ghumvee&) = delete;
  Ghumvee& operator=(const Ghumvee&) = delete;

  // --- Wiring (done by the ReMon front end) --------------------------------------

  // Attaches a replica (ptrace) in replica-index order; index 0 is the master.
  void AddReplica(Process* process);
  void AttachIpmon(int replica_index, IpMon* mon);
  void set_temporal(TemporalExemptionState* temporal) { temporal_ = temporal; }
  // Enables the §4 extension: migrate the RB to fresh addresses at flush points
  // (applied when the replicas are single-threaded and fully stopped).
  void set_rb_migration(bool on) { rb_migration_ = on; }
  // Re-seed gate: while it returns true, the RB reset round parks — a reset
  // between a replacement checkpoint's capture and its apply would rebase every
  // offset in the image. Master calls' FD-map updates do not park: the checkpoint
  // does not carry the file map, which every replica maps from GHUMVEE. Wired to
  // RbTransport::SnapshotInflight.
  void set_reseed_gate(std::function<bool()> gate) { reseed_gate_ = std::move(gate); }
  FileMap* file_map() { return &file_map_; }

  // --- Status ---------------------------------------------------------------------

  bool shutdown_requested() const { return shutdown_; }
  bool divergence_detected() const { return !divergences_.empty(); }
  const std::vector<DivergenceRecord>& divergences() const { return divergences_; }
  int replicas_exited() const { return replicas_exited_; }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  Process* master() const { return replicas_.empty() ? nullptr : replicas_[0]; }
  uint64_t lockstep_rounds() const { return lockstep_rounds_; }
  // True while rank `rank`'s round executes: some member's leg is still open.
  bool RoundExecuting(int rank) const;

  // Declares divergence and shuts down all replicas (also used by tests to model
  // IP-MON's intentional-crash escalation).
  void Divergence(int rank, Sys nr, std::string reason);

 private:
  // Per-rank lockstep state machine. Arrivals accumulate in `pending` (threads stay
  // parked at their entry stops); a round fires when every replica has arrived and no
  // previous round is still in flight. `current` holds the firing round's threads —
  // arrivals for the *next* round can accumulate while it completes.
  struct RankState {
    // kComparing: the round's signatures are being compared. kExecuting: each
    // replica runs one leg of the call, and the round closes with its last leg.
    // In a master call the master executes and every slave takes the fake call;
    // otherwise (a local call, the shared-memory denial, the RB flush) each
    // replica's leg ends at its own exit stop. A member that dies closes its leg.
    enum class Phase { kCollecting, kComparing, kExecuting };
    // A member's progress: running to its exit stop, parked there awaiting the
    // master's results (master-call slaves only), or done with the round.
    enum class Leg : uint8_t { kRunning, kParked, kDone };
    Phase phase = Phase::kCollecting;
    std::vector<Thread*> pending;  // Indexed by replica; nullptr until arrival.
    int pending_count = 0;
    std::vector<Thread*> current;  // The in-flight round.
    SyscallRequest req;
    // kExecuting: per-replica legs and how many are still open, whether the round
    // is a master call, and its master's results once the master's exit stop has
    // been handled (`results_ready`).
    std::vector<Leg> legs;
    int open_legs = 0;
    bool master_call = false;
    bool results_ready = false;
    int64_t result = 0;
    // The master's results as IP-MON's result payload (CaptureResults), epoll
    // cookies already turned into fds; set with `results_ready`.
    std::vector<uint8_t> payload;
    // Watchdog: armed while arrivals are partial; fires Divergence if the round
    // never completes (a compromised replica stopped participating in lockstep).
    EventQueue::EventId watchdog = 0;
    uint64_t watchdog_round = 0;  // Rounds completed when the watchdog was armed.
    uint64_t rounds_fired = 0;
  };

 public:
  // How long a lockstep round may stay partially assembled before GHUMVEE declares
  // divergence. Master-slave skew is bounded by the RB, so a generous bound is safe.
  DurationNs lockstep_timeout_ns = Seconds(2);

 private:

  // Opens rank `rank`'s monitor lane: returns its loop, parked before its first step.
  std::coroutine_handle<> OpenLane(int rank);
  GuestTask<void> MonitorLoop(int rank);
  GuestTask<void> HandleEntryStop(Thread* t);
  GuestTask<void> RunLockstep(int rank, RankState& rs);
  GuestTask<void> HandleExitStop(int rank, Thread* t);
  // The master's exit stop: reads its results, resumes it, feeds every parked slave.
  GuestTask<void> HandleMasterExit(int rank, RankState& rs, Thread* master_thread);
  // Writes the master's results into parked slave `replica` and resumes it.
  GuestTask<void> DeliverResults(int rank, RankState& rs, int replica);
  // Executes the compared round: opens one running leg per replica and resumes
  // the master with `master_action`, then slaves 1..n-1 with `slave_action`.
  void ExecuteRound(RankState& rs, bool master_call, const PtraceAction& master_action,
                    const PtraceAction& slave_action);
  // Replica `replica`'s leg is done; the last one returns the rank to collecting.
  void LegDone(RankState& rs, int replica);
  GuestTask<void> HandleSignalStop(const PtraceEvent& ev);
  void HandleProcessExit(Process* p);
  // Replica thread `t` died: its open leg closes, and a round waiting on it can
  // never complete, which is divergence unless `lockstep_exit` (every replica is
  // taking itself down).
  void MemberGone(Thread* t, bool lockstep_exit);
  // True while a lockstepped exit_group executes: every replica is taking itself down.
  bool ExitingInLockstep() const;
  // Drops every reference to exited thread `t` and releases it to the kernel,
  // which may then reap it (the waitpid that collects a traced zombie).
  void ReleaseExited(Thread* t);
  // PTRACE_SYSCALL for a thread still at its stop (a killed tracee stays put).
  void Resume(Thread* t, const PtraceAction& action);

  // Parks rank `rank`'s reset round while the re-seed gate is closed (see
  // set_reseed_gate), until the checkpoint is acked, the link dies or the MVEE
  // shuts down.
  GuestTask<void> AwaitReseedGate(int rank);

  // Special monitored calls.
  bool IsSharedMemoryViolation(const SyscallRequest& req) const;
  void HandleRbFlush(int rank, RankState& rs);
  // Updates the FD metadata (file map) after a successful FD-lifecycle call.
  void TrackFds(const SyscallRequest& req, int64_t result);
  // Rewrites the master's open /proc/<pid>/maps snapshot to hide IP-MON and the RB.
  void FilterMapsContent(Thread* master_thread, const SyscallRequest& req, int64_t fd);

  // Deferred-signal plumbing (§2.2 / §3.8).
  void DeferSignal(Thread* t, int sig);
  void InjectDeferredSignals(int rank);
  void SetSignalsPendingFlag(bool pending);

  // The awaitable cost helper bound to rank `rank`'s lane.
  auto Work(int rank, DurationNs d);
  // The result codec's read access to replica `p`: unchecked, and counted as
  // process_vm_readv bytes (Kernel::TracerRead).
  auto TracerReader(Process* p);

  // Replica `replica`'s one epoll shadow (§3.9): its IP-MON's, or for a replica
  // without IP-MON the map GHUMVEE keeps for it.
  EpollShadowMap& EpollShadow(int replica);

  Kernel* kernel_;
  PtraceHub hub_;
  std::vector<Process*> replicas_;
  std::vector<IpMon*> ipmons_;
  FileMap file_map_;
  TemporalExemptionState* temporal_ = nullptr;

  std::map<int, RankState> ranks_;
  std::deque<std::pair<int, int>> deferred_signals_;  // (rank, signal)
  // Signals GHUMVEE itself injected: their delivery stops must pass through rather
  // than be deferred again. Keyed by thread, value is a signal bitmask.
  std::map<Thread*, uint64_t> injected_signals_;

  // The epoll shadow of each replica without IP-MON; null once one is attached.
  std::vector<std::unique_ptr<EpollShadowMap>> own_epoll_shadow_;

  std::vector<DivergenceRecord> divergences_;
  std::function<bool()> reseed_gate_;
  bool rb_migration_ = false;
  bool shutdown_ = false;
  int replicas_exited_ = 0;
  uint64_t lockstep_rounds_ = 0;
  std::vector<std::coroutine_handle<>> loop_frames_;  // One per opened lane.
};

}  // namespace remon

#endif  // SRC_CORE_GHUMVEE_H_
