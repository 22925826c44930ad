// GHUMVEE: the security-oriented cross-process monitor (paper §2, §3).
//
// GHUMVEE attaches to every replica with (simulated) ptrace and receives
// syscall-entry, syscall-exit, and signal-delivery stops. Monitored calls run in
// lockstep: all replicas' rank-r threads must arrive at the entry stop, their deep-
// compared argument signatures must match, and then either
//   * master-call: only the master executes; GHUMVEE copies the results into the
//     slaves' memory (process_vm_writev analog) and injects the return value, or
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
  // Re-seed gate: while it returns true, every monitor step that mutates state a
  // replacement checkpoint was cut against parks — the RB reset round (it would
  // rebase every offset in the image) and a master call's FD-map update (the
  // replacement cross-checks the shared map against the image). Wired to
  // RbTransport::SnapshotInflight, so the capture-to-apply window is a cut.
  void set_reseed_gate(std::function<bool()> gate) { reseed_gate_ = std::move(gate); }
  FileMap* file_map() { return &file_map_; }

  // Starts the monitor event loop.
  void Start();

  // --- Status ---------------------------------------------------------------------

  bool running() const { return running_; }
  bool shutdown_requested() const { return shutdown_; }
  bool divergence_detected() const { return !divergences_.empty(); }
  const std::vector<DivergenceRecord>& divergences() const { return divergences_; }
  int replicas_exited() const { return replicas_exited_; }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  Process* master() const { return replicas_.empty() ? nullptr : replicas_[0]; }
  uint64_t lockstep_rounds() const { return lockstep_rounds_; }

  // Declares divergence and shuts down all replicas (also used by tests to model
  // IP-MON's intentional-crash escalation).
  void Divergence(int rank, Sys nr, std::string reason);

 private:
  // Per-rank lockstep state machine. Arrivals accumulate in `pending` (threads stay
  // parked at their entry stops); a round fires when every replica has arrived and no
  // previous round is still executing/draining. `current` holds the firing round's
  // threads — arrivals for the *next* round can accumulate while it drains.
  struct RankState {
    enum class Phase { kCollecting, kMasterExecuting, kDraining };
    Phase phase = Phase::kCollecting;
    std::vector<Thread*> pending;  // Indexed by replica; nullptr until arrival.
    int pending_count = 0;
    std::vector<Thread*> current;  // The in-flight round.
    int drain_remaining = 0;
    SyscallRequest req;
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

  GuestTask<void> MonitorLoop();
  GuestTask<void> HandleEntryStop(Thread* t);
  GuestTask<void> RunLockstep(int rank, RankState& rs);
  GuestTask<void> ReplicateMasterResults(int rank, RankState& rs, Thread* master_thread,
                                         int64_t result);
  void HandleExitStop(Thread* t);
  GuestTask<void> HandleSignalStop(const PtraceEvent& ev);
  void HandleThreadExit(Thread* t);
  void HandleProcessExit(Process* p);
  // Drops every reference to exited thread `t` and releases it to the kernel,
  // which may then reap it (the waitpid that collects a traced zombie).
  void ReleaseExited(Thread* t);

  // Parks the monitor while the re-seed gate is closed (see set_reseed_gate),
  // until the checkpoint is acked, the link dies or the MVEE shuts down.
  GuestTask<void> AwaitReseedGate();

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

  // The awaitable cost helper bound to this monitor's scheduling identity.
  auto Work(DurationNs d);

  int ReplicaIndexOf(const Process* p) const;

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

  // epoll shadow mappings (§3.9): per replica (epfd, fd) -> data, plus the master's
  // reverse direction for translating replicated epoll_wait results.
  // Per-replica epoll data shadow maps (§3.9); replica 0's doubles as the reverse
  // (data -> fd) source when canonicalizing the master's epoll_wait results.
  std::vector<EpollShadowMap> epoll_shadow_;

  std::vector<DivergenceRecord> divergences_;
  std::function<bool()> reseed_gate_;
  bool rb_migration_ = false;
  bool running_ = false;
  bool shutdown_ = false;
  int replicas_exited_ = 0;
  uint64_t lockstep_rounds_ = 0;
  std::coroutine_handle<> loop_frame_;
};

}  // namespace remon

#endif  // SRC_CORE_GHUMVEE_H_
