// Virtual-time cost model.
//
// Every interaction in the simulated system is charged nanoseconds from this table.
// The defaults are calibrated against published microarchitectural numbers for the
// paper's testbed (2x Xeon E5-2660, Linux 3.13) so that the paper's headline ratios
// re-emerge: ptrace-based cross-process monitoring costs microseconds per system call
// (two context switches per stop, four stops per monitored call), while the IP-MON
// fast path costs tens-to-hundreds of nanoseconds. The paper-figure benches under
// bench/ print measured numbers beside the paper's; docs/BENCH_SCHEMA.md names the
// metrics their baselines commit.

#ifndef SRC_SIM_COST_MODEL_H_
#define SRC_SIM_COST_MODEL_H_

#include <cstdint>

#include "src/sim/time.h"

namespace remon {

struct CostModel {
  // --- Hardware / kernel baseline -------------------------------------------------
  // User<->kernel mode transition for one system call (trap + return).
  DurationNs syscall_trap_ns = 150;
  // Full context switch between processes: register state, page-table switch, and the
  // amortized TLB/cache refill tax that follows.
  DurationNs context_switch_ns = 2200;
  // Physical cores per simulated machine (the paper's testbed: 2x 8-core Xeon
  // E5-2660). Every machine brings its own cores.
  int num_cores = 16;

  // --- ptrace (cross-process monitoring) ------------------------------------------
  // One ptrace stop: tracee halts, the kernel wakes the tracer (waitpid returns).
  // Costs one context switch plus fixed kernel bookkeeping on each side. Billed to
  // the rank's monitor lane when the stop finds it idle (SimStats::ptrace_wakeups):
  // every lane pays its own wakeups, and a stop queued behind a busy lane none.
  DurationNs ptrace_stop_ns = 2800;
  // PTRACE_SYSCALL/PTRACE_CONT resume of a stopped tracee.
  DurationNs ptrace_resume_ns = 1800;
  // PTRACE_GETREGS / PTRACE_SETREGS.
  DurationNs ptrace_getregs_ns = 700;
  // process_vm_readv/writev: fixed setup plus per-byte copy cost.
  DurationNs vm_copy_base_ns = 500;
  double vm_copy_ns_per_byte = 0.06;  // ~16 GB/s effective.

  // --- GHUMVEE monitor work --------------------------------------------------------
  // Fixed cost of the monitor's per-call bookkeeping (state machine, policy lookup).
  DurationNs monitor_dispatch_ns = 600;
  // Per-ptrace-event monitor work that cannot be amortized even under bursty load:
  // the waitpid round, PTRACE_GETREGS, and the resume request are real system calls
  // the monitor issues for every stop.
  DurationNs monitor_event_ns = 1500;
  // Deep comparison of two argument blocks, per byte (runs in the monitor).
  double monitor_compare_ns_per_byte = 0.12;

  // --- IK-B broker -------------------------------------------------------------
  // Deciding monitored vs unmonitored and rewriting the PC to IP-MON's entry point.
  DurationNs ikb_route_ns = 90;
  // Generating a 64-bit one-time authorization token (kernel PRNG draw).
  DurationNs token_generate_ns = 60;
  // Verifying / revoking a token on syscall restart.
  DurationNs token_check_ns = 40;

  // --- IP-MON fast path -------------------------------------------------------
  // Entering/leaving IP-MON's syscall entry point (register shuffling, policy check).
  DurationNs ipmon_entry_ns = 110;
  // Per-entry fixed cost of appending to the replication buffer.
  DurationNs rb_entry_ns = 70;
  // Per-byte cost of copying argument/result data through the RB (cache-hot memcpy).
  double rb_ns_per_byte = 0.05;
  // One iteration of the slave's spin-read loop.
  DurationNs spin_iteration_ns = 40;
  // futex-based condition variable: wait (sleep+wakeup path) and wake.
  DurationNs futex_wait_ns = 1400;
  DurationNs futex_wake_ns = 600;

  // --- Memory-subsystem pressure ----------------------------------------------
  // Replicas on one machine share its last-level cache and memory bandwidth.
  // Compute bursts of a workload with memory intensity m are dilated by
  //   1 + m * contention_per_extra_replica * (active_replicas - 1) * (20.0 / llc_mb)
  // where active_replicas counts the live replica processes on the burst's machine.
  // With the default coefficient of 1.0, a workload's mem_intensity directly encodes
  // its measured per-extra-replica slowdown fraction on the paper's 20 MB-LLC
  // testbed (e.g. 0.04 -> 4% with two replicas); the llc_mb term reproduces the
  // paper's observation that memory-intensive benchmarks suffer more on the
  // 8 MB-cache machines other MVEEs were evaluated on (Table 2).
  double contention_per_extra_replica = 1.0;
  double llc_mb = 20.0;

  // --- Network ------------------------------------------------------------------
  // Defaults for the benchmark client link; individual scenarios override these.
  DurationNs net_latency_ns = 60 * kMicrosecond;  // One-way propagation.
  double net_bandwidth_bytes_per_ns = 0.125;      // 1 Gbit/s == 0.125 B/ns.

  // Dilation factor for compute under replication (see above).
  double ComputeDilation(double mem_intensity, int active_replicas) const {
    if (active_replicas <= 1) {
      return 1.0;
    }
    double cache_factor = llc_mb > 0 ? (20.0 / llc_mb) : 1.0;
    return 1.0 +
           mem_intensity * contention_per_extra_replica * (active_replicas - 1) * cache_factor;
  }

  // Cost of copying `bytes` with process_vm_readv/writev.
  DurationNs VmCopyCost(uint64_t bytes) const {
    return vm_copy_base_ns + static_cast<DurationNs>(static_cast<double>(bytes) * vm_copy_ns_per_byte);
  }

  // Cost of moving `bytes` through the replication buffer.
  DurationNs RbCopyCost(uint64_t bytes) const {
    return rb_entry_ns + static_cast<DurationNs>(static_cast<double>(bytes) * rb_ns_per_byte);
  }

  // Cost of deep-comparing `bytes` in the monitor.
  DurationNs CompareCost(uint64_t bytes) const {
    return static_cast<DurationNs>(static_cast<double>(bytes) * monitor_compare_ns_per_byte);
  }

  static CostModel Default() { return CostModel{}; }
};

}  // namespace remon

#endif  // SRC_SIM_COST_MODEL_H_
