// Synthetic benchmark suites (PARSEC 2.1 / SPLASH-2x / Phoronix / SPEC analogs).
//
// The paper's suite benchmarks matter to an MVEE only through (i) their system-call
// density and mix, (ii) their threading, and (iii) their memory pressure. Each
// WorkloadSpec encodes exactly those properties; the generic SuiteProgram executes
// the spec against the simulated kernel. Specs are derived from the per-benchmark
// bars of Figures 3 and 4: the difference between a benchmark's GHUMVEE-only and
// IP-MON bars determines its (category-resolved) system-call rate, and the IP-MON
// bar's residual determines its memory pressure. bench_fig3_parsec_splash and
// bench_fig4_phoronix print each benchmark's measured result beside the paper's
// bars; docs/BENCH_SCHEMA.md names the metrics their baselines commit.

#ifndef SRC_WORKLOADS_SUITES_H_
#define SRC_WORKLOADS_SUITES_H_

#include <string>
#include <vector>

#include "src/kernel/guest.h"
#include "src/sim/time.h"

namespace remon {

struct WorkloadSpec {
  std::string name;
  std::string suite;  // "parsec" | "splash" | "phoronix" | "spec".
  int threads = 1;
  int iterations = 0;               // Per thread.
  DurationNs compute_per_iter = 0;  // Native compute per iteration.
  double mem_intensity = 0.0;       // Per-extra-replica slowdown fraction.

  // System calls issued per iteration, by policy category.
  int base_queries = 0;    // gettimeofday/getpid/... (BASE_LEVEL).
  int file_metadata = 0;   // stat/access/lseek (NONSOCKET_RO unconditional).
  int file_reads = 0;      // read on a regular file (NONSOCKET_RO conditional).
  int file_writes = 0;     // write on a regular file (NONSOCKET_RW conditional).
  int pipe_writes = 0;     // write+read pairs through a pipe (NONSOCKET_RW).
  int sock_echoes = 0;     // send+recv pairs over a loopback socket (SOCKET_RW).
  int futex_pairs = 0;     // futex wake/wait-style ops (NONSOCKET_RO conditional).
  uint64_t io_size = 1024; // Bytes per read/write.

  // Agent-ordered synchronization (the paper's §2.3 barrier/lock profile).
  // When nonzero, each iteration ends with `sync_ops` acquisitions of a shared
  // pool counter, rotated across all workers in a pinned round-robin order (a
  // barrier rotation: global slot k = round * threads + worker_id, gated on a
  // shared turn word). Replica sets carrying a sync agent
  // (RemonOptions::use_sync_agent) order every acquisition through
  // SyncAgent::BeforeAcquire, so the master's sync log sees
  // threads * sync_ops * iterations entries; without an agent the rotation
  // still runs, keeping the native baseline the same shape. Each worker logs
  // its acquisitions ("s<slot>o<object>v<value>;") to
  // /tmp/suite-sync-<name>-t<worker>, so transcripts across replica
  // placements can be compared byte-for-byte. The turn gate spin uses
  // nanosleep, which is replica-local: sync specs are meant for kRemon
  // configurations (any level), not kGhumveeOnly lockstep.
  int sync_ops = 0;

  // The paper's bars (normalized runtime, 2 replicas), printed beside the
  // measured result by the fig3/fig4 benches.
  double paper_ghumvee = 0.0;
  double paper_remon = 0.0;

  // Total system calls one iteration makes (used to derive densities).
  int CallsPerIter() const {
    return base_queries + file_metadata + file_reads + file_writes + 2 * pipe_writes +
           2 * sock_echoes + futex_pairs;
  }
};

// A runnable suite workload: the program plus everything the harness must know.
ProgramFn SuiteProgram(const WorkloadSpec& spec);

// Barrier/lock-shaped variant of `spec` for the sync-agent bench columns and
// tests: at least `min_threads` workers, `sync_ops` agent-ordered acquisitions
// per iteration, and the iteration count capped at `max_iterations` (the
// rotation serializes workers, so full-length runs add nothing).
WorkloadSpec SyncVariant(WorkloadSpec spec, int sync_ops, int max_iterations,
                         int min_threads = 4);

// Geometric mean over the positive entries of `xs` (0 when none) — the suite
// summary statistic of Figures 3/4 and the CI-gated per-column metric.
double GeoMean(const std::vector<double>& xs);

// Suite tables for the figures.
std::vector<WorkloadSpec> ParsecSuite();   // Fig. 3, left.
std::vector<WorkloadSpec> SplashSuite();   // Fig. 3, right.
std::vector<WorkloadSpec> PhoronixSuite(); // Fig. 4 (excl. the nginx server column).
std::vector<WorkloadSpec> SpecCpuSuite();  // Table 2 (SPEC CPU 2006 analog).

}  // namespace remon

#endif  // SRC_WORKLOADS_SUITES_H_
