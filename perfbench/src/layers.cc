#include "perfbench/src/layers.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/core/broker.h"
#include "src/core/policy.h"
#include "src/core/rb_auth.h"
#include "src/core/rb_wire.h"
#include "src/core/replication_buffer.h"
#include "src/kernel/guest.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall_meta.h"
#include "src/mem/layout.h"
#include "src/mem/shm.h"
#include "src/net/network.h"
#include "src/vfs/fs.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Defeats dead-code elimination without a library dependency.
template <typename T>
inline void Keep(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// Median over five batches of host ns per call of `op`; each batch runs for at
// least 4 ms after one warm-up call.
template <typename Op>
double NsPerCall(Op&& op) {
  using Clock = std::chrono::steady_clock;
  op();
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    uint64_t calls = 0;
    auto t0 = Clock::now();
    double elapsed = 0;
    do {
      for (int i = 0; i < 16; ++i) {
        op();
      }
      calls += 16;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < 0.004);
    batches.push_back(elapsed * 1e9 / static_cast<double>(calls));
  }
  return Median(std::move(batches));
}

// A process with a mapped RB region, enough context for the RB, signature and
// broker calls.
struct MicroWorld {
  MicroWorld() : sim(1), net(&sim), kernel(&sim, &fs, &net, &shm) {
    remon::Rng rng(7);
    remon::LayoutPlanner planner(&rng);
    process = kernel.CreateProcess("micro", 0, planner.PlanFor(0));
    process->mem().MapFixed(kBase, kSize, remon::kProtRead | remon::kProtWrite, true, "rb");
    view = remon::RbView(process, kBase, kSize, 4);
  }
  static constexpr remon::GuestAddr kBase = 0x7000'0000'0000ULL;
  static constexpr uint64_t kSize = 4 << 20;
  remon::Simulator sim;
  remon::Filesystem fs;
  remon::Network net;
  remon::ShmRegistry shm;
  remon::Kernel kernel;
  remon::Process* process = nullptr;
  remon::RbView view;
};

// One entries frame of about `frame_bytes` carrying `entries` equal images.
std::vector<remon::RbWireEntry> FrameEntries(double frame_bytes, double entries) {
  size_t n = static_cast<size_t>(std::max(1.0, entries + 0.5));
  auto make = [n](size_t image) {
    std::vector<remon::RbWireEntry> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i].entry_off = 4096 + i * 1024;
      v[i].final_state = remon::kRbResultsReady;
      v[i].image.assign(image, static_cast<uint8_t>(0x5a + i));
    }
    return v;
  };
  // Size the images so the encoded frame matches the mean: encode once at a
  // first guess and take the framing overhead off.
  size_t guess = static_cast<size_t>(frame_bytes / static_cast<double>(n));
  size_t framed = remon::RbWireCodec::EncodeEntries(1, 0, 1, make(guess)).size();
  size_t overhead = framed > guess * n ? (framed - guess * n) / n : 0;
  return make(guess > overhead ? guess - overhead : 1);
}

}  // namespace

void AddLayerCounts(const WorldRun& run, Metrics* out) {
  const remon::SimStats& s = run.stats;
  const double req = static_cast<double>(run.Completed());
  const double entries = static_cast<double>(s.rb_entries);
  const double frames = static_cast<double>(s.rb_frames_sent);
  auto add = [out](const char* name, double value, const char* unit) {
    out->push_back(Metric{name, value, unit});
  };

  add("sim.events_per_syscall",
      Ratio(static_cast<double>(run.events), static_cast<double>(s.syscalls_total)),
      "count");
  add("sim.ready_lane_share",
      Ratio(static_cast<double>(run.lane_scheduled),
            static_cast<double>(run.lane_scheduled + run.heap_scheduled)),
      "ratio");
  add("sim.frame_pool_hit_rate",
      Ratio(static_cast<double>(run.frames.pool_hits), static_cast<double>(run.frames.allocs)),
      "ratio");
  add("sim.cpu_busy_share",
      Ratio(static_cast<double>(run.cpu_busy),
            static_cast<double>(run.cores) * static_cast<double>(run.end)),
      "ratio");
  add("sim.context_switches_per_request",
      Ratio(static_cast<double>(run.context_switches), req), "count");

  add("kernel.syscalls_per_request", Ratio(static_cast<double>(s.syscalls_total), req),
      "count");
  add("kernel.futex_waits_per_request", Ratio(static_cast<double>(s.futex_waits), req),
      "count");
  add("kernel.ptrace_stops_per_request", Ratio(static_cast<double>(s.ptrace_stops), req),
      "count");
  add("kernel.vm_copy_bytes_per_request", Ratio(static_cast<double>(s.vm_copy_bytes), req),
      "B");
  add("ghumvee.monitored_per_request",
      Ratio(static_cast<double>(s.syscalls_monitored), req), "count");
  add("ghumvee.divergences", static_cast<double>(s.divergences_detected), "count");

  add("ikb.tokens_per_request", Ratio(static_cast<double>(s.tokens_issued), req), "count");
  add("ikb.ghumvee_forward_share",
      Ratio(static_cast<double>(s.ikb_forward_ghumvee),
            static_cast<double>(s.ikb_forward_ghumvee + s.ikb_forward_ipmon)),
      "ratio");
  add("policy.unmonitored_share",
      Ratio(static_cast<double>(s.syscalls_unmonitored),
            static_cast<double>(s.syscalls_unmonitored + s.syscalls_monitored)),
      "ratio");

  add("rb.entries_per_request", Ratio(entries, req), "count");
  add("rb.bytes_per_entry", Ratio(static_cast<double>(s.rb_bytes), entries), "B");
  add("rb.resets_per_10k_entries", Ratio(1e4 * static_cast<double>(s.rb_resets), entries),
      "count");
  add("rb.spin_waits_per_entry", Ratio(static_cast<double>(s.rb_spin_waits), entries),
      "count");
  add("rb.futex_waits_per_entry", Ratio(static_cast<double>(s.rb_futex_waits), entries),
      "count");
  add("rb.entries_per_flush",
      Ratio(static_cast<double>(s.rb_batched_entries + s.rb_precall_coalesced),
            static_cast<double>(s.rb_batch_flushes)),
      "count");

  add("transport.frames_per_request", Ratio(frames, req), "count");
  add("transport.bytes_per_frame", Ratio(static_cast<double>(s.rb_frame_bytes_sent), frames),
      "B");
  add("transport.stalls_per_frame", Ratio(static_cast<double>(s.rb_transport_stalls), frames),
      "count");
  add("transport.wire_mib_per_s",
      Ratio(static_cast<double>(s.rb_frame_bytes_sent) / (1024.0 * 1024.0),
            static_cast<double>(run.end) / 1e9),
      "MiB/s");

  add("sync.records_per_request", Ratio(static_cast<double>(s.sync_ops_recorded), req),
      "count");
  add("sync.append_stalls_per_record",
      Ratio(static_cast<double>(s.sync_log_append_stalls),
            static_cast<double>(s.sync_ops_recorded)),
      "count");
  add("sync.wrap_stalls", static_cast<double>(s.sync_log_wrap_stalls), "count");

  add("snapshot.kib_per_reseed",
      Ratio(static_cast<double>(s.rb_snapshot_bytes_sent) / 1024.0,
            static_cast<double>(s.rb_replica_joins)),
      "KiB");
  add("snapshot.joins_per_death",
      Ratio(static_cast<double>(s.rb_replica_joins), static_cast<double>(s.rb_remote_deaths)),
      "ratio");
  add("snapshot.full_fallbacks", static_cast<double>(s.rb_snapshot_full_fallbacks), "count");
  add("snapshot.rejects", static_cast<double>(s.rb_snapshot_rejects), "count");

  double imbalance = 0;
  if (!run.routed.empty()) {
    uint64_t total = 0;
    uint64_t most = 0;
    for (uint64_t n : run.routed) {
      total += n;
      most = std::max(most, n);
    }
    imbalance = Ratio(static_cast<double>(most),
                      static_cast<double>(total) / static_cast<double>(run.routed.size()));
  }
  add("lb.route_imbalance", imbalance, "ratio");

  std::vector<double> late_ms;
  uint64_t connect_fails = 0;
  for (const RequestRecord& r : run.records) {
    if (r.started >= 0) {
      late_ms.push_back(static_cast<double>(r.started - r.due) / 1e6);
    }
    connect_fails += r.connect_failed ? 1 : 0;
  }
  add("gen.late_ms_p99", Percentile(std::move(late_ms), 99), "ms");
  add("gen.connect_fail_share",
      Ratio(static_cast<double>(connect_fails), static_cast<double>(run.records.size())),
      "ratio");
}

ObservedSizes SizesOf(const Scenario& sc, const WorldRun& run) {
  const remon::SimStats& s = run.stats;
  ObservedSizes sz;
  sz.entry_bytes = Ratio(static_cast<double>(s.rb_bytes), static_cast<double>(s.rb_entries));
  sz.write_bytes = Ratio(static_cast<double>(run.bytes_received),
                         static_cast<double>(run.Completed()));
  sz.frame_bytes = Ratio(static_cast<double>(s.rb_frame_bytes_sent),
                         static_cast<double>(s.rb_frames_sent));
  sz.entries_per_frame = Ratio(static_cast<double>(s.rb_entries_applied),
                               static_cast<double>(s.rb_frames_applied));
  sz.level = sc.level;
  return sz;
}

void AddMicroTimings(const ObservedSizes& sizes, TraceWriter* trace, int pid, int tid,
                     Metrics* out) {
  auto timed = [&](const char* name, auto&& measure) {
    double begin = HostSeconds();
    double ns = measure();
    if (trace != nullptr) {
      trace->Complete(pid, tid, name, begin * 1e6, (HostSeconds() - begin) * 1e6);
    }
    out->push_back(Metric{name, ns, "ns"});
  };

  // Wire codec and authentication at the mean frame; 0 where no frame crossed
  // a wire.
  if (sizes.frame_bytes > 0) {
    std::vector<remon::RbWireEntry> entries =
        FrameEntries(sizes.frame_bytes, sizes.entries_per_frame);
    std::vector<uint8_t> frame = remon::RbWireCodec::EncodeEntries(1, 0, 1, entries);
    uint64_t seq = 1;
    timed("wire.encode_ns_per_frame", [&] {
      return NsPerCall([&] { Keep(remon::RbWireCodec::EncodeEntries(1, 0, ++seq, entries)); });
    });
    remon::RbFrameParser parser;
    remon::RbWireFrame decoded;
    parser.Feed(frame.data(), frame.size());
    bool parses = parser.Next(&decoded) == remon::RbFrameParser::Status::kFrame;
    timed("wire.parse_ns_per_frame", [&] {
      return !parses ? 0.0 : NsPerCall([&] {
        parser.Feed(frame.data(), frame.size());
        Keep(parser.Next(&decoded));
      });
    });
    // Seal and open work in place, so each call starts from a fresh copy; the
    // copy's own cost is measured alone and taken off.
    remon::RbAuthContext auth("perfbench-secret");
    const auto dir = remon::RbAuthDirection::kLeaderToReplica;
    std::vector<uint8_t> sealed = frame;
    auth.SealFrame(&sealed, dir);
    std::vector<uint8_t> work = frame;
    double copy_ns = NsPerCall([&] {
      work.assign(frame.begin(), frame.end());
      Keep(work.data());
    });
    timed("auth.seal_ns_per_frame", [&] {
      return NsPerCall([&] {
        work.assign(frame.begin(), frame.end());
        auth.SealFrame(&work, dir);
        Keep(work.data());
      }) - copy_ns;
    });
    timed("auth.open_ns_per_frame", [&] {
      return NsPerCall([&] {
        work.assign(sealed.begin(), sealed.end());
        Keep(auth.VerifyAndOpen(&work, dir));
      }) - copy_ns;
    });
  } else {
    for (const char* name : {"wire.encode_ns_per_frame", "wire.parse_ns_per_frame",
                             "auth.seal_ns_per_frame", "auth.open_ns_per_frame"}) {
      out->push_back(Metric{name, 0, "ns"});
    }
  }

  // RB commits at the mean entry footprint, split evenly between the argument
  // signature and the result payload.
  MicroWorld w;
  size_t half = static_cast<size_t>(std::max(1.0, sizes.entry_bytes / 2));
  std::vector<uint8_t> signature(half, 0xab);
  std::vector<uint8_t> payload(half, 0xcd);
  uint64_t off = w.view.RankDataStart(0);
  timed("rb.commit_args_ns", [&] {
    return NsPerCall([&] {
      remon::RbEntryOps::CommitArgs(w.view, off, remon::Sys::kWrite,
                                    remon::kRbFlagMasterCall, 1, half, signature);
    });
  });
  timed("rb.commit_results_ns", [&] {
    return NsPerCall([&] { Keep(remon::RbEntryOps::CommitResults(w.view, off, 42, payload)); });
  });

  // GHUMVEE's lockstep signature of the reply write.
  uint64_t write_bytes = static_cast<uint64_t>(std::max(1.0, sizes.write_bytes));
  remon::SyscallRequest write{remon::Sys::kWrite,
                              {3, MicroWorld::kBase + 4096, write_bytes, 0, 0, 0}};
  timed("ghumvee.signature_ns", [&] {
    return NsPerCall([&] { Keep(remon::SerializeCallSignature(w.process, write)); });
  });

  remon::IkBroker broker(&w.kernel, remon::RelaxationPolicy(sizes.level));
  remon::Thread* t = w.kernel.SpawnThread(
      w.process, [](remon::Guest&) -> remon::GuestTask<void> { co_return; });
  t->cur_req.nr = remon::Sys::kWrite;
  timed("ikb.issue_verify_ns", [&] {
    return NsPerCall([&] {
      uint64_t token = broker.IssueToken(t);
      Keep(broker.VerifyToken(t, token, remon::Sys::kWrite));
    });
  });

  remon::RelaxationPolicy policy(sizes.level);
  uint32_t i = 1;
  timed("policy.classify_ns", [&] {
    return NsPerCall([&] {
      auto nr = static_cast<remon::Sys>(1 + (i++ % (remon::kNumSyscalls - 1)));
      Keep(policy.AllowsUnmonitored(nr, remon::FdType::kSocket));
    });
  });
}

}  // namespace perfbench
