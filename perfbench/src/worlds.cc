#include "perfbench/src/worlds.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "src/core/fleet.h"
#include "src/kernel/kernel.h"
#include "src/mem/layout.h"
#include "src/mem/shm.h"
#include "src/net/network.h"
#include "src/vfs/fs.h"
#include "src/workloads/servers.h"

namespace perfbench {

using remon::MveeMode;

namespace {

// The servers' head start to reach their accept loops: set-up ends here and
// the first request is due.
constexpr TimeNs kStartAt = remon::Millis(2);
// Client <-> server and leader <-> replica-host links: the paper's Fig. 5
// worst case, 60 us one way at 1 Gbit/s.
const remon::LinkParams kGigabit{60 * remon::kMicrosecond, 0.125};
// Fault-injector resolution for timing a replacement's join.
constexpr DurationNs kJoinPoll = 5 * remon::kMicrosecond;

std::vector<Scenario> MakeScenarios() {
  Scenario rw;
  rw.name = "redis_rw";
  rw.server = "redis";
  rw.level = remon::PolicyLevel::kSocketRw;
  rw.connections = 32;
  rw.requests = 60000;
  rw.reply_lo = 128;  // Mean 256 B.
  rw.reply_hi = 384;

  Scenario ro = rw;
  ro.name = "redis_ro";
  ro.level = remon::PolicyLevel::kSocketRo;

  Scenario fleet;
  fleet.name = "fleet_swarm";
  fleet.server = "nginx";
  fleet.open_loop = true;
  fleet.shards = 4;
  fleet.arrivals = 10000;
  fleet.ladder = {10000, 20000, 25000, 30000, 40000, 50000};
  // 30k conn/s is the 4-shard capacity: there the tail is metastable (p99 from
  // 0.3 to 18 ms depending on the seed), so the end-to-end rung sits below it.
  fleet.reference_rate = 25000;
  fleet.reply_lo = 256;  // Mean 512 B.
  fleet.reply_hi = 768;

  Scenario rec;
  rec.name = "remote_recovery";
  rec.server = "memcached";
  rec.replicas = 3;
  rec.connections = 32;
  rec.requests = 20000;
  // Mean 640 B. Around 512 B the set's latency sits between two modes (about
  // 0.28 and 0.38 ms), so the median flips between them from seed to seed.
  rec.reply_lo = 600;
  rec.reply_hi = 680;
  rec.remote_replica = true;
  rec.kill_every = remon::Millis(25);
  return {rw, ro, fleet, rec};
}

const std::vector<Scenario>& Scenarios() {
  static const std::vector<Scenario> kScenarios = MakeScenarios();
  return kScenarios;
}

struct World {
  explicit World(uint64_t seed) : sim(seed), net(&sim), kernel(&sim, &fs, &net, &shm) {}
  remon::Simulator sim;
  remon::Filesystem fs;
  remon::Network net;
  remon::ShmRegistry shm;
  remon::Kernel kernel;
};

remon::RemonOptions OptionsFor(const Scenario& sc, MveeMode mode,
                               const remon::ServerSpec& server) {
  remon::RemonOptions opts;
  opts.mode = mode;
  opts.replicas = sc.replicas;
  opts.level = sc.level;
  opts.mem_intensity = server.mem_intensity;
  if (sc.remote_replica) {
    opts.use_sync_agent = server.workers > 1;
    opts.rb_batch_max = 16;
    opts.rb_batch_policy = remon::RbBatchPolicy::kAdaptive;
    opts.rb_auth = true;
    opts.respawn_dead_replicas = true;
    opts.reseed_mode = remon::ReseedMode::kDelta;
  }
  if (sc.open_loop) {
    opts.file_map_pages = 4;  // Swarm-scale FD counts outgrow one page.
  }
  return opts;
}

// Kills the highest-index remote replica every `every` until the client is
// done, and times each kill to its replacement's join.
class FaultInjector {
 public:
  FaultInjector(remon::Simulator* sim, remon::Remon* mvee, DurationNs every,
                std::function<bool()> client_done)
      : sim_(sim), mvee_(mvee), every_(every), client_done_(std::move(client_done)) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void Arm(TimeNs first) {
    sim_->queue().ScheduleAt(first, [this] { Kill(); });
  }
  const std::vector<KillRecord>& kills() const { return kills_; }

 private:
  void Kill() {
    if (client_done_()) {
      return;  // Workload finished: stop, or a server would be killed forever.
    }
    for (int i = mvee_->options().replicas - 1; i >= 1; --i) {
      if (remon::RemoteSyncAgent* agent = mvee_->remote_agent(i)) {
        agent->Shutdown();
        kills_.push_back(KillRecord{sim_->now(), -1});
        joins_before_ = sim_->stats().rb_replica_joins;
        sim_->queue().ScheduleAfter(kJoinPoll, [this] { PollJoin(); });
        break;
      }
    }
    sim_->queue().ScheduleAfter(every_, [this] { Kill(); });
  }

  void PollJoin() {
    KillRecord& k = kills_.back();
    if (sim_->stats().rb_replica_joins > joins_before_) {
      k.joined = sim_->now();
    } else if (!client_done_() && sim_->now() - k.killed < every_) {
      sim_->queue().ScheduleAfter(kJoinPoll, [this] { PollJoin(); });
    }
  }

  remon::Simulator* sim_;
  remon::Remon* mvee_;
  DurationNs every_;
  std::function<bool()> client_done_;
  std::vector<KillRecord> kills_;
  uint64_t joins_before_ = 0;
};

Outcome Drive(remon::Simulator& sim, const std::function<bool()>& done,
              const Watchdog& wd, const SliceHook& hook, TimeNs* end,
              std::vector<double>* slice_cpu) {
  const double host_deadline = HostSeconds() + wd.host_cap_s;
  TimeNs t = sim.now();
  double cpu = ProcessCpuSeconds();
  for (;;) {
    *end = t;
    if (done()) {
      return Outcome::kDone;
    }
    if (sim.queue().empty()) {
      return Outcome::kDrained;
    }
    if (t >= wd.virtual_cap) {
      return Outcome::kVirtualCap;
    }
    if (HostSeconds() >= host_deadline) {
      return Outcome::kHostCap;
    }
    double begin = hook ? HostSeconds() : 0;
    t += wd.slice;
    sim.Run(t);
    double now_cpu = ProcessCpuSeconds();
    slice_cpu->push_back(now_cpu - cpu);
    cpu = now_cpu;
    if (hook) {
      hook(sim, begin, HostSeconds());
    }
  }
}

template <typename T>
void Flatten(const std::vector<std::vector<T>>& nested, std::vector<T>* out) {
  for (const std::vector<T>& v : nested) {
    out->insert(out->end(), v.begin(), v.end());
  }
}

class Fnv {
 public:
  void Add(int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * i))) *
           0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

const Scenario* FindScenario(const std::string& name) {
  for (const Scenario& sc : Scenarios()) {
    if (sc.name == name) {
      return &sc;
    }
  }
  return nullptr;
}

std::vector<std::string> ScenarioNames() {
  std::vector<std::string> names;
  for (const Scenario& sc : Scenarios()) {
    names.push_back(sc.name);
  }
  return names;
}

Inputs MakeInputs(const Scenario& sc, uint64_t seed, double rate) {
  Inputs in;
  if (sc.open_loop) {
    in.due = DrawArrivals(seed, sc.arrivals, rate, kStartAt, sc.client_processes);
  }
  // Open loop: one reply size per arrival, dealt like the arrivals.
  in.reply_bytes = DrawReplySizes(seed, sc.open_loop ? sc.client_processes : sc.connections,
                                  sc.open_loop ? sc.arrivals : sc.requests, sc.reply_lo,
                                  sc.reply_hi);
  return in;
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kDone:
      return "done";
    case Outcome::kDrained:
      return "hung (event queue drained before the client finished)";
    case Outcome::kVirtualCap:
      return "virtual-time cap hit";
    case Outcome::kHostCap:
      return "host-time cap hit";
  }
  return "?";
}

uint64_t WorldRun::Completed() const {
  uint64_t n = 0;
  for (const RequestRecord& r : records) {
    n += r.ok ? 1 : 0;
  }
  return n;
}

TimeNs WorldRun::Span() const {
  TimeNs last = start_at;
  for (const RequestRecord& r : records) {
    last = std::max(last, r.done);
  }
  return last - start_at;
}

uint64_t WorldRun::VirtualDigest() const {
  Fnv h;
  for (const RequestRecord& r : records) {
    for (int64_t v : {r.due, r.started, r.connected, r.first_byte, r.done,
                      int64_t{r.ok}, int64_t{r.connect_failed}}) {
      h.Add(v);
    }
  }
  for (uint64_t v :
       {bytes_received, uint64_t(arrived), uint64_t(end), uint64_t(outcome),
        uint64_t(diverged), stats.syscalls_total, stats.syscalls_monitored,
        stats.syscalls_unmonitored, stats.ptrace_stops, stats.vm_copy_bytes,
        stats.rb_entries, stats.rb_bytes, stats.rb_frames_sent,
        stats.rb_frame_bytes_sent, stats.rb_replica_joins, stats.sync_ops_recorded,
        stats.futex_waits, stats.divergences_detected, events, lane_scheduled,
        heap_scheduled, uint64_t(cpu_busy), context_switches}) {
    h.Add(static_cast<int64_t>(v));
  }
  for (const KillRecord& k : kills) {
    h.Add(k.killed);
    h.Add(k.joined);
  }
  for (uint64_t v : routed) {
    h.Add(static_cast<int64_t>(v));
  }
  return h.value();
}

WorldRun RunWorld(const Scenario& sc, const Inputs& in, MveeMode mode, uint64_t seed,
                  double rate, const Watchdog& wd, bool setup_only,
                  const SliceHook& hook) {
  WorldRun r;
  r.label = sc.name + " " + std::string(remon::MveeModeName(mode));
  if (sc.open_loop) {
    r.label += " " + std::to_string(static_cast<int>(rate)) + "/s";
  }
  r.start_at = kStartAt;
  const double cpu0 = ProcessCpuSeconds();

  // Generator state first, so it outlives the world whose threads point at it;
  // the world before the monitors, so it outlives them.
  ClosedLoopPlan closed_plan;
  ClosedLoopState closed;
  OpenLoopPlan open_plan;
  OpenLoopState open;
  std::function<bool()> done;
  auto w = std::make_unique<World>(seed);
  std::unique_ptr<remon::Remon> mvee;
  std::unique_ptr<remon::FleetManager> fleet;
  remon::LayoutPlanner planner(&w->sim.rng());
  remon::ServerSpec server = remon::ServerByName(sc.server);
  remon::RemonOptions opts = OptionsFor(sc, mode, server);

  if (!sc.open_loop) {
    uint32_t server_machine = w->net.AddMachine("server");
    uint32_t client_machine = w->net.AddMachine("client");
    w->net.SetLink(server_machine, client_machine, kGigabit);
    opts.machine = server_machine;
    if (sc.remote_replica && mode == MveeMode::kRemon) {
      uint32_t host = w->net.AddMachine("replica-host-1");
      w->net.SetLink(server_machine, host, kGigabit);
      opts.replica_machines.assign(static_cast<size_t>(sc.replicas), server_machine);
      opts.replica_machines.back() = host;
    }
    mvee = std::make_unique<remon::Remon>(&w->kernel, opts);
    mvee->Launch(remon::ServerProgram(server), server.name);
    remon::Process* client =
        w->kernel.CreateProcess("client", client_machine, planner.PlanFor(8));
    closed_plan.server_machine = server_machine;
    closed_plan.port = server.port;
    closed_plan.start_at = kStartAt;
    closed_plan.reply_bytes = in.reply_bytes;
    SpawnClosedLoop(&w->kernel, client, &closed_plan, &closed);
    int connections = static_cast<int>(closed_plan.reply_bytes.size());
    done = [&closed, connections] { return closed.connections_done == connections; };
  } else {
    remon::FleetTierSpec tier;
    tier.name = server.name;
    tier.port = 9000;
    tier.initial_shards = tier.min_shards = tier.max_shards = sc.shards;
    tier.policy = remon::LoadBalancer::Policy::kConsistentHash;
    remon::ShardBodyFn body = [server](const remon::ShardContext& ctx) {
      remon::ServerSpec s = server;
      s.name = ctx.name;  // Unique access-log paths on the shared filesystem.
      s.port = ctx.listen_port;
      return remon::ServerProgram(s);
    };
    fleet = std::make_unique<remon::FleetManager>(&w->kernel, opts,
                                                  std::vector<remon::FleetTierSpec>{tier},
                                                  std::move(body));
    fleet->Start();
    std::vector<remon::Process*> clients;
    for (size_t i = 0; i < in.due.size(); ++i) {
      uint32_t machine = w->net.AddMachine("swarm-c" + std::to_string(i));
      clients.push_back(w->kernel.CreateProcess("swarm-" + std::to_string(i), machine,
                                                planner.PlanFor(8)));
    }
    open_plan.target_machine = fleet->vip(0).machine;
    open_plan.port = fleet->vip(0).port;
    open_plan.due = in.due;
    open_plan.reply_bytes = in.reply_bytes;
    SpawnOpenLoop(&w->kernel, clients, &open_plan, &open);
    int processes = static_cast<int>(clients.size());
    done = [&open, processes] { return open.processes_done == processes; };
  }
  w->sim.Run(kStartAt - 1);
  r.host_setup_s = ProcessCpuSeconds() - cpu0;
  if (setup_only) {
    return r;
  }

  std::unique_ptr<FaultInjector> injector;
  if (sc.kill_every > 0 && mode == MveeMode::kRemon) {
    injector = std::make_unique<FaultInjector>(&w->sim, mvee.get(), sc.kill_every, done);
    injector->Arm(kStartAt + sc.kill_every);
  }
  const remon::FramePool::Stats frames0 = w->sim.frame_pool().stats();
  r.outcome = Drive(w->sim, done, wd, hook, &r.end, &r.host_slice_s);
  for (double v : r.host_slice_s) {
    r.host_run_s += v;
  }

  const remon::FramePool::Stats& frames1 = w->sim.frame_pool().stats();
  r.frames.allocs = frames1.allocs - frames0.allocs;
  r.frames.pool_hits = frames1.pool_hits - frames0.pool_hits;
  if (sc.open_loop) {
    Flatten(open.records, &r.records);
    r.bytes_received = open.bytes_received;
    r.arrived = open.arrived;
    r.diverged = fleet->divergence_detected();
    for (int s = 0; s < fleet->shard_count(0); ++s) {
      r.routed.push_back(fleet->balancer(0)->routed_to(static_cast<uint64_t>(s)));
    }
  } else {
    Flatten(closed.records, &r.records);
    r.bytes_received = closed.bytes_received;
    r.diverged = mvee->divergence_detected();
  }
  if (injector) {
    r.kills = injector->kills();
  }
  r.stats = w->sim.stats();
  r.events = w->sim.queue().executed_count();
  r.lane_scheduled = w->sim.queue().lane_scheduled();
  r.heap_scheduled = w->sim.queue().heap_scheduled();
  r.cpu_busy = w->sim.cpus().total_busy();
  r.context_switches = w->sim.cpus().context_switches();
  r.cores = w->sim.cpus().num_cores();
  return r;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(p / 100.0 * static_cast<double>(v.size() - 1))];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double HostSeconds() {
  static const auto kOrigin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kOrigin).count();
}

}  // namespace perfbench
