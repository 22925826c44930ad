#include "src/core/fleet.h"

#include <utility>

#include "src/sim/check.h"

namespace remon {

namespace {

// Autoscale load-sampling window.
constexpr DurationNs kAutoscaleInterval = 20 * kMillisecond;
// Launch-to-rotation delay for spawned shards: models provisioning + warm-up,
// like the respawn delay ahead of a replica re-seed.
constexpr DurationNs kShardWarmup = 1 * kMillisecond;
// Spacing of one shard's replica migrations (RebalanceShard).
constexpr DurationNs kRebalanceStagger = 500 * kMicrosecond;

}  // namespace

ScaleDecision AutoscalePolicy::Evaluate(uint64_t window_arrivals, int live,
                                        int pending) {
  if (live + pending <= 0) {
    return ScaleDecision::kHold;
  }
  uint64_t per_shard = window_arrivals / static_cast<uint64_t>(live + pending);
  if (per_shard >= cfg_.up_threshold) {
    // A shard already warming up counts toward capacity: spawning again on the
    // same spike before it lands would thrash straight to the ceiling.
    if (live + pending < max_ && spawns_ < cfg_.max_spawns) {
      ++spawns_;
      return ScaleDecision::kSpawn;
    }
    return ScaleDecision::kHold;
  }
  if (per_shard <= cfg_.down_threshold && live > min_ && pending == 0) {
    return ScaleDecision::kRetire;
  }
  return ScaleDecision::kHold;
}

FleetManager::FleetManager(Kernel* kernel, RemonOptions base,
                           std::vector<FleetTierSpec> tiers, ShardBodyFn body,
                           AutoscaleConfig autoscale)
    : kernel_(kernel),
      base_(std::move(base)),
      tiers_(std::move(tiers)),
      body_(std::move(body)),
      autoscale_(autoscale),
      pending_events_(&kernel->sim()->queue()) {
  REMON_CHECK_MSG(!tiers_.empty(), "a fleet needs at least one tier");
  // Shard placement is per-shard-machine by construction.
  base_.replica_machines.clear();
  for (const FleetTierSpec& t : tiers_) {
    REMON_CHECK_MSG(t.initial_shards >= 1 && t.min_shards >= 1 &&
                        t.initial_shards <= t.max_shards &&
                        t.min_shards <= t.max_shards,
                    "inconsistent tier shard bounds");
    policies_.emplace_back(autoscale_, t.min_shards, t.max_shards);
  }
  shards_.resize(tiers_.size());
  pending_adds_.assign(tiers_.size(), 0);
}

FleetManager::~FleetManager() { StopAutoscale(); }

void FleetManager::Start() {
  REMON_CHECK(!started_);
  started_ = true;
  Network* net = kernel_->net();
  // VIP machines first (all tiers), so any shard can name its upstream.
  vips_.reserve(tiers_.size());
  for (const FleetTierSpec& t : tiers_) {
    uint32_t vm = net->AddMachine(t.name + "-vip");
    vips_.push_back(SockAddr{vm, t.port});
  }
  for (size_t i = 0; i < tiers_.size(); ++i) {
    balancers_.push_back(std::make_unique<LoadBalancer>(net, vips_[i],
                                                        tiers_[i].policy));
  }
  // Back tier first: its shards must be listening (or at least launched) by the
  // time a frontend's first miss opens an upstream connection.
  for (int t = static_cast<int>(tiers_.size()) - 1; t >= 0; --t) {
    for (int s = 0; s < tiers_[static_cast<size_t>(t)].initial_shards; ++s) {
      SpawnShard(t, /*immediate_rotation=*/true);
    }
  }
  if (autoscale_.enabled) {
    tick_event_ = kernel_->sim()->queue().ScheduleAfter(kAutoscaleInterval,
                                                        [this] { Tick(); });
  }
}

void FleetManager::StopAutoscale() {
  if (tick_event_ != EventQueue::kInvalidEvent) {
    kernel_->sim()->queue().Cancel(tick_event_);
    tick_event_ = EventQueue::kInvalidEvent;
  }
  pending_events_.CancelAll();
}

int FleetManager::in_rotation(int tier) const {
  int n = 0;
  for (const Shard& s : shards_[static_cast<size_t>(tier)]) {
    n += s.in_rotation ? 1 : 0;
  }
  return n;
}

bool FleetManager::divergence_detected() const {
  for (const auto& tier : shards_) {
    for (const Shard& s : tier) {
      if (s.remon->divergence_detected()) {
        return true;
      }
    }
  }
  return false;
}

bool FleetManager::finished() const {
  for (const auto& tier : shards_) {
    for (const Shard& s : tier) {
      if (!s.remon->finished()) {
        return false;
      }
    }
  }
  return true;
}

void FleetManager::SpawnShard(int tier, bool immediate_rotation) {
  const FleetTierSpec& spec = tiers_[static_cast<size_t>(tier)];
  std::vector<Shard>& tier_shards = shards_[static_cast<size_t>(tier)];
  int idx = static_cast<int>(tier_shards.size());

  ShardContext ctx;
  ctx.tier = tier;
  ctx.shard = idx;
  ctx.name = spec.name + "-s" + std::to_string(idx);
  ctx.listen_port = spec.port;
  ctx.machine = kernel_->net()->AddMachine(ctx.name);
  ctx.upstream_vip = static_cast<size_t>(tier) + 1 < vips_.size()
                         ? vips_[static_cast<size_t>(tier) + 1]
                         : SockAddr{};

  RemonOptions opts = base_;
  opts.machine = ctx.machine;
  if (spec.remote_replicas && opts.replicas > 1) {
    REMON_CHECK_MSG(opts.mode == MveeMode::kRemon,
                    "remote_replicas shards need the RB transport (mode=remon)");
    opts.replica_machines.assign(static_cast<size_t>(opts.replicas), ctx.machine);
    for (int r = 1; r < opts.replicas; ++r) {
      opts.replica_machines[static_cast<size_t>(r)] =
          kernel_->net()->AddMachine(ctx.name + "-r" + std::to_string(r));
    }
  }
  Shard shard;
  shard.machine = ctx.machine;
  shard.name = ctx.name;
  shard.remon = std::make_unique<Remon>(kernel_, opts);
  shard.remon->Launch(body_(ctx), ctx.name);
  ++launched_;

  LoadBalancer* lb = balancers_[static_cast<size_t>(tier)].get();
  uint64_t backend_id = static_cast<uint64_t>(idx);
  SockAddr backend{ctx.machine, spec.port};
  if (immediate_rotation) {
    shard.in_rotation = true;
    lb->AddBackend(backend_id, backend);
  } else {
    // Rotation waits out the warm-up: replicas boot, bind, and reach their
    // accept loops in virtual time before the first routed SYN.
    ++pending_adds_[static_cast<size_t>(tier)];
    pending_events_.ScheduleAfter(kShardWarmup, [this, tier, idx] {
      --pending_adds_[static_cast<size_t>(tier)];
      Shard& sh = shards_[static_cast<size_t>(tier)][static_cast<size_t>(idx)];
      sh.in_rotation = true;
      balancers_[static_cast<size_t>(tier)]->AddBackend(
          static_cast<uint64_t>(idx),
          SockAddr{sh.machine, tiers_[static_cast<size_t>(tier)].port});
    });
  }
  tier_shards.push_back(std::move(shard));
}

int FleetManager::RebalanceShard(int tier, int shard_idx) {
  Shard& sh = shards_[static_cast<size_t>(tier)][static_cast<size_t>(shard_idx)];
  Remon* remon = sh.remon.get();
  if (remon->transport() == nullptr) {
    return 0;  // All-local shard: nothing runs behind a migratable link.
  }
  ++sh.rebalance_gen;
  int scheduled = 0;
  for (int r = 1; r < remon->options().replicas; ++r) {
    if (remon->remote_agent(r) == nullptr) {
      continue;
    }
    // Fresh machines are named up front (spec-order determinism); the staggered
    // schedule is what serializes the actual moves under load.
    uint32_t target = kernel_->net()->AddMachine(
        sh.name + "-r" + std::to_string(r) + "-m" + std::to_string(sh.rebalance_gen));
    pending_events_.ScheduleAfter(
        kRebalanceStagger * scheduled, [this, tier, shard_idx, r, target] {
          shards_[static_cast<size_t>(tier)][static_cast<size_t>(shard_idx)]
              .remon->SpawnReplacement(r, static_cast<int>(target));
        });
    ++scheduled;
  }
  return scheduled;
}

void FleetManager::RetireShard(int tier) {
  std::vector<Shard>& tier_shards = shards_[static_cast<size_t>(tier)];
  // Retire the youngest in-rotation shard: it holds the fewest long-lived
  // connections, and re-spawning later reuses ascending indices cleanly.
  for (int i = static_cast<int>(tier_shards.size()) - 1; i >= 0; --i) {
    Shard& sh = tier_shards[static_cast<size_t>(i)];
    if (!sh.in_rotation) {
      continue;
    }
    sh.in_rotation = false;
    balancers_[static_cast<size_t>(tier)]->RemoveBackend(static_cast<uint64_t>(i));
    ++retired_;
    return;
  }
}

void FleetManager::Tick() {
  for (int t = 0; t < static_cast<int>(tiers_.size()); ++t) {
    LoadBalancer* lb = balancers_[static_cast<size_t>(t)].get();
    uint64_t arrivals = lb->TakeArrivals();
    int live = in_rotation(t);
    int pending = pending_adds_[static_cast<size_t>(t)];
    switch (policies_[static_cast<size_t>(t)].Evaluate(arrivals, live, pending)) {
      case ScaleDecision::kSpawn:
        ++spawned_;
        SpawnShard(t, /*immediate_rotation=*/false);
        break;
      case ScaleDecision::kRetire:
        RetireShard(t);
        break;
      case ScaleDecision::kHold:
        break;
    }
  }
  tick_event_ = kernel_->sim()->queue().ScheduleAfter(kAutoscaleInterval,
                                                      [this] { Tick(); });
}

}  // namespace remon
