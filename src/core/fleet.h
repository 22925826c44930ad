// Fleet manager: many replica sets as one service.
//
// Everything below Remon supervises *one* replica set. A FleetManager owns N of
// them — shards — per tier, each shard a full MVEE (leader + diversified
// replicas) running the same server body on its own simulated machine (own SysV
// key namespace, so per-machine RB/sync segments never collide). A LoadBalancer
// per tier routes client connections to shards through a virtual endpoint
// (src/net/load_balancer.h); tiers chain front-to-back by pointing each shard's
// upstream at the next tier's VIP, so a request can traverse
// frontend → cache → backend with every hop replicated.
//
// A threshold autoscaler (AutoscalePolicy, pure and unit-testable) samples each
// tier's arrival rate on a fixed virtual-time interval and spawns or retires
// shards. Spawned shards enter rotation after a warm-up delay — the same
// provisioning-delay shape as the PR 4 replica-respawn path — and retired
// shards leave rotation immediately but keep draining their live connections
// (the balancer is not on the data path, so established streams survive).
//
// The fleet stays deterministic end to end: shard machines and names depend
// only on spec order, routing on (connect order, client address), autoscale on
// window counters — per-shard transcripts are byte-identical across reruns.

#ifndef SRC_CORE_FLEET_H_
#define SRC_CORE_FLEET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/remon.h"
#include "src/net/load_balancer.h"

namespace remon {

struct FleetTierSpec {
  std::string name;     // Shard machines/processes are named "<name>-s<i>".
  uint16_t port = 80;   // VIP port; every shard also listens on it.
  int initial_shards = 1;
  int min_shards = 1;   // Autoscale floor.
  int max_shards = 8;   // Autoscale ceiling.
  LoadBalancer::Policy policy = LoadBalancer::Policy::kConsistentHash;
  // Cross-machine shards: place each non-leader replica on its own machine
  // ("<shard name>-r<i>") behind the RB transport instead of sharing the shard
  // machine. Requires mode=remon; this is the layout RebalanceShard migrates.
  bool remote_replicas = false;
};

struct AutoscaleConfig {
  bool enabled = false;
  // Thresholds on arrivals per in-rotation shard per window.
  uint64_t up_threshold = 200;
  uint64_t down_threshold = 20;
  // Fleet-wide cap on autoscale spawns; a tier that keeps demanding more is
  // overloaded, not unlucky (mirrors max_respawns_per_replica).
  int max_spawns = 8;
};

enum class ScaleDecision { kHold, kSpawn, kRetire };

// The decision logic alone — no world, no clock — so tests can drive it
// through spike/idle traces directly.
class AutoscalePolicy {
 public:
  AutoscalePolicy(const AutoscaleConfig& cfg, int min_shards, int max_shards)
      : cfg_(cfg), min_(min_shards), max_(max_shards) {}

  // `window_arrivals` over the last interval, `live` shards in rotation,
  // `pending` spawned but still warming up.
  ScaleDecision Evaluate(uint64_t window_arrivals, int live, int pending);

  int spawns() const { return spawns_; }

 private:
  AutoscaleConfig cfg_;
  int min_;
  int max_;
  int spawns_ = 0;
};

// Everything a shard body factory needs to build one shard's program.
struct ShardContext {
  int tier = 0;
  int shard = 0;
  std::string name;        // "<tier name>-s<shard>" — also the Remon set name.
  uint16_t listen_port = 0;
  uint32_t machine = 0;    // The shard's own simulated machine.
  SockAddr upstream_vip;   // Next tier's VIP; {0, 0} for the last tier.
};

// Supplied by the harness so core stays free of workload types: returns the
// guest program a shard's replicas run.
using ShardBodyFn = std::function<ProgramFn(const ShardContext&)>;

class FleetManager {
 public:
  // `base` configures every shard's replica set (mode, replicas, policy, RB
  // geometry, file_map_pages, ...); per-shard machine placement is the fleet's
  // job, so base.machine / base.replica_machines are ignored.
  FleetManager(Kernel* kernel, RemonOptions base, std::vector<FleetTierSpec> tiers,
               ShardBodyFn body, AutoscaleConfig autoscale = {});
  ~FleetManager();
  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  // Creates VIPs and initial shards, then arms the autoscale timer. Tier order
  // is back-to-front internally so an upstream VIP always exists before any
  // shard that points at it.
  void Start();

  // Cancels the autoscale timer and pending rotation events so the event queue
  // can drain (servers alone never wake; a live timer would tick forever).
  // Called by the runner when the client swarm finishes.
  void StopAutoscale();

  // Drain-and-migrate: moves every remote replica of one shard onto a fresh
  // machine, one replica at a time spaced 500 µs apart, while the shard keeps
  // serving — the leader never moves, each replacement re-seeds (O(delta)
  // under reseed_mode=kDelta) and rejoins before the next replica's turn arrives,
  // so the set never loses more than one replica of redundancy: the spacing
  // outlasts a join (provisioning + re-seed). Returns the number of migrations
  // scheduled (0 for an all-local shard).
  int RebalanceShard(int tier, int shard_idx);

  int tier_count() const { return static_cast<int>(tiers_.size()); }
  SockAddr vip(int tier) const { return vips_[static_cast<size_t>(tier)]; }
  LoadBalancer* balancer(int tier) {
    return balancers_[static_cast<size_t>(tier)].get();
  }
  Remon* shard(int tier, int idx) {
    return shards_[static_cast<size_t>(tier)][static_cast<size_t>(idx)].remon.get();
  }
  int shard_count(int tier) const {  // Ever launched, including retired.
    return static_cast<int>(shards_[static_cast<size_t>(tier)].size());
  }
  int in_rotation(int tier) const;

  uint64_t shards_spawned() const { return spawned_; }   // By autoscale.
  uint64_t shards_retired() const { return retired_; }
  uint64_t total_launched() const { return launched_; }

  // True when any shard's monitor flagged divergence.
  bool divergence_detected() const;
  // True when every shard's replica set has exited.
  bool finished() const;

 private:
  struct Shard {
    std::unique_ptr<Remon> remon;
    uint32_t machine = 0;
    std::string name;
    bool in_rotation = false;
    int rebalance_gen = 0;  // Names the fresh machines of each rebalance pass.
  };

  void SpawnShard(int tier, bool immediate_rotation);
  void RetireShard(int tier);
  void Tick();

  Kernel* kernel_;
  RemonOptions base_;
  std::vector<FleetTierSpec> tiers_;
  ShardBodyFn body_;
  AutoscaleConfig autoscale_;

  std::vector<SockAddr> vips_;
  std::vector<std::unique_ptr<LoadBalancer>> balancers_;
  std::vector<std::vector<Shard>> shards_;
  std::vector<AutoscalePolicy> policies_;
  std::vector<int> pending_adds_;  // Spawned, not yet in rotation, per tier.

  EventQueue::EventId tick_event_ = EventQueue::kInvalidEvent;
  ScopedEvents pending_events_;  // Warm-up rotations and staggered migrations.
  uint64_t spawned_ = 0;
  uint64_t retired_ = 0;
  uint64_t launched_ = 0;
  bool started_ = false;
};

}  // namespace remon

#endif  // SRC_CORE_FLEET_H_
