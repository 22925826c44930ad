#include "src/core/remon.h"

#include <utility>

#include "src/core/snapshot.h"
#include "src/kernel/syscall_meta.h"
#include "src/sim/check.h"

namespace remon {

namespace {

// Death-to-replacement delay (models provisioning the replacement instance).
// Must stay well under GHUMVEE's lockstep watchdog: peers parked at a monitored
// barrier wait for the rejoiner, and the watchdog outlasting the respawn is what
// makes recovery invisible to them.
constexpr DurationNs kRespawnDelay = 200 * kMicrosecond;

}  // namespace

std::string_view MveeModeName(MveeMode mode) {
  switch (mode) {
    case MveeMode::kNative: return "native";
    case MveeMode::kGhumveeOnly: return "ghumvee";
    case MveeMode::kRemon: return "remon";
    case MveeMode::kVaranLike: return "varan-like";
  }
  return "?";
}

bool VaranGate::Intercept(Thread* t) {
  if (!t->process()->ipmon.registered) {
    return false;  // Initialization prologue runs down the default path.
  }
  SyscallRequest req = t->cur_req;
  kernel_->RunOnThreadCore(t, kernel_->sim()->costs().ikb_route_ns, [this, t, req] {
    if (!t->alive()) {
      return;
    }
    kernel_->StartAuxCoroutine(
        t, mon_->HandleCall(t, req, /*token=*/0, /*temporal_exempt=*/false), nullptr);
  });
  return true;
}

Remon::Remon(Kernel* kernel, const RemonOptions& options)
    : kernel_(kernel),
      options_(options),
      layout_rng_(kernel->sim()->rng().Fork()),
      planner_(&layout_rng_),
      pending_respawns_(&kernel->sim()->queue()) {
  REMON_CHECK(options_.replicas >= 1);
}

bool Remon::finished() const {
  for (const Process* p : replicas_) {
    if (!p->exited) {
      return false;
    }
  }
  return !replicas_.empty();
}

void Remon::Launch(ProgramFn body, const std::string& name) {
  REMON_CHECK(replicas_.empty());
  int n = options_.mode == MveeMode::kNative ? 1 : options_.replicas;

  // Cross-machine placement: validate before any process exists.
  auto machine_for = [this](int i) {
    return options_.replica_machines.empty()
               ? options_.machine
               : options_.replica_machines[static_cast<size_t>(i)];
  };
  bool any_remote = false;
  if (!options_.replica_machines.empty() && options_.mode != MveeMode::kNative) {
    REMON_CHECK_MSG(static_cast<int>(options_.replica_machines.size()) == n,
                    "replica_machines must carry one entry per replica");
    REMON_CHECK_MSG(options_.replica_machines[0] == options_.machine,
                    "replica 0 (the leader) must run on RemonOptions::machine");
    for (int i = 0; i < n; ++i) {
      REMON_CHECK_MSG(machine_for(i) < kernel_->net()->machine_count(),
                      "replica placed on a machine the network does not know");
      any_remote |= machine_for(i) != options_.machine;
    }
  }
  if (any_remote) {
    REMON_CHECK_MSG(options_.mode == MveeMode::kRemon,
                    "cross-machine placement needs the RB transport (mode=remon)");
  }

  RelaxationPolicy policy(options_.level, options_.temporal);

  if (options_.mode == MveeMode::kGhumveeOnly || options_.mode == MveeMode::kRemon) {
    ghumvee_ = std::make_unique<Ghumvee>(kernel_);
    ghumvee_->set_rb_migration(options_.rb_migration);
  }
  if (options_.mode == MveeMode::kRemon) {
    broker_ = std::make_unique<IkBroker>(kernel_, policy);
    if (options_.temporal.enabled) {
      temporal_ = std::make_unique<TemporalExemptionState>(options_.temporal,
                                                           &kernel_->sim()->rng(), n);
      broker_->set_temporal(temporal_.get());
      ghumvee_->set_temporal(temporal_.get());
    }
  }
  if (options_.mode == MveeMode::kVaranLike) {
    varan_file_map_ = std::make_unique<FileMap>();
  }
  // Size the FD metadata map before any replica maps it (swarm-scale shards
  // outgrow the classic single page); tag drop warnings with the set's name.
  if (ghumvee_ != nullptr) {
    ghumvee_->file_map()->Configure(options_.file_map_pages, name);
  } else if (varan_file_map_ != nullptr) {
    varan_file_map_->Configure(options_.file_map_pages, name);
  }

  // Shared body anchor: every replica's prologue wrapper references the same callable.
  auto shared_body = std::make_shared<ProgramFn>(std::move(body));

  for (int i = 0; i < n; ++i) {
    LayoutPlan plan = planner_.PlanFor(i);
    Process* p = kernel_->CreateProcess(name + "-r" + std::to_string(i), machine_for(i),
                                        plan, options_.mode == MveeMode::kNative ? -1 : i);
    p->mem_intensity = options_.mem_intensity;
    // A multi-page file map signals a high-connection-count workload: raise the
    // FD table to exactly the map's size, so its extra pages are reachable and no
    // FD can fall past its end (the default table's 1024 FDs fit in one page).
    if (options_.file_map_pages > 1) {
      p->fds().RaiseMaxFds(options_.file_map_pages * static_cast<int>(kPageSize));
    }
    // The IP-MON "shared library" text region (hidden from /proc/maps by GHUMVEE).
    if (options_.mode == MveeMode::kRemon || options_.mode == MveeMode::kVaranLike) {
      REMON_CHECK(p->mem().MapFixed(plan.ipmon_base, plan.ipmon_size, kProtRead | kProtExec,
                                    /*shared=*/false, "libipmon"));
    }
    replicas_.push_back(p);

    if (ghumvee_ != nullptr) {
      ghumvee_->AddReplica(p);
    }

    if (options_.mode == MveeMode::kRemon || options_.mode == MveeMode::kVaranLike) {
      IpMon::Config cfg;
      cfg.replica_index = i;
      cfg.num_replicas = n;
      cfg.rb_size = options_.rb_size;
      cfg.max_ranks = options_.max_ranks;
      cfg.mode =
          options_.mode == MveeMode::kVaranLike ? IpmonMode::kVaranLike : IpmonMode::kRemon;
      FileMap* fm = options_.mode == MveeMode::kRemon ? ghumvee_->file_map()
                                                      : varan_file_map_.get();
      ipmons_.push_back(
          std::make_unique<IpMon>(kernel_, broker_.get(), policy, fm, cfg));
      if (options_.mode == MveeMode::kRemon) {
        ghumvee_->AttachIpmon(i, ipmons_.back().get());
        broker_->AttachReplica(p, ipmons_.back().get());
      } else {
        varan_gates_.push_back(
            std::make_unique<VaranGate>(kernel_, ipmons_.back().get()));
        p->gate = varan_gates_.back().get();
      }
    }

    if (options_.use_sync_agent && options_.mode != MveeMode::kNative) {
      SyncAgent::Config scfg;
      scfg.replica_index = i;
      scfg.num_replicas = n;
      scfg.log_size = options_.sync_log_size;
      agents_.push_back(std::make_unique<SyncAgent>(kernel_, scfg));
    }
  }

  // Sync agents gate circular-log wraparound on the slowest peer's replay cursor.
  std::vector<SyncAgent*> agent_ptrs;
  for (auto& a : agents_) {
    agent_ptrs.push_back(a.get());
  }
  for (auto& a : agents_) {
    a->set_peers(agent_ptrs);
  }

  // Cross-machine replica sets: one RemoteSyncAgent per remote replica (listening
  // on that machine), one leader-side RbTransport pumping frames to all of them.
  if (any_remote) {
    // Every link is sealed: one key schedule shared by the leader-side transport
    // and every remote agent, plus the config digest an attested join must
    // present — RB geometry, sync-log geometry, and the syscall descriptor
    // registry a well-formed peer would be built from.
    auth_ = std::make_unique<RbAuthContext>(options_.rb_auth_secret);
    config_digest_ = RbConfigDigest(options_.rb_size,
                                    static_cast<uint32_t>(options_.max_ranks),
                                    options_.use_sync_agent ? options_.sync_log_size : 0,
                                    DescriptorRegistryDigest());
    transport_ = std::make_unique<RbTransport>(kernel_, options_.machine, *auth_,
                                               config_digest_, ipmons_[0].get());
    remote_agents_.resize(static_cast<size_t>(n));
    for (int i = 1; i < n; ++i) {
      if (machine_for(i) == options_.machine) {
        continue;
      }
      uint16_t port = static_cast<uint16_t>(kRbTransportPortBase + i);
      remote_agents_[static_cast<size_t>(i)] = StartRemoteAgent(i, machine_for(i), port);
      transport_->AddRemote(i, machine_for(i), port);
    }
    ipmons_[0]->set_transport(transport_.get());
    if (!agents_.empty()) {
      // Master sync agent streams each append over the transport as it happens.
      SyncAgent* master_agent = agents_[0].get();
      master_agent->set_transport(transport_.get());
      // Wrap gate wakeups: a remote cursor advance arrives as an ack, not a
      // host-side read, so the transport pokes the parked master explicitly.
      transport_->set_on_sync_cursor(
          [master_agent](int) { master_agent->OnRemoteCursorAck(); });
    }
    respawn_attempts_.assign(static_cast<size_t>(n), 0);
    join_generation_.assign(static_cast<size_t>(n), 0);
    last_respawn_ns_.assign(static_cast<size_t>(n), 0);
    // A torn link ends the run with a divergence report — never a hang. Under
    // respawn_dead_replicas it instead schedules a replacement join (capped per
    // replica: a join that keeps failing *is* divergence). A link that dies during
    // the normal end-of-run teardown is not an event either way.
    transport_->set_on_remote_death([this](int idx) {
      if (ghumvee_ == nullptr || ghumvee_->shutdown_requested() || finished()) {
        return;
      }
      bool budget_ok = false;
      if (options_.respawn_dead_replicas && idx >= 0 &&
          static_cast<size_t>(idx) < respawn_attempts_.size()) {
        // Healthy time since the last charge refunds attempts first: the cap is a
        // rate limit on deaths in quick succession, not a lifetime budget.
        DecayRespawnBudget(idx);
        budget_ok = respawn_attempts_[static_cast<size_t>(idx)] <
                    options_.max_respawns_per_replica;
      }
      if (budget_ok) {
        ++respawn_attempts_[static_cast<size_t>(idx)];
        last_respawn_ns_[static_cast<size_t>(idx)] = kernel_->sim()->queue().now();
        pending_respawns_.ScheduleAfter(kRespawnDelay, [this, idx] {
          if (ghumvee_ == nullptr || ghumvee_->shutdown_requested() || finished()) {
            return;
          }
          // Respawn-as-migration policy: replacements optionally land on a
          // configured target machine instead of the one the replica died on.
          SpawnReplacement(idx, options_.respawn_target_machine);
        });
        return;
      }
      ghumvee_->Divergence(/*rank=*/-1, Sys::kInvalid,
                           "remote replica " + std::to_string(idx) +
                               " link down (stream epoch bumped)");
    });
    // Attested join: the leader checkpoints *after* the replacement proved its
    // identity + config digest + placement, never before. The callback fires from
    // inside the transport's Pump; defer the (heavy) checkpoint one event so the
    // capture runs outside the frame-processing path, cancellable like the
    // respawn events.
    transport_->set_on_attested_join([this](int idx, uint64_t attest_cursor) {
      pending_respawns_.ScheduleAfter(0, [this, idx, attest_cursor] {
        if (ghumvee_ == nullptr || ghumvee_->shutdown_requested() || finished()) {
          return;
        }
        transport_->EnqueueSnapshot(idx, MakeReseedPayloads(idx, attest_cursor));
      });
    });
    if (ghumvee_ != nullptr) {
      // Re-seed interlock: while a replacement checkpoint is in flight, the RB
      // reset round parks, so the offsets the image was cut against hold until
      // the replacement applies it.
      ghumvee_->set_reseed_gate(
          [this] { return transport_ != nullptr && transport_->SnapshotInflight(); });
    }
  }

  // Spawn each replica's main thread: MVEE prologue, then the workload body.
  for (int i = 0; i < n; ++i) {
    IpMon* mon = ipmon(i);
    SyncAgent* agent = sync_agent(i);
    ProgramFn wrapped = [shared_body, mon, agent](Guest& g) -> GuestTask<void> {
      if (agent != nullptr) {
        co_await agent->Initialize(g);
      }
      if (mon != nullptr) {
        co_await mon->Initialize(g);
      }
      co_await (*shared_body)(g);
    };
    kernel_->SpawnThread(replicas_[static_cast<size_t>(i)], std::move(wrapped));
  }
}

bool Remon::SpawnReplacement(int replica_index, int target_machine) {
  if (transport_ == nullptr || ghumvee_ == nullptr || ghumvee_->shutdown_requested() ||
      finished()) {
    return false;
  }
  if (replica_index <= 0 ||
      static_cast<size_t>(replica_index) >= remote_agents_.size() ||
      remote_agents_[static_cast<size_t>(replica_index)] == nullptr) {
    return false;  // Never a remote replica: nothing to re-seed.
  }
  uint32_t machine = options_.replica_machines[static_cast<size_t>(replica_index)];
  if (target_machine >= 0) {
    uint32_t target = static_cast<uint32_t>(target_machine);
    if (target == options_.machine ||
        target >= kernel_->net()->machine_count()) {
      return false;  // The leader's machine (and unknown ones) can't host a mirror.
    }
    machine = target;
  }
  // Respawn-as-migration: a still-live link is retired quietly — no death event,
  // no respawn-budget charge — before the replacement is placed. The delta basis
  // survives the detach, so a migrated replacement still re-seeds in O(delta).
  if (!transport_->RemoteLinkDead(replica_index)) {
    transport_->DetachForMigration(replica_index);
  }
  if (machine != options_.replica_machines[static_cast<size_t>(replica_index)]) {
    options_.replica_machines[static_cast<size_t>(replica_index)] = machine;
    kernel_->MoveProcess(replicas_[static_cast<size_t>(replica_index)], machine);
    ++kernel_->stats().rb_replica_migrations;
  }

  // Generation-distinct port: a half-dead predecessor agent can never shadow the
  // replacement's listener, and the leader's SYN cannot land on a stale socket.
  int generation = ++join_generation_[static_cast<size_t>(replica_index)];
  uint16_t port = static_cast<uint16_t>(kRbTransportPortBase + replica_index +
                                        512 * generation);
  // The old agent is shut down and must never carry another ack; the new one
  // takes over the replica's cursor-update channel.
  remote_agents_[static_cast<size_t>(replica_index)]->Shutdown();
  std::unique_ptr<RemoteSyncAgent> agent = StartRemoteAgent(replica_index, machine, port);

  // The checkpoint waits until the replacement presents a valid attestation
  // (identity + config digest + placement) as the first frame on the new
  // connection; the on_attested_join deferral captures it against the cursor the
  // attestation itself carries. Until then the revived slot takes no data frame,
  // so the checkpoint still leads everything published after its capture.
  transport_->AddReplacement(replica_index, machine, port);
  remote_agents_[static_cast<size_t>(replica_index)] = std::move(agent);
  ++respawns_;
  return true;
}

std::unique_ptr<RemoteSyncAgent> Remon::StartRemoteAgent(int replica_index,
                                                         uint32_t machine,
                                                         uint16_t port) {
  IpMon* mon = ipmons_[static_cast<size_t>(replica_index)].get();
  auto agent = std::make_unique<RemoteSyncAgent>(kernel_, mon, machine, port, *auth_,
                                                 config_digest_);
  agent->Start();  // Listener up before the transport's SYN can arrive.
  mon->set_rb_private_mirror(true);
  if (SyncAgent* local = sync_agent(replica_index)) {
    agent->set_sync_agent(local);  // kSyncLog replays into its mirror.
    // The replay cursor travels back piggybacked on acks; a cursor advance a
    // wrapped master could be parked on additionally triggers a dedicated
    // cursor-bearing ack so the gate never waits for unrelated data traffic.
    RemoteSyncAgent* cursor_agent = agent.get();
    local->set_on_consumed([cursor_agent] { cursor_agent->SendCursorUpdate(); });
  }
  RemoteSyncAgent* ready_agent = agent.get();
  mon->set_on_initialized([ready_agent] { ready_agent->OnReplicaRbReady(); });
  return agent;
}

SnapshotPayloads Remon::MakeReseedPayloads(int replica_index,
                                           uint64_t sync_read_cursor) {
  IpMon* master = ipmons_[0].get();
  SimStats& stats = kernel_->stats();
  // The reset round runs every IP-MON through OnRbReset, a dead replica's mirror
  // included, so the replacement's mirror always sits at the leader's generation:
  // no checkpoint ever has to scrub a mirror a generation behind.
  REMON_CHECK_MSG(ipmons_[static_cast<size_t>(replica_index)]->rb_resets() ==
                      master->rb_resets(),
                  "replica mirror left behind by an RB reset round");
  // The knob picks the basis, not a code path: the ack-folded horizon while it
  // still describes the leader's current RB (a reset in between rebased every
  // offset), else the empty basis — a full checkpoint.
  RbDeltaBasis basis = EmptyDeltaBasis(master->rb_resets());
  bool folded = false;
  if (options_.reseed_mode == ReseedMode::kDelta && transport_ != nullptr) {
    RbDeltaBasis acked = transport_->DeltaBasisFor(replica_index);
    folded = acked.valid && acked.reset_generation == master->rb_resets();
    if (folded) {
      basis = std::move(acked);
      ++stats.rb_snapshot_delta_captures;
    } else {
      ++stats.rb_snapshot_full_fallbacks;
    }
  }
  SnapshotPayloads payloads = SerializeSnapshot(
      CaptureLeaderDelta(master, sync_agent(0), sync_read_cursor, basis));
  if (folded) {
    // Framed size: every snapshot frame is one wire header plus its payload.
    uint64_t framed = 2 * kRbWireHeaderSize + payloads.begin.size() + payloads.end.size();
    for (const std::vector<uint8_t>& chunk : payloads.chunks) {
      framed += kRbWireHeaderSize + chunk.size();
    }
    stats.rb_snapshot_delta_bytes_sent += framed;
  }
  return payloads;
}

void Remon::DecayRespawnBudget(int replica_index) {
  int& attempts = respawn_attempts_[static_cast<size_t>(replica_index)];
  if (options_.respawn_budget_decay <= 0 || attempts <= 0) {
    return;
  }
  TimeNs& anchor = last_respawn_ns_[static_cast<size_t>(replica_index)];
  int64_t refunds = static_cast<int64_t>(
      (kernel_->sim()->queue().now() - anchor) / options_.respawn_budget_decay);
  if (refunds <= 0) {
    return;
  }
  int refunded = refunds < attempts ? static_cast<int>(refunds) : attempts;
  attempts -= refunded;
  // Advance the anchor by whole intervals only: partial healthy time keeps
  // accruing toward the next refund instead of being forfeited.
  anchor += static_cast<TimeNs>(refunded) * options_.respawn_budget_decay;
}

}  // namespace remon
