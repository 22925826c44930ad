#include "src/core/rb_transport.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/core/ipmon.h"
#include "src/core/snapshot.h"
#include "src/core/sync_agent.h"
#include "src/kernel/kernel.h"
#include "src/sim/check.h"

namespace remon {

namespace {

// Per-read chunk while draining a socket's receive buffer.
constexpr size_t kReadChunk = 4096;

}  // namespace

bool SendQueue::DrainInto(StreamSocket* sock) {
  while (!frames_.empty()) {
    std::vector<uint8_t>& front = frames_.front();
    int64_t n = sock->Write(front.data() + head_off_, front.size() - head_off_, 0);
    if (n == -kEAGAIN) {
      return true;  // Window full; retry on the next poll wake.
    }
    if (n <= 0) {
      return false;
    }
    head_off_ += static_cast<size_t>(n);
    bytes_ -= static_cast<uint64_t>(n);
    if (head_off_ == front.size()) {
      frames_.pop_front();
      head_off_ = 0;
    }
  }
  return true;
}

// --- RbTransport (leader side) ----------------------------------------------------

RbTransport::RbTransport(Kernel* kernel, uint32_t leader_machine,
                         const RbAuthContext& auth, uint64_t config_digest,
                         const IpMon* leader)
    : kernel_(kernel),
      leader_machine_(leader_machine),
      auth_(auth),
      config_digest_(config_digest),
      leader_(leader) {}

RbTransport::~RbTransport() {
  for (auto& r : remotes_) {
    if (r->sock && r->observer_id != 0) {
      r->sock->poll_queue().Remove(r->observer_id);
    }
  }
}

void RbTransport::AddRemote(int replica_index, uint32_t machine, uint16_t port) {
  auto remote = std::make_unique<Remote>();
  remote->replica_index = replica_index;
  // A first-generation remote starts from the set's shared initial state — an
  // all-zero mirror at reset generation 0 — so its delta basis is valid from the
  // first ack (empty offsets degrade each rank to its data start).
  remote->basis.valid = true;
  Open(*remote, machine, port);
  remotes_.push_back(std::move(remote));
}

void RbTransport::AddReplacement(int replica_index, uint32_t machine, uint16_t port) {
  Remote* slot = Find(replica_index);
  REMON_CHECK_MSG(slot != nullptr, "AddReplacement: replica was never remote");
  REMON_CHECK_MSG(slot->dead, "AddReplacement: replica link is still live");
  Open(*slot, machine, port);
  // A replacement's stream starts with its checkpoint, never data.
  slot->awaiting_snapshot = true;
  ++kernel_->stats().rb_replica_respawns;
}

void RbTransport::Open(Remote& r, uint32_t machine, uint16_t port) {
  // Fresh connection, fresh per-connection sequence space. The old socket's
  // observer must go first: a zombie callback on a torn socket could otherwise
  // pump the revived slot's state. The latched sync_cursor and the delta basis
  // survive on purpose: until the replacement attests or acks a newer cursor,
  // the dead replica's last acknowledged position still gates sync-log
  // overwrites, and the basis is the mirror its replacement resumes from.
  if (r.sock != nullptr && r.observer_id != 0) {
    r.sock->poll_queue().Remove(r.observer_id);
  }
  r.sock = kernel_->net()->CreateStream(leader_machine_);
  r.sock->ConnectTo(SockAddr{machine, port});
  r.machine = machine;
  r.sendq.Clear();
  r.stalled = false;
  r.frames_sent = 0;
  r.frames_acked = 0;
  r.unacked.clear();
  r.snapshot_last_seq = 0;
  r.parser = RbFrameParser{};
  r.parser.set_auth(auth_, RbAuthDirection::kReplicaToLeader);
  r.dead = false;
  // All data waits until the peer's join attestation verifies.
  r.attested = false;
  r.awaiting_snapshot = false;
  r.max_peer_epoch = 0;
  Remote* rp = &r;  // Slots are pooled in unique_ptrs and never erased.
  r.observer_id = r.sock->poll_queue().AddObserver([this, rp] { Pump(*rp); });
}

RbTransport::Remote* RbTransport::Find(int replica_index) const {
  for (const auto& r : remotes_) {
    if (r->replica_index == replica_index) {
      return r.get();
    }
  }
  return nullptr;
}

template <typename Encode>
uint64_t RbTransport::EnqueueFrame(Remote& r, RbFrameType type, Encode encode) {
  uint64_t seq = ++r.frames_sent;
  std::vector<uint8_t> frame = encode(seq);
  auth_.SealFrame(&frame, RbAuthDirection::kLeaderToReplica);
  SimStats& stats = kernel_->stats();
  RbEpochStats& row = stats.EpochRow(epoch_);
  ++stats.rb_auth_frames_sealed;
  ++stats.rb_frames_sent;
  stats.rb_frame_bytes_sent += frame.size();
  ++row.frames_sent;
  if (IsSnapshotFrameType(type)) {
    ++stats.rb_snapshot_frames_sent;
    stats.rb_snapshot_bytes_sent += frame.size();
    ++row.snapshot_frames;
  } else if (type == RbFrameType::kSyncLog) {
    ++stats.sync_log_frames_sent;
  }
  r.sendq.Push(std::move(frame));
  return seq;
}

void RbTransport::EnqueueSnapshot(int replica_index, const SnapshotPayloads& snapshot) {
  Remote* r = Find(replica_index);
  if (r == nullptr || r->dead || !r->attested || !r->awaiting_snapshot) {
    return;  // The link died meanwhile, or it has not attested yet.
  }
  r->awaiting_snapshot = false;
  // The checkpoint leads the stream: every data frame published from here on
  // queues behind it, so the mirror the replacement reconstructs is the leader's
  // RB at the capture point plus, in order, everything after it. Snapshot frames
  // take normal sequence numbers — the window and cumulative acks throttle
  // checkpoint transfer exactly like entry traffic.
  auto enqueue = [&](RbFrameType type, const std::vector<uint8_t>& payload) {
    EnqueueFrame(*r, type, [&](uint64_t seq) {
      return RbWireCodec::FrameFromPayload(
          type, epoch_, static_cast<uint32_t>(replica_index), seq, /*count=*/0, payload);
    });
  };
  enqueue(RbFrameType::kSnapshotBegin, snapshot.begin);
  for (const std::vector<uint8_t>& chunk : snapshot.chunks) {
    enqueue(RbFrameType::kSnapshotChunk, chunk);
  }
  enqueue(RbFrameType::kSnapshotEnd, snapshot.end);
  r->snapshot_last_seq = r->frames_sent;
  Pump(*r);
}

bool RbTransport::SnapshotInflight() const {
  for (const auto& r : remotes_) {
    if (!r->dead && r->frames_acked < r->snapshot_last_seq) {
      return true;
    }
  }
  return false;
}

void RbTransport::Broadcast(RbFrameType type, uint32_t rank, uint32_t count,
                            const std::vector<uint8_t>& payload, const FrameMeta* meta) {
  for (auto& r : remotes_) {
    if (r->dead || r->awaiting_snapshot) {
      continue;  // A replacement's stream starts with its checkpoint, never data.
    }
    uint64_t seq = EnqueueFrame(*r, type, [&](uint64_t s) {
      return RbWireCodec::FrameFromPayload(type, epoch_, rank, s, count, payload);
    });
    if (meta != nullptr) {
      r->unacked.push_back(*meta);
      r->unacked.back().frame_seq = seq;
    }
    Pump(*r);
  }
}

void RbTransport::SendEntries(int rank, const std::vector<RbWireEntry>& entries) {
  if (entries.empty() || live_remotes() == 0) {
    return;
  }
  // Ack-horizon metadata: entries within a rank publish in offset order, so one
  // acked frame advances the rank's delta horizon to its highest entry offset,
  // and the leader's reset generation at send time makes the acked horizon a
  // delta-capture basis.
  FrameMeta meta{0, static_cast<uint32_t>(rank), 0, leader_->rb_resets()};
  for (const RbWireEntry& e : entries) {
    meta.max_entry_off = std::max(meta.max_entry_off, e.entry_off);
  }
  Broadcast(RbFrameType::kEntries, meta.rank, static_cast<uint32_t>(entries.size()),
            RbWireCodec::EncodeEntriesPayload(entries), &meta);
}

void RbTransport::SendSyncLog(uint64_t start_index,
                              const std::vector<RbSyncLogRecord>& records) {
  if (records.empty() || live_remotes() == 0) {
    return;
  }
  kernel_->stats().sync_log_records_streamed += records.size();
  Broadcast(RbFrameType::kSyncLog, /*rank=*/0, static_cast<uint32_t>(records.size()),
            RbWireCodec::EncodeSyncLogPayload(start_index, records), nullptr);
}

bool RbTransport::Stalled() const {
  for (const auto& r : remotes_) {
    if (RemoteStalled(*r)) {
      return true;
    }
  }
  return false;
}

bool RbTransport::IsRemote(int replica_index) const {
  return Find(replica_index) != nullptr;
}

bool RbTransport::RemoteLinkDead(int replica_index) const {
  const Remote* r = Find(replica_index);
  return r == nullptr || r->dead;  // Never served: there is no live link to retire.
}

uint64_t RbTransport::SyncCursorFor(int replica_index) const {
  const Remote* r = Find(replica_index);
  return r != nullptr ? r->sync_cursor : 0;
}

int RbTransport::live_remotes() const {
  int n = 0;
  for (const auto& r : remotes_) {
    n += r->dead ? 0 : 1;
  }
  return n;
}

void RbTransport::MarkDead(Remote& r, const char* why, LinkEnd end) {
  if (r.dead) {
    return;
  }
  r.dead = true;
  // Nothing queued for a dead link can ever be written. Dropping the queue here
  // (not at revival) is what frees a replacement's held checkpoint when its
  // connection fails instead of leaking it for the run's remainder; unacked
  // metadata goes with it — those frames may never have arrived, so they must
  // not fold into the delta basis.
  r.sendq.Clear();
  r.unacked.clear();
  if (end == LinkEnd::kMigration) {
    // The replica is moving, not lost: the leader closes the link itself, and
    // nothing counts or reports a death — the caller is the one respawning.
    if (r.observer_id != 0) {
      r.sock->poll_queue().Remove(r.observer_id);
      r.observer_id = 0;
    }
    r.sock->Shutdown(kShutRdWr);
  } else {
    ++deaths_;
    ++kernel_->stats().EpochRow(epoch_).deaths;  // Attributed to the epoch that ended.
    ++kernel_->stats().rb_remote_deaths;
  }
  ++epoch_;  // Frames of the torn stream can never be mistaken for a future one.
  std::fprintf(stderr, "[rb-transport] remote replica %d link %s (%s); epoch -> %u\n",
               r.replica_index, end == LinkEnd::kMigration ? "retired" : "down", why,
               epoch_);
  // A leader stalled on this remote's window must not hang on a dead link.
  r.stalled = false;
  stall_queue_.Wake();
  if (end == LinkEnd::kDeath && on_remote_death_) {
    on_remote_death_(r.replica_index);
  }
}

void RbTransport::DetachForMigration(int replica_index) {
  Remote* r = Find(replica_index);
  REMON_CHECK_MSG(r != nullptr && !r->dead, "DetachForMigration: no live link to retire");
  MarkDead(*r, "detached for migration", LinkEnd::kMigration);
}

RbDeltaBasis RbTransport::DeltaBasisFor(int replica_index) const {
  const Remote* r = Find(replica_index);
  return r != nullptr ? r->basis : RbDeltaBasis{};
}

void RbTransport::FoldAckedMeta(Remote& r) {
  while (!r.unacked.empty() && r.unacked.front().frame_seq <= r.frames_acked) {
    const FrameMeta& m = r.unacked.front();
    RbDeltaBasis& b = r.basis;
    if (!b.valid || b.reset_generation != m.reset_generation) {
      // An RB reset rewrote every offset wholesale. The acked frame is the first
      // proof of what the mirror holds in the new generation: every rank restarts
      // at its data start (offset 0 in basis terms) except what folds from here.
      b.valid = true;
      b.reset_generation = m.reset_generation;
      b.from_off.clear();
    }
    if (b.from_off.size() <= m.rank) {
      b.from_off.resize(static_cast<size_t>(m.rank) + 1, 0);
    }
    b.from_off[m.rank] = std::max(b.from_off[m.rank], m.max_entry_off);
    r.unacked.pop_front();
  }
}

void RbTransport::Pump(Remote& r) {
  PumpLink(r);
  // The stall edge is taken here, around the whole pump, not around ack parsing:
  // a stall clears when the agent reads and kPollOut re-pumps, with or without
  // an ack in the same wake, and a leader parked on the queue must hear of it.
  bool stalled = RemoteStalled(r);
  if (r.stalled && !stalled) {
    stall_queue_.Wake();
  }
  r.stalled = stalled;
}

void RbTransport::PumpLink(Remote& r) {
  if (r.dead || !r.sock) {
    return;
  }
  if (r.sock->state() == StreamSocket::State::kConnecting ||
      r.sock->state() == StreamSocket::State::kCreated) {
    return;  // SYN still in flight; the poll observer re-pumps on completion.
  }
  if (r.sock->state() == StreamSocket::State::kClosed) {
    MarkDead(r, r.sock->connect_failed() ? "connect refused" : "connection closed");
    return;
  }

  // Nothing is written before the join attestation verifies — frames queue
  // locally, and one window of them stalls the leader meanwhile.
  if (r.attested) {
    if (!r.sendq.DrainInto(r.sock.get())) {
      MarkDead(r, "write failed");
      return;
    }
  }

  // Ack stream.
  uint8_t buf[kReadChunk];
  for (;;) {
    int64_t n = r.sock->Read(buf, sizeof(buf), 0);
    if (n == -kEAGAIN) {
      break;
    }
    if (n == 0) {
      MarkDead(r, "peer closed");
      return;
    }
    if (n < 0) {
      MarkDead(r, "read failed");
      return;
    }
    r.parser.Feed(buf, static_cast<size_t>(n));
  }
  SimStats& stats = kernel_->stats();
  RbWireFrame frame;
  for (;;) {
    RbFrameParser::Status st = r.parser.Next(&frame);
    if (st == RbFrameParser::Status::kCorrupt) {
      ++stats.rb_auth_frames_rejected;
      MarkDead(r, r.parser.corrupt_reason());
      return;
    }
    if (st != RbFrameParser::Status::kFrame) {
      break;
    }
    // Epoch monotonicity holds on every frame type: a replayed frame of a torn
    // stream (MAC-valid within its own epoch) identifies itself by its stale
    // epoch, and the only safe response is to tear the link.
    if (frame.epoch == 0 || frame.epoch < r.max_peer_epoch) {
      ++stats.rb_epoch_regressions;
      MarkDead(r, "peer epoch regressed");
      return;
    }
    if (frame.type == RbFrameType::kJoinAttest) {
      if (!HandleAttest(r, frame)) {
        return;
      }
      continue;
    }
    if (frame.type != RbFrameType::kAck) {
      // The replica-to-leader flow carries acks and attestations, nothing else; a
      // data frame here is an injected or reflected one.
      MarkDead(r, "unexpected frame type on the ack stream");
      return;
    }
    r.max_peer_epoch = std::max(r.max_peer_epoch, frame.epoch);
    if (frame.ack_seq > r.frames_sent) {
      MarkDead(r, "ack for a frame never sent");
      return;
    }
    // Acks are per-connection state: a dead connection's acks can never arrive
    // (the socket is gone), and an epoch bump caused by *another* remote's death
    // must not invalidate this live link's in-flight acks — its delta basis and
    // checkpoint interlock run on them. The echoed epoch identifies the stream,
    // nothing more.
    r.frames_acked = std::max(r.frames_acked, frame.ack_seq);
    FoldAckedMeta(r);
    ++stats.rb_frames_acked;
    ++stats.EpochRow(frame.epoch).frames_acked;
    // Acks piggyback the replica's sync-log replay cursor; the latched maximum is
    // what the master's wraparound gate runs on.
    RaiseSyncCursor(r, frame.ack_cursor);
  }
}

void RbTransport::RaiseSyncCursor(Remote& r, uint64_t cursor) {
  if (cursor <= r.sync_cursor) {
    return;
  }
  r.sync_cursor = cursor;
  if (on_sync_cursor_) {
    on_sync_cursor_(r.replica_index);
  }
}

bool RbTransport::HandleAttest(Remote& r, const RbWireFrame& frame) {
  SimStats& stats = kernel_->stats();
  if (r.attested) {
    MarkDead(r, "duplicate join attestation");
    return false;
  }
  if (frame.attest_replica != static_cast<uint32_t>(r.replica_index) ||
      frame.attest_digest != config_digest_) {
    ++stats.rb_auth_join_rejects;
    MarkDead(r, "join attestation refused (identity/config digest mismatch)");
    return false;
  }
  // The attested placement must be the machine this slot was commanded to
  // connect to. Respawn-as-migration changes the commanded placement; a peer
  // claiming any other machine is answering a different (or stale) command.
  if (frame.attest_machine != r.machine) {
    ++stats.rb_auth_join_rejects;
    MarkDead(r, "join attestation refused (placement mismatch)");
    return false;
  }
  r.attested = true;
  r.max_peer_epoch = std::max(r.max_peer_epoch, frame.epoch);
  ++stats.rb_auth_joins;
  // The attested cursor is consumption progress like an ack's: a master parked
  // on the wrap gate must hear of it, since later acks repeat the same cursor.
  RaiseSyncCursor(r, frame.attest_cursor);
  if (r.awaiting_snapshot && on_attested_join_) {
    // A replacement: the front end captures the leader checkpoint (deferred to
    // its own event — we are inside the pump) and hands it to EnqueueSnapshot.
    on_attested_join_(r.replica_index, frame.attest_cursor);
  } else if (!r.sendq.empty()) {
    // Frames enqueued while the attestation was in flight were held by this
    // pump's drain pass (it runs before the read loop); release them now, or the
    // link goes idle with the leader stalled on a window nothing will reopen.
    if (!r.sendq.DrainInto(r.sock.get())) {
      MarkDead(r, "write failed");
      return false;
    }
  }
  return true;
}

// --- RemoteSyncAgent (remote side) ------------------------------------------------

RemoteSyncAgent::RemoteSyncAgent(Kernel* kernel, IpMon* mon, uint32_t machine,
                                 uint16_t port, const RbAuthContext& auth,
                                 uint64_t config_digest)
    : kernel_(kernel),
      mon_(mon),
      machine_(machine),
      port_(port),
      auth_(auth),
      config_digest_(config_digest) {
  parser_.set_auth(auth_, RbAuthDirection::kLeaderToReplica);
}

RemoteSyncAgent::~RemoteSyncAgent() {
  if (listener_ && listener_observer_ != 0) {
    listener_->poll_queue().Remove(listener_observer_);
  }
  if (conn_ && conn_observer_ != 0) {
    conn_->poll_queue().Remove(conn_observer_);
  }
}

void RemoteSyncAgent::Start() {
  listener_ = kernel_->net()->CreateStream(machine_);
  REMON_CHECK_MSG(listener_->Bind(port_) == 0, "remote sync agent: bind failed");
  REMON_CHECK_MSG(listener_->Listen(1) == 0, "remote sync agent: listen failed");
  listener_observer_ =
      listener_->poll_queue().AddObserver([this] { OnListenerPoll(); });
}

void RemoteSyncAgent::OnListenerPoll() {
  if (conn_ != nullptr || shutdown_) {
    return;
  }
  std::shared_ptr<StreamSocket> c = listener_->TryAccept();
  if (c == nullptr) {
    return;
  }
  conn_ = std::move(c);
  conn_observer_ = conn_->poll_queue().AddObserver([this] { OnConnPoll(); });
  // Attested join: identity + config digest + placement as the connection's very
  // first frame — the leader ships nothing (data or checkpoint) until it
  // verifies. The epoch is this agent's best knowledge (1 before any join); the
  // sealed tag binds it, and the leader only checks it for monotonicity.
  std::vector<uint8_t> attest = RbWireCodec::EncodeJoinAttest(
      join_epoch_ > 0 ? join_epoch_ : 1,
      static_cast<uint32_t>(mon_->config().replica_index), config_digest_,
      sync_agent_ != nullptr ? sync_agent_->read_cursor() : 0, machine_);
  auth_.SealFrame(&attest, RbAuthDirection::kReplicaToLeader);
  ++kernel_->stats().rb_auth_frames_sealed;
  ackq_.Push(std::move(attest));
  FlushAckQueue();
  DrainConn();
}

void RemoteSyncAgent::OnConnPoll() {
  FlushAckQueue();
  DrainConn();
}

void RemoteSyncAgent::DrainConn() {
  if (conn_ == nullptr || shutdown_) {
    return;
  }
  uint8_t buf[kReadChunk];
  for (;;) {
    int64_t n = conn_->Read(buf, sizeof(buf), 0);
    if (n == -kEAGAIN || n == 0 || n < 0) {
      // EOF here is the leader going away at end of run — nothing to replay.
      break;
    }
    parser_.Feed(buf, static_cast<size_t>(n));
  }
  ProcessParsedFrames();
}

void RemoteSyncAgent::ProcessParsedFrames() {
  RbWireFrame frame;
  for (;;) {
    RbFrameParser::Status st = parser_.Next(&frame);
    if (st == RbFrameParser::Status::kCorrupt) {
      // A reliable in-order stream does not corrupt silently; a bad MAC means an
      // active adversary. Either way: treat it as a torn link — reject, close,
      // and let the leader's transport report the death.
      ++kernel_->stats().rb_auth_frames_rejected;
      Reject(parser_.corrupt_reason());
      return;
    }
    if (st != RbFrameParser::Status::kFrame) {
      return;
    }
    HandleFrame(std::move(frame));
    if (shutdown_) {
      return;  // A refused join or diverged frame tore the link down mid-drain.
    }
  }
}

void RemoteSyncAgent::InjectRawBytesForTest(const uint8_t* data, size_t len) {
  parser_.Feed(data, len);
  ProcessParsedFrames();
}

void RemoteSyncAgent::SendRawAckForTest(std::vector<uint8_t> frame) {
  ackq_.Push(std::move(frame));
  FlushAckQueue();
}

void RemoteSyncAgent::HandleFrame(RbWireFrame frame) {
  if (shutdown_) {
    return;  // A torn link applies nothing more.
  }
  SimStats& stats = kernel_->stats();
  // Epoch monotonicity holds on every frame type: a replayed frame of an earlier
  // stream identifies itself by its stale epoch even when its MAC, valid under
  // that epoch's key, checks out. The only safe response is to tear the link;
  // dropping and continuing would let an adversary probe freely.
  if (frame.epoch == 0 || frame.epoch < max_epoch_seen_) {
    ++stats.rb_epoch_regressions;
    Reject("stale epoch " + std::to_string(frame.epoch) + " on the stream (at " +
           std::to_string(max_epoch_seen_) + ")");
    return;
  }
  max_epoch_seen_ = frame.epoch;
  // Within-connection replay gate: the leader's frame_seq is strictly increasing
  // per connection (across epoch bumps too), so a repeated sequence number is a
  // captured frame re-sent. Test-built frames use seq 0 and bypass the gate.
  if (frame.frame_seq != 0) {
    if (frame.frame_seq <= max_data_seq_) {
      ++stats.rb_auth_frames_rejected;
      Reject("replayed frame seq=" + std::to_string(frame.frame_seq) + " (stream at " +
             std::to_string(max_data_seq_) + ")");
      return;
    }
    max_data_seq_ = frame.frame_seq;
  }
  if (IsSnapshotFrameType(frame.type)) {
    HandleSnapshotFrame(frame);
    return;
  }
  if (frame.type != RbFrameType::kEntries && frame.type != RbFrameType::kSyncLog) {
    return;
  }
  if (frame.epoch < join_epoch_) {
    // Stale data traffic — entry and sync-log frames alike — from before the
    // epoch this agent was seeded at can never be applied over the checkpoint
    // (docs/RB_WIRE_FORMAT.md, "Join handshake").
    ++frames_rejected_;
    return;
  }
  if (ReadyFor(frame)) {
    ApplyFrame(frame);
  } else {
    pending_.push_back(std::move(frame));
  }
}

bool RemoteSyncAgent::InjectFrameForTest(RbWireFrame frame) {
  uint64_t before = frames_applied_;
  HandleFrame(std::move(frame));
  return frames_applied_ > before;
}

bool RemoteSyncAgent::ReadyFor(const RbWireFrame& frame) const {
  if (frame.type == RbFrameType::kSyncLog) {
    // No agent at all is a configuration divergence, not a not-ready state: apply
    // immediately so the reject tears the link down instead of pending forever.
    return sync_agent_ == nullptr || sync_agent_->log_valid();
  }
  return mon_->rb().valid();
}

void RemoteSyncAgent::HandleSnapshotFrame(const RbWireFrame& frame) {
  SimStats& stats = kernel_->stats();
  bool ok = false;
  std::string why;
  switch (frame.type) {
    case RbFrameType::kSnapshotBegin:
      assembler_.Reset();
      ok = assembler_.Begin(frame.payload);
      why = assembler_.error();
      break;
    case RbFrameType::kSnapshotChunk:
      ok = assembler_.AddChunk(frame.payload);
      why = assembler_.error();
      break;
    case RbFrameType::kSnapshotEnd: {
      ok = assembler_.End(frame.payload);
      why = assembler_.error();
      if (ok) {
        SnapshotApplyResult res =
            ApplySnapshotToMirror(kernel_, mon_, sync_agent_, assembler_.snapshot());
        ok = res.ok;
        why = res.error;
        if (ok) {
          ++joins_;
          join_epoch_ = frame.epoch;
          ++stats.rb_replica_joins;
          ++stats.EpochRow(frame.epoch).joins;
          stats.rb_snapshot_entries_restored += res.entries_restored;
        }
      }
      assembler_.Reset();  // Completed or failed, the buffered records are done.
      break;
    }
    default:
      why = "unexpected frame type";
      break;
  }
  if (!ok) {
    // A refused join is a dead link again; the leader decides what next.
    ++stats.rb_snapshot_rejects;
    Reject("refused snapshot: " + why);
    return;
  }
  Accept(frame);
}

void RemoteSyncAgent::OnReplicaRbReady() {
  std::vector<RbWireFrame> pending = std::move(pending_);
  pending_.clear();
  for (const RbWireFrame& f : pending) {
    if (shutdown_) {
      return;  // A diverged frame tore the link down; drop the rest.
    }
    ApplyFrame(f);
  }
}

void RemoteSyncAgent::ApplyFrame(const RbWireFrame& frame) {
  const char* why = nullptr;
  if (frame.type == RbFrameType::kSyncLog) {
    why = ApplySyncLog(frame);
  } else {
    RbView rb = mon_->rb();
    for (const RbWireEntry& e : frame.entries) {
      if (RbEntryOps::ReplayRecord(rb, kernel_->futex(), frame.rank, e)) {
        ++kernel_->stats().rb_entries_applied;
      } else {
        why = "stream diverged";
      }
    }
  }
  if (why != nullptr) {
    // A malformed record means the streams have diverged.
    Reject(std::string("rejected ") +
           (frame.type == RbFrameType::kSyncLog ? "sync-log" : "entries") +
           " frame seq=" + std::to_string(frame.frame_seq) + " (" + why + ")");
    return;
  }
  Accept(frame);
}

void RemoteSyncAgent::Accept(const RbWireFrame& frame) {
  ++frames_applied_;
  SimStats& stats = kernel_->stats();
  ++stats.rb_frames_applied;
  ++stats.EpochRow(frame.epoch).frames_applied;
  SendAck(frame.epoch, frame.frame_seq);
}

void RemoteSyncAgent::Reject(const std::string& why) {
  std::fprintf(stderr, "[rb-agent] replica %d: %s; tearing link\n",
               mon_->config().replica_index, why.c_str());
  ++frames_rejected_;
  Shutdown();
}

const char* RemoteSyncAgent::ApplySyncLog(const RbWireFrame& frame) {
  if (sync_agent_ == nullptr) {
    return "the replica runs no sync agent";
  }
  if (const char* why = sync_agent_->ApplyLog(frame.sync_start, frame.sync_records)) {
    return why;
  }
  SimStats& stats = kernel_->stats();
  ++stats.sync_log_frames_applied;
  stats.sync_log_records_applied += frame.sync_records.size();
  return nullptr;
}

void RemoteSyncAgent::SendAck(uint32_t epoch, uint64_t frame_seq) {
  // The agent does not originate epochs; it echoes the applied frame's epoch so the
  // leader can discard acknowledgments that straddle an epoch bump. Every ack
  // piggybacks this replica's sync-log replay cursor — the only channel the
  // master's wraparound gate has to a remote replica's consumption progress.
  last_ack_epoch_ = epoch;
  last_ack_seq_ = frame_seq;
  std::vector<uint8_t> ack = RbWireCodec::EncodeAck(
      epoch, frame_seq, sync_agent_ != nullptr ? sync_agent_->read_cursor() : 0);
  auth_.SealFrame(&ack, RbAuthDirection::kReplicaToLeader);
  ++kernel_->stats().rb_auth_frames_sealed;
  ackq_.Push(std::move(ack));
  FlushAckQueue();
}

void RemoteSyncAgent::SendCursorUpdate() {
  // Re-announce the newest applied frame with the advanced cursor. Before any
  // frame applied there is no consumption the master could be parked on.
  if (conn_ == nullptr || shutdown_ || last_ack_epoch_ == 0) {
    return;
  }
  SendAck(last_ack_epoch_, last_ack_seq_);
}

void RemoteSyncAgent::FlushAckQueue() {
  if (conn_ == nullptr || shutdown_) {
    return;
  }
  ackq_.DrainInto(conn_.get());
}

void RemoteSyncAgent::Shutdown() {
  if (shutdown_) {
    return;
  }
  shutdown_ = true;
  if (conn_ != nullptr) {
    conn_->Shutdown(kShutRdWr);
  }
  if (listener_ != nullptr) {
    listener_->OnDescriptionClosed(0);  // Unbind the listening port.
  }
}

}  // namespace remon
