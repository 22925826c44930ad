#include "src/net/network.h"

#include <algorithm>

#include "src/sim/check.h"

namespace remon {

uint32_t Network::AddMachine(std::string name) {
  machines_.push_back(std::move(name));
  return static_cast<uint32_t>(machines_.size() - 1);
}

void Network::SetLink(uint32_t a, uint32_t b, LinkParams params) {
  links_[{std::min(a, b), std::max(a, b)}] = LinkState{params, 0};
}

std::shared_ptr<StreamSocket> Network::CreateStream(uint32_t machine) {
  REMON_CHECK(machine < machines_.size());
  return std::make_shared<StreamSocket>(this, machine);
}

int Network::BindListener(const SockAddr& addr, StreamSocket* listener) {
  if (listeners_.count(addr) != 0) {
    return -kEADDRINUSE;
  }
  listeners_[addr] = listener;
  return 0;
}

void Network::UnbindListener(const SockAddr& addr, StreamSocket* listener) {
  auto it = listeners_.find(addr);
  if (it != listeners_.end() && it->second == listener) {
    listeners_.erase(it);
  }
}

StreamSocket* Network::FindListener(const SockAddr& addr) const {
  auto it = listeners_.find(addr);
  return it == listeners_.end() ? nullptr : it->second;
}

void Network::BindVirtual(const SockAddr& vip, VirtualRouter router) {
  REMON_CHECK_MSG(listeners_.count(vip) == 0,
                  "virtual endpoint shadows a real listener");
  virtuals_[vip] = std::move(router);
}

void Network::UnbindVirtual(const SockAddr& vip) { virtuals_.erase(vip); }

bool Network::ResolveVirtual(const SockAddr& dst, const SockAddr& client,
                             SockAddr* out) const {
  auto it = virtuals_.find(dst);
  if (it == virtuals_.end()) {
    return false;
  }
  *out = it->second(dst, client);
  return true;
}

Network::LinkState& Network::LinkFor(uint32_t a, uint32_t b) {
  if (a == b) {
    return loopback_state_;
  }
  auto key = std::make_pair(std::min(a, b), std::max(a, b));
  auto it = links_.find(key);
  if (it == links_.end()) {
    // Unconfigured links get defaults.
    it = links_.emplace(key, LinkState{LinkParams{}, 0}).first;
  }
  return it->second;
}

TimeNs Network::DeliveryTime(uint32_t src, uint32_t dst, uint64_t bytes) {
  LinkState& link = LinkFor(src, dst);
  const LinkParams& p = (src == dst) ? loopback_ : link.params;
  TimeNs now = sim_->now();
  TimeNs start = std::max(now, link.busy_until);
  auto tx = static_cast<DurationNs>(static_cast<double>(bytes) / p.bytes_per_ns);
  link.busy_until = start + tx;
  return start + tx + p.latency_ns;
}

uint16_t Network::AllocEphemeralPort(uint32_t machine) {
  uint16_t& next = next_ephemeral_[machine];
  if (next < 32768) {
    next = 32768;
  }
  return next++;
}

StreamSocket::~StreamSocket() {
  if (state_ == State::kListening) {
    net_->UnbindListener(local_, this);
  }
}

int StreamSocket::Bind(uint16_t port) {
  if (bound_ || state_ != State::kCreated) {
    return -kEINVAL;
  }
  local_ = SockAddr{machine_, port};
  bound_ = true;
  return 0;
}

int StreamSocket::Listen(int backlog) {
  if (!bound_ || state_ != State::kCreated) {
    return -kEINVAL;
  }
  int rc = net_->BindListener(local_, this);
  if (rc != 0) {
    return rc;
  }
  state_ = State::kListening;
  backlog_ = std::max(1, backlog);
  return 0;
}

int StreamSocket::ConnectTo(const SockAddr& peer) {
  if (state_ == State::kConnected) {
    return -kEISCONN;
  }
  if (state_ != State::kCreated) {
    return -kEINVAL;
  }
  if (!bound_) {
    local_ = SockAddr{machine_, net_->AllocEphemeralPort(machine_)};
    bound_ = true;
  }
  remote_ = peer;
  state_ = State::kConnecting;

  // Virtual endpoints resolve before the SYN leaves; the client keeps observing
  // the VIP as its peer while the stream lands on the routed backend.
  SockAddr target = peer;
  net_->ResolveVirtual(peer, local_, &target);

  // SYN flight: after one-way latency the listener either queues a new connection or
  // refuses; the SYN-ACK takes another one-way trip.
  auto self = shared_from_this();
  TimeNs syn_arrival = net_->DeliveryTime(machine_, target.machine, 64);
  net_->sim()->queue().ScheduleAt(syn_arrival, [this, self, peer = target] {
    StreamSocket* listener = net_->FindListener(peer);
    if (listener == nullptr || listener->state_ != State::kListening ||
        static_cast<int>(listener->accept_queue_.size()) >= listener->backlog_) {
      TimeNs rst = net_->DeliveryTime(peer.machine, machine_, 64);
      net_->sim()->queue().ScheduleAt(rst, [this, self] {
        connect_failed_ = true;
        state_ = State::kClosed;
        NotifyPoll();
      });
      return;
    }
    // Create the server-side socket of the pair.
    auto server_side = net_->CreateStream(peer.machine);
    server_side->local_ = peer;
    server_side->remote_ = local_;
    server_side->bound_ = true;
    server_side->state_ = State::kConnected;
    server_side->peer_ = self;
    listener->accept_queue_.push_back(server_side);
    listener->NotifyPoll();
    TimeNs synack = net_->DeliveryTime(peer.machine, machine_, 64);
    net_->sim()->queue().ScheduleAt(synack, [this, self, server_side] {
      if (state_ == State::kConnecting) {
        DeliverConnected(server_side);
      }
    });
  });
  return -kEINPROGRESS;
}

void StreamSocket::DeliverConnected(std::shared_ptr<StreamSocket> peer_sock) {
  state_ = State::kConnected;
  peer_ = peer_sock;
  NotifyPoll();
}

std::shared_ptr<StreamSocket> StreamSocket::TryAccept() {
  if (state_ != State::kListening || accept_queue_.empty()) {
    return nullptr;
  }
  std::shared_ptr<StreamSocket> conn = accept_queue_.front();
  accept_queue_.pop_front();
  return conn;
}

int64_t StreamSocket::Read(void* buf, uint64_t len, uint64_t offset) {
  if (state_ == State::kListening) {
    return -kEINVAL;
  }
  if (rx_.empty()) {
    if (rx_eof_ || state_ == State::kClosed) {
      return 0;
    }
    if (state_ != State::kConnected) {
      return -kENOTCONN;
    }
    return -kEAGAIN;
  }
  uint64_t n = std::min<uint64_t>(len, rx_.size());
  uint8_t* dst = static_cast<uint8_t*>(buf);
  for (uint64_t i = 0; i < n; ++i) {
    dst[i] = rx_.front();
    rx_.pop_front();
  }
  // Window space freed: let the peer's writers retry.
  if (auto p = peer_.lock()) {
    p->NotifyPoll();
  }
  return static_cast<int64_t>(n);
}

int64_t StreamSocket::Write(const void* buf, uint64_t len, uint64_t offset) {
  if (state_ != State::kConnected) {
    return state_ == State::kClosed ? -kEPIPE : -kENOTCONN;
  }
  if (tx_shutdown_) {
    return -kEPIPE;
  }
  auto p = peer_.lock();
  if (!p) {
    return -kEPIPE;
  }
  uint64_t used = unread_by_peer();
  if (used >= kWindowBytes) {
    return -kEAGAIN;
  }
  uint64_t n = std::min<uint64_t>(len, kWindowBytes - used);
  const uint8_t* src = static_cast<const uint8_t*>(buf);
  std::vector<uint8_t> data(src, src + n);
  in_flight_to_peer_ += n;
  TimeNs arrival = net_->DeliveryTime(machine_, p->machine_, n);
  auto self = shared_from_this();
  net_->sim()->queue().ScheduleAt(arrival, [this, self, p, data = std::move(data)] {
    in_flight_to_peer_ -= data.size();
    p->DeliverBytes(data);
  });
  return static_cast<int64_t>(n);
}

uint64_t StreamSocket::unread_by_peer() const {
  auto p = peer_.lock();
  return in_flight_to_peer_ + (p ? p->rx_.size() : 0);
}

void StreamSocket::DeliverBytes(const std::vector<uint8_t>& data) {
  rx_.insert(rx_.end(), data.begin(), data.end());
  NotifyPoll();
}

void StreamSocket::DeliverFin() {
  rx_eof_ = true;
  NotifyPoll();
}

uint32_t StreamSocket::Poll() const {
  uint32_t mask = 0;
  switch (state_) {
    case State::kListening:
      if (!accept_queue_.empty()) {
        mask |= kPollIn;
      }
      break;
    case State::kConnected: {
      if (!rx_.empty() || rx_eof_) {
        mask |= kPollIn;
      }
      if (!peer_.expired() && !tx_shutdown_ && unread_by_peer() < kWindowBytes) {
        mask |= kPollOut;
      }
      if (rx_eof_) {
        mask |= kPollRdHup;
      }
      break;
    }
    case State::kClosed:
      mask |= kPollHup | (connect_failed_ ? kPollErr : 0u);
      if (!rx_.empty() || rx_eof_) {
        mask |= kPollIn;
      }
      break;
    case State::kConnecting:
    case State::kCreated:
      break;
  }
  return mask;
}

int StreamSocket::Shutdown(int how) {
  if (state_ != State::kConnected) {
    return -kENOTCONN;
  }
  if (how == kShutWr || how == kShutRdWr) {
    tx_shutdown_ = true;
    if (auto p = peer_.lock()) {
      TimeNs arrival = net_->DeliveryTime(machine_, p->machine_, 64);
      auto self = shared_from_this();
      net_->sim()->queue().ScheduleAt(arrival, [p, self] { p->DeliverFin(); });
    }
  }
  if (how == kShutRd || how == kShutRdWr) {
    rx_eof_ = true;
    NotifyPoll();
  }
  return 0;
}

void StreamSocket::OnDescriptionClosed(int acc_mode) {
  // Full close once the last description goes away.
  if (state_ == State::kListening) {
    net_->UnbindListener(local_, this);
    state_ = State::kClosed;
    return;
  }
  if (state_ == State::kConnected) {
    if (auto p = peer_.lock()) {
      TimeNs arrival = net_->DeliveryTime(machine_, p->machine_, 64);
      net_->sim()->queue().ScheduleAt(arrival, [p] {
        p->DeliverFin();
      });
    }
  }
  state_ = State::kClosed;
  NotifyPoll();
}

}  // namespace remon
