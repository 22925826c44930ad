// The epoll data shadow mapping (paper §3.9).
//
// epoll_event.data is an opaque per-replica cookie (usually a heap pointer), so the
// master's values are meaningless in the slaves. Each replica has one shadow: the
// (epfd, fd) -> data association established by its epoll_ctl calls, and its
// reverse. It lives in the replica's IP-MON; GHUMVEE records the epoll_ctl calls it
// monitors into that same map, and keeps a map of its own only for a replica
// without IP-MON. Replicating an epoll_wait result rewrites master data -> fd
// (CookiesToFds, once, on the producing side) -> slave data (FdsToCookies, per
// consumer); both monitors call the same pair. The maps sit on the hot path of
// every epoll_ctl/epoll_wait under SOCKET_RO, so they are hash maps on packed
// 64-bit keys (O(1) lookups), not ordered trees.

#ifndef SRC_CORE_EPOLL_SHADOW_H_
#define SRC_CORE_EPOLL_SHADOW_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "src/kernel/abi.h"

namespace remon {

class EpollShadowMap {
 public:
  // Records the association an epoll_ctl established (op == kEpollCtlDel removes it;
  // add/mod replace any previous mapping, keeping the reverse map consistent).
  void Record(int epfd, int op, int fd, uint64_t data) {
    uint64_t key = FwdKey(epfd, fd);
    if (op == kEpollCtlDel) {
      auto it = data_.find(key);
      if (it != data_.end()) {
        rev_.erase({epfd, it->second});
        data_.erase(it);
      }
      return;
    }
    auto old = data_.find(key);
    if (old != data_.end()) {
      rev_.erase({epfd, old->second});
    }
    data_[key] = data;
    rev_[{epfd, data}] = fd;
  }

  // data -> fd over the packed epoll_events in [events, events + len), the producing
  // side's rewrite of the master's results. A cookie with no row stays as it is.
  void CookiesToFds(int epfd, uint8_t* events, size_t len) const {
    RewriteData(events, len, [this, epfd](uint64_t data) {
      auto it = rev_.find({epfd, data});
      return it == rev_.end() ? data : static_cast<uint64_t>(it->second);
    });
  }

  // fd -> data over the same layout, the consuming side's rewrite into this
  // replica's cookies. An fd with no row stays as it is.
  void FdsToCookies(int epfd, uint8_t* events, size_t len) const {
    RewriteData(events, len, [this, epfd](uint64_t fd) {
      auto it = data_.find(FwdKey(epfd, static_cast<int>(fd)));
      return it == data_.end() ? fd : it->second;
    });
  }

 private:
  // (epfd, fd) packed into one 64-bit key: both are small non-negative descriptor
  // numbers in practice; truncating to 32 bits each is lossless.
  static uint64_t FwdKey(int epfd, int fd) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(epfd)) << 32) |
           static_cast<uint32_t>(fd);
  }

  // Replaces the data field of every whole event in the span with fn(data).
  // GuestEpollEvent is packed, so each field is copied out and back, never
  // addressed in place.
  template <typename Fn>  // uint64_t fn(uint64_t data)
  static void RewriteData(uint8_t* events, size_t len, Fn&& fn) {
    GuestEpollEvent ev;
    for (size_t off = 0; off + sizeof(ev) <= len; off += sizeof(ev)) {
      std::memcpy(&ev, events + off, sizeof(ev));
      ev.data = fn(ev.data);
      std::memcpy(events + off, &ev, sizeof(ev));
    }
  }

  // (epfd, data) cannot pack — data uses all 64 bits — so the reverse map hashes the
  // pair instead.
  struct RevHash {
    size_t operator()(const std::pair<int, uint64_t>& k) const {
      uint64_t h = k.second * 0x9e3779b97f4a7c15ULL;  // Fibonacci scramble.
      return static_cast<size_t>(h ^ static_cast<uint32_t>(k.first));
    }
  };

  std::unordered_map<uint64_t, uint64_t> data_;
  std::unordered_map<std::pair<int, uint64_t>, int, RevHash> rev_;
};

}  // namespace remon

#endif  // SRC_CORE_EPOLL_SHADOW_H_
