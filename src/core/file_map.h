// The IP-MON file map (paper §3.6).
//
// GHUMVEE arbitrates every FD-creating/modifying/destroying call, so it maintains
// authoritative metadata: one byte per descriptor — the FD's type (regular / pipe /
// socket / epoll / special / ...) and whether it is in non-blocking mode. Replicas map
// a read-only copy; IP-MON consults it to apply conditional relaxation policies
// ("is this read on a socket?") and to predict whether an unmonitored call may block
// (choosing futex sleeps over spin waits for the slaves, §3.7).

#ifndef SRC_CORE_FILE_MAP_H_
#define SRC_CORE_FILE_MAP_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "src/kernel/syscall_meta.h"
#include "src/mem/page.h"
#include "src/sim/check.h"
#include "src/vfs/file.h"

namespace remon {

// The file map doubles as the FdInfoSource behind the descriptor registry's
// classification helpers (EffectiveFdType / PredictBlocking).
//
// One byte per FD. The map spans a configurable whole number of pages so
// high-connection-count servers (a fleet shard under a 10^4-connection swarm)
// can track descriptors past the first 4096; the map's FrameTable is mapped
// read-only into every replica as one contiguous region. The size is fixed at
// Configure for the replica set's lifetime: Remon raises each replica's FD limit
// to exactly the map's size, so no descriptor a replica can open falls outside it.
class FileMap : public FdInfoSource {
 public:
  // Default capacity: a single page, enough for the classic one-process runs.
  static constexpr int kMaxFds = static_cast<int>(kPageSize);

  static constexpr uint8_t kValidBit = 0x80;
  static constexpr uint8_t kNonblockBit = 0x40;
  static constexpr uint8_t kTypeMask = 0x0f;

  FileMap() { Configure(1, ""); }

  // Sizes the map to `pages` pages, every one resident so ByteAt and page() never
  // meet a hole, and tags warnings with `label` (the fleet passes the shard name).
  // Must run before replicas map the region — it starts a fresh table, and IP-MON
  // maps the table at attach time.
  void Configure(int pages, std::string label) {
    REMON_CHECK(pages >= 1 && pages <= kMaxPages);
    frames_ = std::make_shared<FrameTable>();
    frames_->Resize(static_cast<uint64_t>(pages));
    for (uint64_t i = 0; i < frames_->size(); ++i) {
      frames_->Materialize(i);
    }
    label_ = std::move(label);
    out_of_range_sets_ = 0;
    warned_out_of_range_ = false;
  }

  // The map's pages, mapped read-only into every replica. Every page is resident.
  const std::shared_ptr<FrameTable>& frames() const { return frames_; }
  const Page& page(uint64_t index) const { return *frames_->Get(index); }
  int page_count() const { return static_cast<int>(frames_->size()); }
  uint64_t size_bytes() const { return frames_->size() * kPageSize; }
  int max_fds() const { return static_cast<int>(size_bytes()); }

  void Set(int fd, FdType type, bool nonblocking) {
    if (!InRange(fd)) {
      // An FD beyond the map would be tracked nowhere: every later policy and
      // blocking-prediction lookup on it silently degrades to "unknown". Count
      // it and warn once — naming the owner — so a bare map given an FD past its
      // end is visible instead of masked, and points at the --fd-map-pages knob.
      ++out_of_range_sets_;
      if (!warned_out_of_range_) {
        warned_out_of_range_ = true;
        std::fprintf(stderr,
                     "FileMap%s%s%s: fd %d outside the %d-page map [0, %d); "
                     "metadata dropped (further drops counted, not logged) — "
                     "raise file_map_pages / --fd-map-pages\n",
                     label_.empty() ? "" : " [", label_.c_str(),
                     label_.empty() ? "" : "]", fd,
                     page_count(), max_fds());
      }
      return;
    }
    uint8_t byte = kValidBit | (static_cast<uint8_t>(type) & kTypeMask);
    if (nonblocking) {
      byte |= kNonblockBit;
    }
    ByteAt(fd) = byte;
  }

  void SetNonblocking(int fd, bool nonblocking) {
    if (!InRange(fd) || !IsValid(fd)) {
      return;
    }
    uint8_t& byte = ByteAt(fd);
    byte = nonblocking ? (byte | kNonblockBit) : (byte & ~kNonblockBit);
  }

  void Clear(int fd) {
    if (InRange(fd)) {
      ByteAt(fd) = 0;
    }
  }

  bool IsValid(int fd) const {
    return InRange(fd) && (ByteAt(fd) & kValidBit) != 0;
  }

  FdType TypeOf(int fd) const {
    if (!IsValid(fd)) {
      return FdType::kFree;
    }
    return static_cast<FdType>(ByteAt(fd) & kTypeMask);
  }

  bool IsNonblocking(int fd) const {
    return IsValid(fd) && (ByteAt(fd) & kNonblockBit) != 0;
  }

  // FdInfoSource:
  bool FdValid(int fd) const override { return IsValid(fd); }
  FdType FdTypeOf(int fd) const override { return TypeOf(fd); }
  bool FdNonblocking(int fd) const override { return IsNonblocking(fd); }

  // Number of Set() calls dropped because the FD fell outside the map.
  uint64_t out_of_range_sets() const { return out_of_range_sets_; }

 private:
  static constexpr int kMaxPages = 1024;

  bool InRange(int fd) const { return fd >= 0 && fd < max_fds(); }

  uint8_t& ByteAt(int fd) {
    return frames_->Get(static_cast<uint64_t>(fd) / kPageSize)
        ->bytes[static_cast<uint64_t>(fd) % kPageSize];
  }
  uint8_t ByteAt(int fd) const {
    return page(static_cast<uint64_t>(fd) / kPageSize)
        .bytes[static_cast<uint64_t>(fd) % kPageSize];
  }

  std::shared_ptr<FrameTable> frames_;
  std::string label_;
  uint64_t out_of_range_sets_ = 0;
  bool warned_out_of_range_ = false;
};

}  // namespace remon

#endif  // SRC_CORE_FILE_MAP_H_
