// Physical page frames and the one store that holds them.
//
// Simulated guest memory lives in 4 KiB frames, and every frame lives in exactly
// one FrameTable. An address space never owns a frame: each of its mappings is a
// window onto a table (see address_space.h). A private mapping gets a table of its
// own; a System V segment, the IP-MON replication buffer and the IP-MON file map
// are one table mapped into several address spaces, so cross-replica communication
// through shared mappings touches literally the same bytes. Regular files keep
// their contents in a table too (src/vfs/fs.h).

#ifndef SRC_MEM_PAGE_H_
#define SRC_MEM_PAGE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace remon {

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kPageShift = 12;
inline constexpr uint64_t kPageMask = kPageSize - 1;

// A guest virtual address. Guest pointers are plain integers on the host side; all
// dereferencing goes through AddressSpace so permission checks and per-replica layouts
// are enforced.
using GuestAddr = uint64_t;

constexpr GuestAddr PageAlignDown(GuestAddr a) { return a & ~kPageMask; }
constexpr GuestAddr PageAlignUp(GuestAddr a) { return (a + kPageMask) & ~kPageMask; }

struct Page {
  std::array<uint8_t, kPageSize> bytes{};
};

// A demand-paged store of guest bytes: the backing of every mapping, of a System V
// segment and of a regular file. Pages start out as holes; the first write (or
// frame resolution through a mapping) allocates the frame there, so every mapping
// of the table sees it (Linux faults a shm segment in the same way) and a hole
// costs no frame. A table holding no frame allocates nothing, however many pages
// it spans: frames sit in leaves of kLeafPages slots, and only leaves holding a
// frame exist. A released frame turns back into a hole: an unmap or shrink of a
// private table, a truncated file, an RB reset's interior pages (Linux
// MADV_REMOVE on shmem) and a madvise(MADV_DONTNEED) of private memory all free
// frames rather than write zeroes into them. A segment's table keeps the size it
// was created with; a file's grows to its highest written page and shrinks with
// truncation. Mappings hold it by shared_ptr: attached mappings keep a segment's
// table alive after IPC_RMID.
class FrameTable {
  // 64-page leaves: the pages a space touches cluster into a few such spans, and a
  // leaf's 512 bytes of slots are small beside the 4 KiB frames it holds.
  static constexpr uint64_t kLeafShift = 6;
  static constexpr uint64_t kLeafPages = uint64_t{1} << kLeafShift;
  static constexpr uint64_t kLeafMask = kLeafPages - 1;

  struct Leaf {
    std::array<std::unique_ptr<Page>, kLeafPages> slots;
    uint32_t resident = 0;
  };
  // (leaf number, leaf), sorted by leaf number.
  using LeafList = std::vector<std::pair<uint64_t, std::unique_ptr<Leaf>>>;

  // The first leaf numbered `number` or higher.
  template <typename List>
  static auto FindLeaf(List& leaves, uint64_t number) {
    return std::ranges::lower_bound(leaves, number, std::less<>{},
                                    &LeafList::value_type::first);
  }

 public:
  explicit FrameTable(uint64_t pages = 0) : size_(pages) {}
  // Neither copyable nor movable: last_leaf_ caches one of this table's leaves.
  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  uint64_t size() const { return size_; }
  // Frames allocated so far; never-touched pages cost no host memory.
  uint64_t resident() const { return resident_; }

  // The frame of page `index`, or null while nothing has materialized it.
  Page* Get(uint64_t index) const {
    uint64_t number = index >> kLeafShift;
    if (last_leaf_ == nullptr || last_number_ != number) {
      auto it = FindLeaf(leaves_, number);
      if (it == leaves_.end() || it->first != number) {
        return nullptr;
      }
      last_leaf_ = it->second.get();
      last_number_ = number;
    }
    return last_leaf_->slots[index & kLeafMask].get();
  }

  // The frame of page `index`, allocating it on first use.
  Page* Materialize(uint64_t index) {
    uint64_t number = index >> kLeafShift;
    auto it = FindLeaf(leaves_, number);
    if (it == leaves_.end() || it->first != number) {
      it = leaves_.emplace(it, number, std::make_unique<Leaf>());
    }
    Leaf& leaf = *it->second;
    std::unique_ptr<Page>& slot = leaf.slots[index & kLeafMask];
    if (slot == nullptr) {
      slot = std::make_unique<Page>();
      ++leaf.resident;
      ++resident_;
    }
    return slot.get();
  }

  // Frees the frames of pages [first, first + count), which read as holes again,
  // and returns how many there were. Visits only the leaves that exist.
  uint64_t Release(uint64_t first, uint64_t count) {
    return Release(first, count, [](Page&) { return false; });
  }
  // The same, asking `keep(frame)` of each frame first: a frame it returns true
  // for stays. An RB reset uses it to assert that no futex waiter is keyed on a
  // frame it frees; madvise, to keep such a frame and zero it in place.
  template <typename Keep>
  uint64_t Release(uint64_t first, uint64_t count, Keep&& keep) {
    uint64_t end = first + count;
    uint64_t freed = 0;
    auto it = FindLeaf(leaves_, first >> kLeafShift);
    while (it != leaves_.end() && (it->first << kLeafShift) < end) {
      uint64_t base = it->first << kLeafShift;
      Leaf& leaf = *it->second;
      for (uint64_t i = std::max(first, base) - base;
           i < std::min(end, base + kLeafPages) - base; ++i) {
        if (leaf.slots[i] != nullptr && !keep(*leaf.slots[i])) {
          leaf.slots[i].reset();
          --leaf.resident;
          ++freed;
        }
      }
      if (leaf.resident == 0) {
        last_leaf_ = last_leaf_ == &leaf ? nullptr : last_leaf_;
        it = leaves_.erase(it);
      } else {
        ++it;
      }
    }
    resident_ -= freed;
    return freed;
  }

  // Sets the page count to `pages`: growing appends holes, shrinking releases the
  // frames past the new end.
  void Resize(uint64_t pages) {
    if (pages < size_) {
      Release(pages, size_ - pages);
    }
    size_ = pages;
  }

 private:
  LeafList leaves_;
  // The leaf Get found last: accesses run in bursts on one span. A leaf never
  // moves, so only its erasure resets this.
  mutable const Leaf* last_leaf_ = nullptr;
  mutable uint64_t last_number_ = 0;
  uint64_t size_ = 0;
  uint64_t resident_ = 0;
};

// Mapping protection bits (PROT_*-like).
enum ProtBits : uint32_t {
  kProtNone = 0,
  kProtRead = 1,
  kProtWrite = 2,
  kProtExec = 4,
};

}  // namespace remon

#endif  // SRC_MEM_PAGE_H_
