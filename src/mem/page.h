// Physical page frames.
//
// Simulated guest memory is allocated in 4 KiB frames shared by reference counting:
// a frame mapped into several address spaces (System V shared memory, the IP-MON
// replication buffer) is literally the same bytes, so cross-replica communication
// through shared mappings behaves like the real thing.

#ifndef SRC_MEM_PAGE_H_
#define SRC_MEM_PAGE_H_

#include <array>
#include <cstdint>
#include <memory>
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

using PageRef = std::shared_ptr<Page>;

inline PageRef NewPage() { return std::make_shared<Page>(); }

// A demand-paged store of guest bytes: the backing of a System V segment and the
// contents of a regular file. Slots start out null; the first write (or frame
// resolution through a mapping of a segment) allocates the frame there, so every
// attacher sees it (Linux faults a shm segment in the same way) and a file hole
// costs no frame. A segment's table keeps the size it was created with; a file's
// grows to its highest written page and shrinks with truncation. Segments hold it
// by shared_ptr: attached mappings keep it alive after IPC_RMID.
class FrameTable {
 public:
  explicit FrameTable(uint64_t pages = 0) : slots_(pages) {}

  uint64_t size() const { return slots_.size(); }
  // Frames allocated so far; never-touched pages cost no host memory.
  uint64_t resident() const { return resident_; }

  // The frame of page `index`, or null while nothing has materialized it.
  const PageRef& Get(uint64_t index) const { return slots_[index]; }
  // The frame of page `index`, allocating it on first use.
  const PageRef& Materialize(uint64_t index) {
    PageRef& slot = slots_[index];
    if (slot == nullptr) {
      slot = NewPage();
      ++resident_;
    }
    return slot;
  }

  // Sets the slot count to `pages`: growing appends holes, shrinking releases the
  // frames past the new end.
  void Resize(uint64_t pages) {
    for (uint64_t i = pages; i < slots_.size(); ++i) {
      resident_ -= slots_[i] != nullptr ? 1 : 0;
    }
    slots_.resize(pages);
  }

 private:
  std::vector<PageRef> slots_;
  uint64_t resident_ = 0;
};

// Page / VMA protection bits (PROT_*-like).
enum ProtBits : uint32_t {
  kProtNone = 0,
  kProtRead = 1,
  kProtWrite = 2,
  kProtExec = 4,
};

}  // namespace remon

#endif  // SRC_MEM_PAGE_H_
