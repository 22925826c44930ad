// Per-process virtual address space: a VMA list over frame tables.
//
// Every mapping is a window onto a FrameTable (src/mem/page.h): page i of a VMA is
// page `first_page + i` of its table, and the VMA alone holds the protection.
// MapFixed gives a mapping a table of its own, demand-paged like Linux anonymous
// memory; MapShared maps a caller's table (a System V segment, the IP-MON file
// map), so a frame one space materializes is the same bytes in every other.
//
// Responsibilities:
//  * mapping/unmapping/protecting regions (mmap/munmap/mprotect/mremap/brk semantics),
//  * permission-checked reads and writes used by guests, the kernel, and the monitors,
//  * /proc/<pid>/maps rendering (GHUMVEE filters this to hide IP-MON and the RB),
//  * exposing backing frames so futex keys and shared mappings work across processes.

#ifndef SRC_MEM_ADDRESS_SPACE_H_
#define SRC_MEM_ADDRESS_SPACE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/mem/page.h"

namespace remon {

// A mapped region: pages [first_page, first_page + length / kPageSize) of `table`.
struct Vma {
  GuestAddr start = 0;
  uint64_t length = 0;  // Always page-aligned.
  uint32_t prot = kProtNone;
  bool shared = false;  // MAP_SHARED-like: writes are visible through other mappings.
  std::string name;     // Region label, shown in /proc/maps ("[heap]", "libipmon", ...).
  std::shared_ptr<FrameTable> table;
  uint64_t first_page = 0;
  // The table belongs to this address space (MapFixed): unmapping a slice frees
  // its frames, and its frames count in mapped_bytes(). A table passed to
  // MapShared never loses a frame to an unmap.
  bool private_table = false;

  GuestAddr end() const { return start + length; }
  // The table page backing `addr`, which must lie in the VMA.
  uint64_t PageOf(GuestAddr addr) const { return first_page + ((addr - start) >> kPageShift); }
};

// Result of a guest memory access attempt.
struct AccessResult {
  bool ok = true;
  GuestAddr fault_addr = 0;  // First faulting address when !ok.

  static AccessResult Ok() { return {true, 0}; }
  static AccessResult Fault(GuestAddr a) { return {false, a}; }
};

class AddressSpace {
 public:
  AddressSpace() = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // --- Mapping operations -----------------------------------------------------

  // Maps `length` bytes (rounded up to pages) at exactly `start` (page-aligned)
  // onto a fresh private table: no frame exists until a page is first written or
  // its frame resolved, and an untouched page reads as zeroes. Fails (returns
  // false) if any page in the range is already mapped.
  bool MapFixed(GuestAddr start, uint64_t length, uint32_t prot, bool shared,
                std::string_view name);

  // Maps pages [first_page, first_page + pages) of `table` (shmat, the IP-MON file
  // map). A page one mapping materializes is the same frame in every other mapping
  // of the table, including futex keys.
  bool MapShared(GuestAddr start, uint64_t length, uint32_t prot, std::string_view name,
                 std::shared_ptr<FrameTable> table, uint64_t first_page);

  // Finds a free gap of `length` bytes at or below `hint`, searching downward.
  // Returns 0 when no gap exists.
  GuestAddr FindFreeRange(GuestAddr hint, uint64_t length) const;

  // Unmaps [start, start+length). Unmapping unmapped pages is a no-op (POSIX).
  void Unmap(GuestAddr start, uint64_t length);

  // True when [start, start+length), rounded up to pages, lies in user space.
  static bool InUserRange(GuestAddr start, uint64_t length);
  // The same bound on the end only (munmap's: a start below user space is
  // allowed). The page rounding must not wrap.
  static bool EndsInUserSpace(GuestAddr start, uint64_t length);

  // Frees the frames behind the pages of [start, start+length), both page-aligned,
  // in every VMA the range crosses; in a shared VMA (MAP_SHARED, a SysV
  // attachment) only when `shared`. The pages stay mapped and read as zeroes
  // again, and cost no host memory until next written: Linux MADV_REMOVE on
  // shmem, MADV_DONTNEED on private memory. A frame `keep(frame)` returns true for
  // stays (FrameTable::Release).
  template <typename Keep>
  void Discard(GuestAddr start, uint64_t length, bool shared, Keep&& keep);

  // Changes protection on [start, start+length), O(VMAs in the range). Returns
  // false if any page in the range is unmapped.
  bool Protect(GuestAddr start, uint64_t length, uint32_t prot);

  // Remaps a region to a new size in place when possible; returns new start or 0.
  // A private table grows with its mapping; a shared-table mapping cannot grow.
  GuestAddr Remap(GuestAddr old_start, uint64_t old_len, uint64_t new_len);

  // --- Access -------------------------------------------------------------------

  AccessResult Read(GuestAddr addr, void* out, uint64_t len) const {
    return ReadAs(addr, out, len, kProtRead);
  }
  AccessResult Write(GuestAddr addr, const void* data, uint64_t len) {
    return WriteAs(addr, data, len, kProtWrite);
  }

  // True when VMAs granting `prot` cover [addr, addr+len) without a gap. Touches no
  // page: the kernel checks a write's source with it before sizing a buffer by it.
  bool Covers(GuestAddr addr, uint64_t len, uint32_t prot) const;

  // Access that ignores protection (used by ptrace-style monitor access, which
  // goes through the kernel and may inspect read-protected pages).
  AccessResult ReadUnchecked(GuestAddr addr, void* out, uint64_t len) const {
    return ReadAs(addr, out, len, kProtNone);
  }
  AccessResult WriteUnchecked(GuestAddr addr, const void* data, uint64_t len) {
    return WriteAs(addr, data, len, kProtNone);
  }

  // Typed helpers.
  std::optional<uint64_t> ReadU64(GuestAddr addr) const;
  std::optional<uint32_t> ReadU32(GuestAddr addr) const;
  bool WriteU64(GuestAddr addr, uint64_t v);
  bool WriteU32(GuestAddr addr, uint32_t v);
  // Reads a NUL-terminated string of at most `max_len` bytes.
  std::optional<std::string> ReadCString(GuestAddr addr, uint64_t max_len = 4096) const;
  bool WriteBytes(GuestAddr addr, std::span<const uint8_t> data) {
    return Write(addr, data.data(), data.size()).ok;
  }

  // --- Introspection --------------------------------------------------------------

  // Returns the VMA containing `addr`, if any.
  const Vma* FindVma(GuestAddr addr) const;
  // All VMAs in address order.
  std::vector<Vma> Vmas() const;

  // True when the page containing `addr` has a frame in its table. Never
  // materializes: snapshot capture uses it to record holes as holes instead of
  // forcing the whole region resident.
  bool PageMaterialized(GuestAddr addr) const { return Frame(addr, false) != nullptr; }

  // Resolves an address to its backing frame, materializing it; nullptr when
  // unmapped. Used for futex keys (shared frames give shared keys).
  Page* ResolveFrame(GuestAddr addr, uint64_t* offset_in_page) const {
    return WithOffset(Frame(addr, true), addr, offset_in_page);
  }
  // The frame backing `addr` if it is resident, else nullptr. Never materializes a
  // page: a futex wake looks its key up with it, since nobody waits on an
  // untouched word.
  Page* ResidentFrame(GuestAddr addr, uint64_t* offset_in_page) const {
    return WithOffset(Frame(addr, false), addr, offset_in_page);
  }

  // Renders /proc/<pid>/maps content.
  std::string RenderMaps() const;

  // Bytes of the frames resident in this space's private tables, the simulated
  // resident set. A shared table is charged to no attacher: segments count once,
  // in ShmRegistry::resident_pages().
  uint64_t mapped_bytes() const { return private_resident_ * kPageSize; }
  // The most mapped_bytes() ever held (the guest's ru_maxrss): an unmap or a
  // discard never lowers it.
  uint64_t peak_mapped_bytes() const { return peak_private_resident_ * kPageSize; }

 private:
  bool RangeFree(GuestAddr start, uint64_t length) const;

  // Validation prologue of MapFixed and MapShared: page-aligned start, non-empty,
  // inside the user range, and free. On success *len_out holds the page-rounded
  // length.
  bool ValidateFixedRange(GuestAddr start, uint64_t length, uint64_t* len_out) const;

  // True when [start, start+length) intersects any VMA.
  bool VmaOverlaps(GuestAddr start, uint64_t length) const;

  // The frame backing `addr` in `vma`: allocated there on first use when
  // `materialize`, else null for a hole. Const because demand paging is
  // transparent to callers.
  Page* FrameIn(const Vma& vma, GuestAddr addr, bool materialize) const;
  // FrameIn over the VMA holding `addr`; null when `addr` is unmapped.
  Page* Frame(GuestAddr addr, bool materialize) const {
    const Vma* vma = FindVma(addr);
    return vma != nullptr ? FrameIn(*vma, addr, materialize) : nullptr;
  }
  static Page* WithOffset(Page* frame, GuestAddr addr, uint64_t* offset_in_page) {
    if (frame != nullptr && offset_in_page != nullptr) {
      *offset_in_page = addr & kPageMask;
    }
    return frame;
  }

  // Read and Write, requiring `prot` of every VMA they cross.
  AccessResult ReadAs(GuestAddr addr, void* out, uint64_t len, uint32_t prot) const;
  AccessResult WriteAs(GuestAddr addr, const void* data, uint64_t len, uint32_t prot);

  // The page loop behind every access: hands `visit(frame, offset, n)` each
  // page-sized piece of [addr, addr+len) in order, with the piece's frame (null for
  // a hole when `!materialize`), until `visit` returns false. Faults at the first
  // piece whose VMA is missing or lacks `prot` (0 = any).
  template <typename Visit>
  AccessResult Walk(GuestAddr addr, uint64_t len, uint32_t prot, bool materialize,
                    Visit&& visit) const;

  // Splits VMAs so that `start` and `start+length` fall on VMA boundaries.
  void SplitAround(GuestAddr start, uint64_t length);

  std::map<GuestAddr, Vma> vmas_;  // Keyed by start address.
  // The last two VMAs FindVma found, replaced in turn. Accesses alternate between
  // two regions: on the perfbench workloads (seed 1) one entry misses 6-10% of
  // lookups, and two or four miss under 0.01%. Map nodes never move, and a split
  // only shrinks a node, so only an erase clears an entry.
  mutable std::array<const Vma*, 2> recent_vmas_{};
  mutable uint32_t next_recent_ = 0;
  // Frames in this space's private tables. Mutable: pages materialize inside
  // const accessors.
  mutable uint64_t private_resident_ = 0;
  mutable uint64_t peak_private_resident_ = 0;
};

template <typename Keep>
void AddressSpace::Discard(GuestAddr start, uint64_t length, bool shared, Keep&& keep) {
  GuestAddr end = start + length;
  auto it = vmas_.upper_bound(start);
  if (it != vmas_.begin() && std::prev(it)->second.end() > start) {
    --it;
  }
  for (; it != vmas_.end() && it->second.start < end; ++it) {
    const Vma& vma = it->second;
    if (vma.shared && !shared) {
      continue;
    }
    GuestAddr lo = std::max(start, vma.start);
    uint64_t pages = (std::min(end, vma.end()) - lo) >> kPageShift;
    uint64_t freed = vma.table->Release(vma.PageOf(lo), pages, keep);
    private_resident_ -= vma.private_table ? freed : 0;
  }
}

}  // namespace remon

#endif  // SRC_MEM_ADDRESS_SPACE_H_
