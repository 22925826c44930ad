// Per-process virtual address space: page table + VMA list.
//
// Responsibilities:
//  * mapping/unmapping/protecting regions (mmap/munmap/mprotect/brk semantics),
//  * permission-checked reads and writes used by guests, the kernel, and the monitors,
//  * /proc/<pid>/maps rendering (GHUMVEE filters this to hide IP-MON and the RB),
//  * exposing backing frames so futex keys and shared mappings work across processes.

#ifndef SRC_MEM_ADDRESS_SPACE_H_
#define SRC_MEM_ADDRESS_SPACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/mem/page.h"

namespace remon {

// A mapped region.
struct Vma {
  GuestAddr start = 0;
  uint64_t length = 0;  // Always page-aligned.
  uint32_t prot = kProtNone;
  bool shared = false;  // MAP_SHARED-like: writes are visible through other mappings.
  std::string name;     // Region label, shown in /proc/maps ("[heap]", "libipmon", ...).
  // Demand-paged region: backing frames materialize on first touch instead of at
  // map time. Large private regions (heap, stacks, text) use this so creating a
  // replica process costs VMA bookkeeping, not tens of MiB of zeroed frames.
  bool lazy = false;
  // Shared lazy region (a System V attach): page i of the VMA is slot
  // `backing_page + i` of `backing`, materialized there for every attacher. Null
  // for private lazy regions, whose frames live only in this page table.
  std::shared_ptr<FrameTable> backing = nullptr;
  uint64_t backing_page = 0;

  GuestAddr end() const { return start + length; }
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

  // Maps `length` bytes (rounded up to pages) at exactly `start` (page-aligned).
  // Fails (returns false) if any page in the range is already mapped.
  bool MapFixed(GuestAddr start, uint64_t length, uint32_t prot, bool shared,
                std::string_view name);

  // Like MapFixed, but demand-paged: no frames are allocated until a page is first
  // written or its frame resolved; a read of an untouched page returns zeroes and
  // allocates nothing. The frames are private to this address space.
  bool MapFixedLazy(GuestAddr start, uint64_t length, uint32_t prot,
                    std::string_view name);

  // Demand-paged shared mapping (shmat): pages [first_page, first_page + pages) of
  // `table` back the range. A page one attacher materializes is the same frame in
  // every other mapping of the table, including futex keys.
  bool MapShared(GuestAddr start, uint64_t length, uint32_t prot, std::string_view name,
                 std::shared_ptr<FrameTable> table, uint64_t first_page);

  // Maps with existing, already-allocated frames (IP-MON's file map). `frames`
  // must cover the rounded-up length.
  bool MapFixedBacked(GuestAddr start, uint64_t length, uint32_t prot, bool shared,
                      std::string_view name, const std::vector<PageRef>& frames);

  // Finds a free gap of `length` bytes at or below `hint`, searching downward.
  // Returns 0 when no gap exists.
  GuestAddr FindFreeRange(GuestAddr hint, uint64_t length) const;

  // Unmaps [start, start+length). Unmapping unmapped pages is a no-op (POSIX).
  void Unmap(GuestAddr start, uint64_t length);

  // Changes protection on [start, start+length). Returns false if any page in the
  // range is unmapped.
  bool Protect(GuestAddr start, uint64_t length, uint32_t prot);

  // Remaps a region to a new size in place when possible; returns new start or 0.
  // A shared-table mapping cannot grow: the segment's size is fixed.
  GuestAddr Remap(GuestAddr old_start, uint64_t old_len, uint64_t new_len);

  // --- Access -------------------------------------------------------------------

  AccessResult Read(GuestAddr addr, void* out, uint64_t len) const;
  AccessResult Write(GuestAddr addr, const void* data, uint64_t len);

  // True when VMAs granting `prot` cover [addr, addr+len) without a gap. Touches no
  // page: the kernel checks a write's source with it before sizing a buffer by it.
  bool Covers(GuestAddr addr, uint64_t len, uint32_t prot) const;

  // Access that ignores page protections (used by ptrace-style monitor access, which
  // goes through the kernel and may inspect read-protected pages).
  AccessResult ReadUnchecked(GuestAddr addr, void* out, uint64_t len) const;
  AccessResult WriteUnchecked(GuestAddr addr, const void* data, uint64_t len);

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
  std::optional<std::vector<uint8_t>> ReadBytes(GuestAddr addr, uint64_t len) const;

  // --- Introspection --------------------------------------------------------------

  // Returns the VMA containing `addr`, if any.
  const Vma* FindVma(GuestAddr addr) const;
  // Returns the first VMA whose name is `name`, if any.
  const Vma* FindVmaByName(std::string_view name) const;
  // All VMAs in address order.
  std::vector<Vma> Vmas() const;

  // True when the page containing `addr` has a backing frame — in this page table
  // or, for a shared mapping, in its segment's table. Unlike ResolveFrame, this
  // never materializes a lazy page — snapshot capture uses it to record lazy holes
  // as holes instead of forcing the whole region resident.
  bool PageMaterialized(GuestAddr addr) const;

  // Resolves an address to its backing frame; nullptr when unmapped. Used for futex
  // keys (shared frames give shared keys) and zero-copy page sharing.
  Page* ResolveFrame(GuestAddr addr, uint64_t* offset_in_page) const;
  // The frame backing `addr` if it is resident — in this page table or, for a
  // shared mapping, in its segment — else nullptr. Never materializes a page: a
  // futex wake looks its key up with it, since nobody waits on an untouched word.
  Page* ResidentFrame(GuestAddr addr, uint64_t* offset_in_page) const;

  // Renders /proc/<pid>/maps content.
  std::string RenderMaps() const;

  // Bytes of the pages this address space has touched (its page table), the
  // simulated resident set: shared pages count in every space that used them.
  uint64_t mapped_bytes() const;

 private:
  struct PageEntry {
    PageRef frame;
    uint32_t prot = kProtNone;
  };

  bool RangeFree(GuestAddr start, uint64_t length) const;

  // Shared validation prologue of the MapFixed* entry points: page-aligned start,
  // non-empty, inside the user range, and free. On success *len_out holds the
  // page-rounded length.
  bool ValidateFixedRange(GuestAddr start, uint64_t length, uint64_t* len_out) const;

  // True when [start, start+length) intersects any VMA (materialized or lazy).
  bool VmaOverlaps(GuestAddr start, uint64_t length) const;

  // Installs the backing frame of an untouched page of a lazy VMA: the shared
  // table's frame (allocated there if no attacher has yet) or a fresh private one.
  // Returns null if the address has no lazy VMA or the VMA lacks `required_prot`
  // (0 = any). Const because demand paging is transparent to callers (page_table_
  // is the cache it fills).
  Page* MaterializeIfLazy(GuestAddr addr, uint32_t required_prot = 0) const;

  // The shared-table frame already backing `addr`, or null (private VMA, or no
  // attacher has materialized the page). Never allocates.
  static const PageRef* SharedFrame(const Vma& vma, GuestAddr addr);

  using PageTable = std::unordered_map<uint64_t, PageEntry>;  // Keyed by VPN.

  // Page-table miss on a read: installs the frame another attacher of `vma`'s
  // shared table already materialized. Returns page_table_.end() when the page
  // is still a hole (it reads as zeroes).
  PageTable::iterator InstallSharedFrame(const Vma& vma, GuestAddr addr) const;

  // Splits VMAs so that `start` and `start+length` fall on VMA boundaries.
  void SplitAround(GuestAddr start, uint64_t length);

  std::map<GuestAddr, Vma> vmas_;  // Keyed by start address.
  // Mutable: lazy VMAs materialize frames inside const accessors.
  mutable PageTable page_table_;
};

}  // namespace remon

#endif  // SRC_MEM_ADDRESS_SPACE_H_
