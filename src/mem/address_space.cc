#include "src/mem/address_space.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/sim/check.h"

namespace remon {

namespace {

// The simulated user address space spans [kUserLow, kUserHigh).
constexpr GuestAddr kUserLow = 0x10000;
constexpr GuestAddr kUserHigh = 0x7fff'ffff'f000ULL;

}  // namespace

bool AddressSpace::VmaOverlaps(GuestAddr start, uint64_t length) const {
  auto it = vmas_.lower_bound(start);
  if (it != vmas_.end() && it->second.start < start + length) {
    return true;
  }
  if (it != vmas_.begin()) {
    --it;
    if (it->second.end() > start) {
      return true;
    }
  }
  return false;
}

bool AddressSpace::RangeFree(GuestAddr start, uint64_t length) const {
  // The VMA check alone is authoritative: every page-table insertion
  // (MapFixedBacked, Remap's grow, MaterializeIfLazy) maintains a covering VMA and
  // Unmap erases pages and VMAs over the same split-aligned range, so a page
  // without a VMA cannot exist. No per-page scan — mapping a lazy region must stay
  // O(log vmas), not O(pages).
  return !VmaOverlaps(PageAlignDown(start), PageAlignUp(length + (start & kPageMask)));
}

Page* AddressSpace::MaterializeIfLazy(GuestAddr addr, uint32_t required_prot) const {
  const Vma* vma = FindVma(addr);
  if (vma == nullptr || !vma->lazy) {
    return nullptr;
  }
  // Check the VMA protection before allocating: a denied access must fault without
  // materializing the page, or probing a read-only lazy region with writes would
  // make every probed page resident.
  if ((vma->prot & required_prot) != required_prot) {
    return nullptr;
  }
  PageEntry& entry = page_table_[addr >> kPageShift];
  entry.frame = vma->backing != nullptr
                    ? vma->backing->Materialize(vma->backing_page +
                                                ((addr - vma->start) >> kPageShift))
                    : NewPage();
  entry.prot = vma->prot;
  return entry.frame.get();
}

const PageRef* AddressSpace::SharedFrame(const Vma& vma, GuestAddr addr) {
  if (vma.backing == nullptr) {
    return nullptr;
  }
  const PageRef& frame = vma.backing->Get(vma.backing_page + ((addr - vma.start) >> kPageShift));
  return frame != nullptr ? &frame : nullptr;
}

bool AddressSpace::MapFixed(GuestAddr start, uint64_t length, uint32_t prot, bool shared,
                            std::string_view name) {
  uint64_t len = PageAlignUp(length);
  std::vector<PageRef> frames;
  frames.reserve(len / kPageSize);
  for (uint64_t i = 0; i < len / kPageSize; ++i) {
    frames.push_back(NewPage());
  }
  return MapFixedBacked(start, length, prot, shared, name, frames);
}

bool AddressSpace::ValidateFixedRange(GuestAddr start, uint64_t length,
                                      uint64_t* len_out) const {
  if ((start & kPageMask) != 0 || length == 0) {
    return false;
  }
  uint64_t len = PageAlignUp(length);
  if (start < kUserLow || start + len > kUserHigh) {
    return false;
  }
  if (!RangeFree(start, len)) {
    return false;
  }
  *len_out = len;
  return true;
}

bool AddressSpace::MapFixedLazy(GuestAddr start, uint64_t length, uint32_t prot,
                                std::string_view name) {
  uint64_t len = 0;
  if (!ValidateFixedRange(start, length, &len)) {
    return false;
  }
  Vma vma{start, len, prot, /*shared=*/false, std::string(name)};
  vma.lazy = true;
  vmas_[start] = std::move(vma);
  return true;
}

bool AddressSpace::MapShared(GuestAddr start, uint64_t length, uint32_t prot,
                             std::string_view name, std::shared_ptr<FrameTable> table,
                             uint64_t first_page) {
  uint64_t len = 0;
  if (!ValidateFixedRange(start, length, &len)) {
    return false;
  }
  REMON_CHECK(table != nullptr && first_page + len / kPageSize <= table->size());
  Vma vma{start, len, prot, /*shared=*/true, std::string(name)};
  vma.lazy = true;
  vma.backing = std::move(table);
  vma.backing_page = first_page;
  vmas_[start] = std::move(vma);
  return true;
}

bool AddressSpace::MapFixedBacked(GuestAddr start, uint64_t length, uint32_t prot, bool shared,
                                  std::string_view name, const std::vector<PageRef>& frames) {
  uint64_t len = 0;
  if (!ValidateFixedRange(start, length, &len)) {
    return false;
  }
  REMON_CHECK(frames.size() >= len / kPageSize);
  for (uint64_t i = 0; i < len / kPageSize; ++i) {
    page_table_[(start >> kPageShift) + i] = PageEntry{frames[i], prot};
  }
  vmas_[start] = Vma{start, len, prot, shared, std::string(name)};
  return true;
}

GuestAddr AddressSpace::FindFreeRange(GuestAddr hint, uint64_t length) const {
  uint64_t len = PageAlignUp(length);
  GuestAddr candidate = PageAlignDown(hint);
  // Search downward from the hint; this mirrors Linux's legacy top-down mmap layout
  // closely enough for layout-randomization purposes.
  while (candidate >= kUserLow + len) {
    if (RangeFree(candidate, len)) {
      return candidate;
    }
    // Skip below the VMA that overlaps the candidate to avoid quadratic probing.
    auto it = vmas_.upper_bound(candidate + len - 1);
    GuestAddr next = candidate - kPageSize;
    if (it != vmas_.begin()) {
      --it;
      if (it->second.end() > candidate) {
        if (it->second.start < len + kUserLow) {
          return 0;
        }
        next = it->second.start - len;
      }
    }
    candidate = PageAlignDown(next);
  }
  return 0;
}

void AddressSpace::SplitAround(GuestAddr start, uint64_t length) {
  GuestAddr end = start + length;
  for (GuestAddr edge : {start, end}) {
    auto it = vmas_.upper_bound(edge);
    if (it == vmas_.begin()) {
      continue;
    }
    --it;
    Vma& v = it->second;
    if (v.start < edge && edge < v.end()) {
      Vma tail = v;
      tail.start = edge;
      tail.length = v.end() - edge;
      tail.backing_page = v.backing_page + ((edge - v.start) >> kPageShift);
      v.length = edge - v.start;
      vmas_[edge] = tail;
    }
  }
}

void AddressSpace::Unmap(GuestAddr start, uint64_t length) {
  if (length == 0) {
    return;
  }
  start = PageAlignDown(start);
  uint64_t len = PageAlignUp(length);
  SplitAround(start, len);
  for (GuestAddr p = start; p < start + len; p += kPageSize) {
    page_table_.erase(p >> kPageShift);
  }
  auto it = vmas_.lower_bound(start);
  while (it != vmas_.end() && it->second.start < start + len) {
    it = vmas_.erase(it);
  }
}

bool AddressSpace::Protect(GuestAddr start, uint64_t length, uint32_t prot) {
  if (length == 0) {
    return true;
  }
  start = PageAlignDown(start);
  uint64_t len = PageAlignUp(length);
  GuestAddr end = start + len;

  // Validate at VMA granularity: the range must be contiguously covered by VMAs
  // (every page-table insertion maintains a covering VMA, so a gap in VMA coverage
  // is exactly "some page in the range is unmapped"). O(VMAs in range) — never a
  // page walk, however large a lazy region is.
  GuestAddr pos = start;
  auto cover = vmas_.upper_bound(start);
  if (cover != vmas_.begin()) {
    auto prev = std::prev(cover);
    if (prev->second.end() > start) {
      cover = prev;
    }
  }
  bool any_lazy = false;
  while (pos < end) {
    if (cover == vmas_.end() || cover->second.start > pos) {
      return false;
    }
    any_lazy |= cover->second.lazy;
    pos = cover->second.end();
    ++cover;
  }

  SplitAround(start, len);

  // Update materialized pages only. A range touching a lazy VMA may be sparsely
  // populated, so walk the page table (O(resident pages of this address space))
  // when that is cheaper than iterating the range (O(range pages)) — a small
  // mprotect over a lazy guard region must not scan a process's every resident
  // page, and a huge lazy range must not be walked page by page.
  if (any_lazy && len / kPageSize > page_table_.size()) {
    for (auto& [vpn, entry] : page_table_) {
      GuestAddr addr = vpn << kPageShift;
      if (addr >= start && addr < end) {
        entry.prot = prot;
      }
    }
  } else {
    for (GuestAddr p = start; p < end; p += kPageSize) {
      auto it = page_table_.find(p >> kPageShift);
      if (it != page_table_.end()) {
        it->second.prot = prot;
      }
    }
  }
  // Untouched lazy pages inherit the new protection from their VMA when they
  // materialize.
  auto it = vmas_.lower_bound(start);
  while (it != vmas_.end() && it->second.start < end) {
    it->second.prot = prot;
    ++it;
  }
  return true;
}

GuestAddr AddressSpace::Remap(GuestAddr old_start, uint64_t old_len, uint64_t new_len) {
  old_len = PageAlignUp(old_len);
  new_len = PageAlignUp(new_len);
  auto it = vmas_.find(old_start);
  if (it == vmas_.end() || it->second.length != old_len) {
    return 0;
  }
  if (new_len == old_len) {
    return old_start;
  }
  Vma vma = it->second;
  if (new_len < old_len) {
    Unmap(old_start + new_len, old_len - new_len);
    vmas_[old_start].length = new_len;
    return old_start;
  }
  if (vma.backing != nullptr) {
    return 0;  // The segment's size is fixed; growing would append private frames.
  }
  // Grow in place when the tail is free.
  if (RangeFree(old_start + old_len, new_len - old_len)) {
    if (!vma.lazy) {
      for (GuestAddr p = old_start + old_len; p < old_start + new_len; p += kPageSize) {
        page_table_[p >> kPageShift] = PageEntry{NewPage(), vma.prot};
      }
    }  // Lazy regions materialize the grown tail on first touch.
    vmas_[old_start].length = new_len;
    return old_start;
  }
  return 0;
}

AccessResult AddressSpace::Read(GuestAddr addr, void* out, uint64_t len) const {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    uint64_t off = addr & kPageMask;
    uint64_t n = std::min<uint64_t>(len, kPageSize - off);
    auto it = page_table_.find(addr >> kPageShift);
    if (it == page_table_.end()) {
      const Vma* vma = FindVma(addr);
      if (vma == nullptr || !vma->lazy || (vma->prot & kProtRead) == 0) {
        return AccessResult::Fault(addr);
      }
      it = InstallSharedFrame(*vma, addr);
    }
    if (it == page_table_.end()) {
      // Untouched lazy pages read as zeroes without becoming resident — a read
      // sweep over a large lazy region must not materialize it.
      std::memset(dst, 0, n);
    } else {
      if ((it->second.prot & kProtRead) == 0) {
        return AccessResult::Fault(addr);
      }
      std::memcpy(dst, it->second.frame->bytes.data() + off, n);
    }
    dst += n;
    addr += n;
    len -= n;
  }
  return AccessResult::Ok();
}

AccessResult AddressSpace::Write(GuestAddr addr, const void* data, uint64_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    auto it = page_table_.find(addr >> kPageShift);
    if (it == page_table_.end()) {
      if (MaterializeIfLazy(addr, kProtWrite) == nullptr) {
        return AccessResult::Fault(addr);
      }
      it = page_table_.find(addr >> kPageShift);
    }
    if ((it->second.prot & kProtWrite) == 0) {
      return AccessResult::Fault(addr);
    }
    uint64_t off = addr & kPageMask;
    uint64_t n = std::min<uint64_t>(len, kPageSize - off);
    std::memcpy(it->second.frame->bytes.data() + off, src, n);
    src += n;
    addr += n;
    len -= n;
  }
  return AccessResult::Ok();
}

AccessResult AddressSpace::ReadUnchecked(GuestAddr addr, void* out, uint64_t len) const {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    uint64_t off = addr & kPageMask;
    uint64_t n = std::min<uint64_t>(len, kPageSize - off);
    auto it = page_table_.find(addr >> kPageShift);
    if (it == page_table_.end()) {
      const Vma* vma = FindVma(addr);
      if (vma == nullptr || !vma->lazy) {
        return AccessResult::Fault(addr);
      }
      it = InstallSharedFrame(*vma, addr);
    }
    if (it == page_table_.end()) {
      // Unchecked bypasses protection but not mapping: lazy pages read as zeroes
      // without materializing (see Read).
      std::memset(dst, 0, n);
    } else {
      std::memcpy(dst, it->second.frame->bytes.data() + off, n);
    }
    dst += n;
    addr += n;
    len -= n;
  }
  return AccessResult::Ok();
}

AccessResult AddressSpace::WriteUnchecked(GuestAddr addr, const void* data, uint64_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    auto it = page_table_.find(addr >> kPageShift);
    if (it == page_table_.end()) {
      if (MaterializeIfLazy(addr) == nullptr) {
        return AccessResult::Fault(addr);
      }
      it = page_table_.find(addr >> kPageShift);
    }
    uint64_t off = addr & kPageMask;
    uint64_t n = std::min<uint64_t>(len, kPageSize - off);
    std::memcpy(it->second.frame->bytes.data() + off, src, n);
    src += n;
    addr += n;
    len -= n;
  }
  return AccessResult::Ok();
}

std::optional<uint64_t> AddressSpace::ReadU64(GuestAddr addr) const {
  uint64_t v = 0;
  if (!Read(addr, &v, sizeof(v)).ok) {
    return std::nullopt;
  }
  return v;
}

std::optional<uint32_t> AddressSpace::ReadU32(GuestAddr addr) const {
  uint32_t v = 0;
  if (!Read(addr, &v, sizeof(v)).ok) {
    return std::nullopt;
  }
  return v;
}

bool AddressSpace::WriteU64(GuestAddr addr, uint64_t v) { return Write(addr, &v, sizeof(v)).ok; }
bool AddressSpace::WriteU32(GuestAddr addr, uint32_t v) { return Write(addr, &v, sizeof(v)).ok; }

std::optional<std::string> AddressSpace::ReadCString(GuestAddr addr, uint64_t max_len) const {
  std::string out;
  for (uint64_t i = 0; i < max_len; ++i) {
    char c = 0;
    if (!Read(addr + i, &c, 1).ok) {
      return std::nullopt;
    }
    if (c == '\0') {
      return out;
    }
    out.push_back(c);
  }
  return out;  // Truncated at max_len.
}

std::optional<std::vector<uint8_t>> AddressSpace::ReadBytes(GuestAddr addr, uint64_t len) const {
  std::vector<uint8_t> out(len);
  if (!Read(addr, out.data(), len).ok) {
    return std::nullopt;
  }
  return out;
}

const Vma* AddressSpace::FindVma(GuestAddr addr) const {
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) {
    return nullptr;
  }
  --it;
  if (addr >= it->second.start && addr < it->second.end()) {
    return &it->second;
  }
  return nullptr;
}

bool AddressSpace::Covers(GuestAddr addr, uint64_t len, uint32_t prot) const {
  GuestAddr end = addr + len;
  if (end < addr) {
    return false;
  }
  while (addr < end) {
    const Vma* vma = FindVma(addr);
    if (vma == nullptr || (vma->prot & prot) != prot) {
      return false;
    }
    addr = vma->end();
  }
  return true;
}

const Vma* AddressSpace::FindVmaByName(std::string_view name) const {
  for (const auto& [start, vma] : vmas_) {
    if (vma.name == name) {
      return &vma;
    }
  }
  return nullptr;
}

std::vector<Vma> AddressSpace::Vmas() const {
  std::vector<Vma> out;
  out.reserve(vmas_.size());
  for (const auto& [start, vma] : vmas_) {
    out.push_back(vma);
  }
  return out;
}

bool AddressSpace::PageMaterialized(GuestAddr addr) const {
  if (page_table_.find(addr >> kPageShift) != page_table_.end()) {
    return true;
  }
  const Vma* vma = FindVma(addr);
  return vma != nullptr && SharedFrame(*vma, addr) != nullptr;
}

AddressSpace::PageTable::iterator AddressSpace::InstallSharedFrame(const Vma& vma,
                                                                   GuestAddr addr) const {
  const PageRef* frame = SharedFrame(vma, addr);
  if (frame == nullptr) {
    return page_table_.end();
  }
  return page_table_.emplace(addr >> kPageShift, PageEntry{*frame, vma.prot}).first;
}

Page* AddressSpace::ResolveFrame(GuestAddr addr, uint64_t* offset_in_page) const {
  auto it = page_table_.find(addr >> kPageShift);
  if (it == page_table_.end()) {
    // Futex keys and page sharing need a stable frame: materialize lazy pages.
    Page* frame = MaterializeIfLazy(addr);
    if (frame == nullptr) {
      return nullptr;
    }
    if (offset_in_page != nullptr) {
      *offset_in_page = addr & kPageMask;
    }
    return frame;
  }
  if (offset_in_page != nullptr) {
    *offset_in_page = addr & kPageMask;
  }
  return it->second.frame.get();
}

Page* AddressSpace::ResidentFrame(GuestAddr addr, uint64_t* offset_in_page) const {
  Page* frame = nullptr;
  auto it = page_table_.find(addr >> kPageShift);
  if (it != page_table_.end()) {
    frame = it->second.frame.get();
  } else if (const Vma* vma = FindVma(addr)) {
    const PageRef* shared = SharedFrame(*vma, addr);
    frame = shared != nullptr ? shared->get() : nullptr;
  }
  if (frame != nullptr && offset_in_page != nullptr) {
    *offset_in_page = addr & kPageMask;
  }
  return frame;
}

std::string AddressSpace::RenderMaps() const {
  std::ostringstream os;
  for (const auto& [start, vma] : vmas_) {
    char perms[5] = {
        (vma.prot & kProtRead) ? 'r' : '-',
        (vma.prot & kProtWrite) ? 'w' : '-',
        (vma.prot & kProtExec) ? 'x' : '-',
        vma.shared ? 's' : 'p',
        '\0',
    };
    char line[128];
    std::snprintf(line, sizeof(line), "%012llx-%012llx %s 00000000 00:00 0",
                  static_cast<unsigned long long>(vma.start),
                  static_cast<unsigned long long>(vma.end()), perms);
    os << line;
    if (!vma.name.empty()) {
      os << "                          " << vma.name;
    }
    os << "\n";
  }
  return os.str();
}

uint64_t AddressSpace::mapped_bytes() const {
  return static_cast<uint64_t>(page_table_.size()) * kPageSize;
}

}  // namespace remon
