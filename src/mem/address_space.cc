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
  // A page exists only inside a VMA, so the VMA check is the whole answer: mapping
  // stays O(log vmas), however long the region.
  return !VmaOverlaps(PageAlignDown(start), PageAlignUp(length + (start & kPageMask)));
}

Page* AddressSpace::FrameIn(const Vma& vma, GuestAddr addr, bool materialize) const {
  uint64_t page = vma.PageOf(addr);
  Page* frame = vma.table->Get(page);
  if (frame == nullptr && materialize) {
    frame = vma.table->Materialize(page);
    private_resident_ += vma.private_table ? 1 : 0;
    peak_private_resident_ = std::max(peak_private_resident_, private_resident_);
  }
  return frame;
}

template <typename Visit>
AccessResult AddressSpace::Walk(GuestAddr addr, uint64_t len, uint32_t prot, bool materialize,
                                Visit&& visit) const {
  while (len > 0) {
    const Vma* vma = FindVma(addr);
    // Checked before any frame is allocated: a denied access faults without
    // materializing the page.
    if (vma == nullptr || (vma->prot & prot) != prot) {
      return AccessResult::Fault(addr);
    }
    do {
      uint64_t off = addr & kPageMask;
      uint64_t n = std::min<uint64_t>(len, kPageSize - off);
      if (!visit(FrameIn(*vma, addr, materialize), off, n)) {
        return AccessResult::Ok();
      }
      addr += n;
      len -= n;
    } while (len > 0 && addr < vma->end());
  }
  return AccessResult::Ok();
}

bool AddressSpace::ValidateFixedRange(GuestAddr start, uint64_t length,
                                      uint64_t* len_out) const {
  if ((start & kPageMask) != 0 || length == 0 || !InUserRange(start, length)) {
    return false;
  }
  uint64_t len = PageAlignUp(length);
  if (!RangeFree(start, len)) {
    return false;
  }
  *len_out = len;
  return true;
}

bool AddressSpace::InUserRange(GuestAddr start, uint64_t length) {
  return start >= kUserLow && EndsInUserSpace(start, length);
}

bool AddressSpace::EndsInUserSpace(GuestAddr start, uint64_t length) {
  uint64_t len = PageAlignUp(length);
  return start <= kUserHigh && len >= length && len <= kUserHigh - start;
}

bool AddressSpace::MapFixed(GuestAddr start, uint64_t length, uint32_t prot, bool shared,
                            std::string_view name) {
  uint64_t len = 0;
  if (!ValidateFixedRange(start, length, &len)) {
    return false;
  }
  vmas_[start] = Vma{start, len, prot, shared, std::string(name),
                     std::make_shared<FrameTable>(len / kPageSize), 0, /*private_table=*/true};
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
  vmas_[start] = Vma{start, len, prot, /*shared=*/true, std::string(name), std::move(table),
                     first_page, /*private_table=*/false};
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
      tail.first_page = v.PageOf(edge);
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
  auto it = vmas_.lower_bound(start);
  while (it != vmas_.end() && it->second.start < start + len) {
    const Vma& vma = it->second;
    if (vma.private_table) {
      private_resident_ -= vma.table->Release(vma.first_page, vma.length / kPageSize);
    }
    std::ranges::replace(recent_vmas_, &vma, nullptr);
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
  // The range must be covered by VMAs without a gap.
  if (!Covers(start, len, kProtNone)) {
    return false;
  }
  SplitAround(start, len);
  for (auto it = vmas_.lower_bound(start); it != vmas_.end() && it->second.start < end; ++it) {
    it->second.prot = prot;
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
  if (new_len < old_len) {
    Unmap(old_start + new_len, old_len - new_len);
    return old_start;
  }
  // Grow in place when the tail is free. The table pages under a free tail hold no
  // frame: an unmap released them, or nothing ever touched them.
  Vma& vma = it->second;
  if (new_len > old_len) {
    if (!vma.private_table || !RangeFree(old_start + old_len, new_len - old_len)) {
      return 0;  // A shared table's size is fixed; an occupied tail stays put.
    }
    vma.table->Resize(std::max(vma.table->size(), vma.first_page + new_len / kPageSize));
    vma.length = new_len;
  }
  return old_start;
}

AccessResult AddressSpace::ReadAs(GuestAddr addr, void* out, uint64_t len,
                                  uint32_t prot) const {
  uint8_t* dst = static_cast<uint8_t*>(out);
  // A hole reads as zeroes without becoming resident: a read sweep over a large
  // region must not materialize it.
  return Walk(addr, len, prot, /*materialize=*/false,
              [&dst](const Page* frame, uint64_t off, uint64_t n) {
                if (frame != nullptr) {
                  std::memcpy(dst, frame->bytes.data() + off, n);
                } else {
                  std::memset(dst, 0, n);
                }
                dst += n;
                return true;
              });
}

AccessResult AddressSpace::WriteAs(GuestAddr addr, const void* data, uint64_t len,
                                   uint32_t prot) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  return Walk(addr, len, prot, /*materialize=*/true,
              [&src](Page* frame, uint64_t off, uint64_t n) {
                std::memcpy(frame->bytes.data() + off, src, n);
                src += n;
                return true;
              });
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
  // Page by page, so a string faults only if a page before its NUL is unreadable.
  AccessResult r = Walk(addr, max_len, kProtRead, /*materialize=*/false,
                        [&out](const Page* frame, uint64_t off, uint64_t n) {
                          if (frame == nullptr) {
                            return false;  // A hole reads as zeroes: the string ends.
                          }
                          const char* chars =
                              reinterpret_cast<const char*>(frame->bytes.data()) + off;
                          const void* nul = std::memchr(chars, '\0', n);
                          out.append(chars, nul != nullptr ? static_cast<const char*>(nul) - chars
                                                           : n);
                          return nul == nullptr;
                        });
  if (!r.ok) {
    return std::nullopt;
  }
  return out;  // Truncated at max_len when no NUL came first.
}

const Vma* AddressSpace::FindVma(GuestAddr addr) const {
  for (const Vma* vma : recent_vmas_) {
    if (vma != nullptr && addr - vma->start < vma->length) {
      return vma;
    }
  }
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) {
    return nullptr;
  }
  --it;
  if (addr >= it->second.start && addr < it->second.end()) {
    recent_vmas_[next_recent_++ % recent_vmas_.size()] = &it->second;
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

std::vector<Vma> AddressSpace::Vmas() const {
  std::vector<Vma> out;
  out.reserve(vmas_.size());
  for (const auto& [start, vma] : vmas_) {
    out.push_back(vma);
  }
  return out;
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

}  // namespace remon
