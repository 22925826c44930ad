#include "src/core/replication_buffer.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/kernel/futex.h"
#include "src/sim/check.h"

namespace remon {

namespace {
constexpr uint64_t kOffSignalsPending = 0;
}  // namespace

void RbView::SetSignalsPending(bool pending) {
  WriteU32(kOffSignalsPending, pending ? 1 : 0);
}

bool RbView::SignalsPending() const { return ReadU32(kOffSignalsPending) != 0; }

uint32_t RbView::ReadU32(uint64_t offset) const {
  uint32_t v = 0;
  REMON_CHECK(process_->mem().ReadUnchecked(base_ + offset, &v, 4).ok);
  return v;
}

uint64_t RbView::ReadU64(uint64_t offset) const {
  uint64_t v = 0;
  REMON_CHECK(process_->mem().ReadUnchecked(base_ + offset, &v, 8).ok);
  return v;
}

void RbView::WriteU32(uint64_t offset, uint32_t v) {
  REMON_CHECK(process_->mem().WriteUnchecked(base_ + offset, &v, 4).ok);
}

void RbView::WriteU64(uint64_t offset, uint64_t v) {
  REMON_CHECK(process_->mem().WriteUnchecked(base_ + offset, &v, 8).ok);
}

void RbView::WriteBytes(uint64_t offset, const void* data, uint64_t len) {
  REMON_CHECK(process_->mem().WriteUnchecked(base_ + offset, data, len).ok);
}

void RbView::ReadBytes(uint64_t offset, void* out, uint64_t len) const {
  REMON_CHECK(process_->mem().ReadUnchecked(base_ + offset, out, len).ok);
}

WaitQueue& RbView::WordQueue(FutexTable& futex, uint64_t offset) const {
  uint64_t off_in_page = 0;
  Page* frame = process_->mem().ResolveFrame(AddrOf(offset), &off_in_page);
  REMON_CHECK(frame != nullptr);
  return futex.QueueFor(frame, off_in_page);
}

WaitQueue& RbView::StateQueue(FutexTable& futex, uint64_t entry_off) const {
  return WordQueue(futex, entry_off + kRbOffState);
}

WaitQueue* RbView::FindWordQueue(FutexTable& futex, uint64_t offset) const {
  uint64_t off_in_page = 0;
  const Page* frame = process_->mem().ResidentFrame(AddrOf(offset), &off_in_page);
  return frame == nullptr ? nullptr : futex.Find(frame, off_in_page);
}

void RbView::WakeWord(FutexTable& futex, uint64_t offset) const {
  if (WaitQueue* q = FindWordQueue(futex, offset)) {
    q->Wake();
  }
}

void RbView::WakeState(FutexTable& futex, uint64_t entry_off) const {
  WakeWord(futex, entry_off + kRbOffState);
}

void RbView::Zero(FutexTable& futex, uint64_t offset, uint64_t len) {
  static const uint8_t kZeros[kPageSize] = {0};
  AddressSpace& mem = process_->mem();
  GuestAddr begin = base_ + offset;
  GuestAddr end = begin + len;
  GuestAddr head_end = std::min(PageAlignUp(begin), end);
  GuestAddr tail_begin = std::max(PageAlignDown(end), head_end);
  // A partial edge page also holds a rank header or the neighbouring rank's
  // entries: only the range's own bytes are zeroed. A page no mapping ever
  // touched already reads as zeroes; writing them would only fault it in (a
  // mid-lap replacement's mirror holds just its used tail).
  for (auto [from, to] : {std::pair{begin, head_end}, std::pair{tail_begin, end}}) {
    if (from < to && mem.PageMaterialized(from)) {
      WriteBytes(from - base_, kZeros, to - from);
    }
  }
  mem.Discard(head_end, tail_begin - head_end, /*shared=*/true, [&futex](const Page& frame) {
    // A waiter's key is its frame: freeing the frame would strand it.
    REMON_CHECK_MSG(!futex.Watches(&frame), "RB page freed under a futex waiter");
    return false;
  });
}

RbEntryHeader RbEntryOps::ReadHeader(const RbView& view, uint64_t entry_off) {
  RbEntryHeader h;
  h.state = view.ReadU32(entry_off + kRbOffState);
  h.waiters = view.ReadU32(entry_off + kRbOffWaiters);
  h.sysno = view.ReadU32(entry_off + kRbOffSysno);
  h.flags = view.ReadU32(entry_off + kRbOffFlags);
  h.total_size = view.ReadU64(entry_off + kRbOffTotalSize);
  h.seq = view.ReadU64(entry_off + kRbOffSeq);
  h.result = static_cast<int64_t>(view.ReadU64(entry_off + kRbOffResult));
  h.sig_len = view.ReadU64(entry_off + kRbOffSigLen);
  h.out_len = view.ReadU64(entry_off + kRbOffOutLen);
  return h;
}

void RbEntryOps::CommitArgs(RbView& view, uint64_t entry_off, Sys nr, uint32_t flags,
                            uint64_t seq, uint64_t total_size,
                            const std::vector<uint8_t>& signature) {
  // kRbOffWaiters is deliberately left alone: the data area is zeroed at every ring
  // reset and slots are written once per lap, so the word is already 0 unless a
  // slave ran ahead and registered on this still-empty entry — a count the
  // results publication must see, or its FUTEX_WAKE gets elided under that waiter.
  view.WriteU32(entry_off + kRbOffSysno, static_cast<uint32_t>(nr));
  view.WriteU32(entry_off + kRbOffFlags, flags);
  view.WriteU64(entry_off + kRbOffTotalSize, total_size);
  view.WriteU64(entry_off + kRbOffSeq, seq);
  view.WriteU64(entry_off + kRbOffSigLen, signature.size());
  view.WriteU64(entry_off + kRbOffOutLen, 0);
  if (!signature.empty()) {
    view.WriteBytes(entry_off + kRbEntryHeaderSize, signature.data(), signature.size());
  }
  view.WriteU32(entry_off + kRbOffState, kRbArgsReady);
}

uint32_t RbEntryOps::CommitResults(RbView& view, uint64_t entry_off, int64_t result,
                                   const std::vector<uint8_t>& payload) {
  uint64_t sig_len = view.ReadU64(entry_off + kRbOffSigLen);
  view.WriteU64(entry_off + kRbOffResult, static_cast<uint64_t>(result));
  view.WriteU64(entry_off + kRbOffOutLen, payload.size());
  if (!payload.empty()) {
    view.WriteBytes(entry_off + kRbEntryHeaderSize + sig_len, payload.data(), payload.size());
  }
  uint32_t waiters = view.ReadU32(entry_off + kRbOffWaiters);
  // State flip last: slaves poll/wait on this word.
  view.WriteU32(entry_off + kRbOffState, kRbResultsReady);
  return waiters;
}

std::vector<uint8_t> RbEntryOps::ReadSignature(const RbView& view, uint64_t entry_off) {
  uint64_t len = view.ReadU64(entry_off + kRbOffSigLen);
  std::vector<uint8_t> out(len);
  if (len > 0) {
    view.ReadBytes(entry_off + kRbEntryHeaderSize, out.data(), len);
  }
  return out;
}

std::vector<uint8_t> RbEntryOps::ReadPayload(const RbView& view, uint64_t entry_off) {
  uint64_t sig_len = view.ReadU64(entry_off + kRbOffSigLen);
  uint64_t len = view.ReadU64(entry_off + kRbOffOutLen);
  std::vector<uint8_t> out(len);
  if (len > 0) {
    view.ReadBytes(entry_off + kRbEntryHeaderSize + sig_len, out.data(), len);
  }
  return out;
}

RbWireEntry RbEntryOps::ReadRecord(const RbView& view, uint64_t entry_off,
                                   uint32_t state) {
  uint64_t sig_len = view.ReadU64(entry_off + kRbOffSigLen);
  uint64_t out_len = state == kRbArgsReady ? 0 : view.ReadU64(entry_off + kRbOffOutLen);
  RbWireEntry e;
  e.entry_off = entry_off;
  e.final_state = state;
  if (state == kRbResultsOnly) {
    e.image.resize(kRbEntryHeaderSize + out_len);
    view.ReadBytes(entry_off, e.image.data(), kRbEntryHeaderSize);
    view.ReadBytes(entry_off + kRbEntryHeaderSize + sig_len,
                   e.image.data() + kRbEntryHeaderSize, out_len);
    return e;
  }
  e.image.resize(kRbEntryHeaderSize + sig_len + out_len);
  view.ReadBytes(entry_off, e.image.data(), e.image.size());
  return e;
}

namespace {

uint64_t ImageU64(const RbWireEntry& e, uint64_t off) {
  uint64_t v = 0;
  std::memcpy(&v, e.image.data() + off, 8);
  return v;
}

// True when the mirror already holds exactly what `e` would write at `at`.
bool MirrorHolds(const RbView& view, uint64_t at, const uint8_t* bytes, uint64_t len) {
  std::vector<uint8_t> held(len);
  view.ReadBytes(at, held.data(), len);
  return std::memcmp(held.data(), bytes, len) == 0;
}

}  // namespace

bool RbEntryOps::ReplayRecord(RbView& view, FutexTable& futex, uint32_t rank,
                              const RbWireEntry& e) {
  if (rank >= static_cast<uint32_t>(view.max_ranks())) {
    return false;
  }
  uint64_t data_end = view.RankDataEnd(static_cast<int>(rank));
  if (e.image.size() < kRbEntryHeaderSize ||
      e.entry_off < view.RankDataStart(static_cast<int>(rank)) ||
      e.entry_off > data_end ||
      // Subtraction form: `entry_off + image.size()` could wrap and sneak a wild
      // write past the range check.
      e.image.size() > data_end - e.entry_off ||
      (e.final_state != kRbArgsReady && e.final_state != kRbResultsReady &&
       e.final_state != kRbResultsOnly)) {
    return false;
  }
  const uint8_t* words = e.image.data() + kRbOffSysno;
  const uint64_t words_len = kRbEntryHeaderSize - kRbOffSysno;
  uint32_t held = view.ReadU32(e.entry_off + kRbOffState);
  if (e.final_state == kRbResultsOnly) {
    // The signature is already in the mirror: the args-ready record put it
    // there, so the entry must be args-ready with the same signature length, and
    // the out bytes must fill the image and fit the sub-buffer after it.
    uint64_t sig_len = ImageU64(e, kRbOffSigLen);
    uint64_t out_len = ImageU64(e, kRbOffOutLen);
    uint64_t out_room = data_end - e.entry_off - kRbEntryHeaderSize;
    if (held == kRbEmpty || view.ReadU64(e.entry_off + kRbOffSigLen) != sig_len ||
        out_len != e.image.size() - kRbEntryHeaderSize || sig_len > out_room ||
        out_len > out_room - sig_len) {
      return false;
    }
    uint64_t out_off = e.entry_off + kRbEntryHeaderSize + sig_len;
    if (held != kRbArgsReady) {
      // Replicas co-located on one machine share its mirror, so each agent
      // replays what the other already applied: only an exact replay passes.
      if (held != kRbResultsReady ||
          !MirrorHolds(view, e.entry_off + kRbOffSysno, words, words_len) ||
          !MirrorHolds(view, out_off, e.image.data() + kRbEntryHeaderSize, out_len)) {
        return false;
      }
      view.WakeState(futex, e.entry_off);
      return true;
    }
    view.WriteBytes(e.entry_off + kRbOffSysno, words, words_len);
    view.WriteBytes(out_off, e.image.data() + kRbEntryHeaderSize, out_len);
    view.WriteU32(e.entry_off + kRbOffState, kRbResultsReady);
    view.WakeState(futex, e.entry_off);
    return true;
  }
  // A full record the mirror is already at or past (a checkpoint's overlap entry,
  // or a co-located replica's agent that applied it first) writes nothing: an
  // args-ready body would roll back the result words of a results-ready entry.
  if (e.final_state > held) {
    view.WriteBytes(e.entry_off + kRbOffSysno, words, e.image.size() - kRbOffSysno);
    view.WriteU32(e.entry_off + kRbOffState, e.final_state);
  }
  view.WakeState(futex, e.entry_off);
  return true;
}

void RbEntryOps::AddWaiter(RbView& view, uint64_t entry_off) {
  view.WriteU32(entry_off + kRbOffWaiters, view.ReadU32(entry_off + kRbOffWaiters) + 1);
}

void RbEntryOps::RemoveWaiter(RbView& view, uint64_t entry_off) {
  uint32_t w = view.ReadU32(entry_off + kRbOffWaiters);
  if (w > 0) {
    view.WriteU32(entry_off + kRbOffWaiters, w - 1);
  }
}

}  // namespace remon
