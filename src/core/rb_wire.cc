#include "src/core/rb_wire.h"

#include <array>
#include <cstring>

#include "src/core/rb_auth.h"

namespace remon {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void PutU16(std::vector<uint8_t>* out, size_t off, uint16_t v) {
  std::memcpy(out->data() + off, &v, 2);
}

// Header field offsets (see the layout table in rb_wire.h).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffType = 6;
constexpr size_t kOffEpoch = 8;
constexpr size_t kOffRank = 12;
constexpr size_t kOffEntryCount = 16;
constexpr size_t kOffPayloadLen = 20;
constexpr size_t kOffFrameSeq = 24;
constexpr size_t kOffAckSeq = 32;

std::vector<uint8_t> BuildFrame(RbFrameType type, uint32_t epoch, uint32_t rank,
                                uint32_t entry_count, uint64_t frame_seq,
                                uint64_t ack_seq, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame(kRbWireHeaderSize + payload.size(), 0);
  PutU32(&frame, kOffMagic, kRbWireMagic);
  PutU16(&frame, kOffVersion, kRbWireVersion);
  PutU16(&frame, kOffType, static_cast<uint16_t>(type));
  PutU32(&frame, kOffEpoch, epoch);
  PutU32(&frame, kOffRank, rank);
  PutU32(&frame, kOffEntryCount, entry_count);
  PutU32(&frame, kOffPayloadLen, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, kOffFrameSeq, frame_seq);
  PutU64(&frame, kOffAckSeq, ack_seq);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kRbWireHeaderSize, payload.data(), payload.size());
  }
  // The tag bytes stay zero: RbAuthContext::SealFrame writes them.
  return frame;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::vector<uint8_t> RbWireCodec::EncodeEntriesPayload(
    const std::vector<RbWireEntry>& entries) {
  std::vector<uint8_t> payload;
  size_t total = 0;
  for (const RbWireEntry& e : entries) {
    total += kRbWireEntryHeaderSize + e.image.size();
  }
  payload.resize(total);
  size_t pos = 0;
  for (const RbWireEntry& e : entries) {
    PutU64(&payload, pos, e.entry_off);
    PutU32(&payload, pos + 8, e.final_state);
    PutU32(&payload, pos + 12, static_cast<uint32_t>(e.image.size()));
    if (!e.image.empty()) {
      std::memcpy(payload.data() + pos + kRbWireEntryHeaderSize, e.image.data(),
                  e.image.size());
    }
    pos += kRbWireEntryHeaderSize + e.image.size();
  }
  return payload;
}

const char* RbWireCodec::DecodeEntries(const uint8_t* data, size_t len, uint32_t count,
                                       std::vector<RbWireEntry>* out) {
  // Every record carries at least its 16-byte header: a count the bytes cannot
  // hold is refused before it can size an allocation.
  if (count > len / kRbWireEntryHeaderSize) {
    return "entry record overruns payload";
  }
  out->reserve(out->size() + count);
  size_t pos = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (pos + kRbWireEntryHeaderSize > len) {
      return "entry record overruns payload";
    }
    RbWireEntry e;
    std::memcpy(&e.entry_off, data + pos, 8);
    std::memcpy(&e.final_state, data + pos + 8, 4);
    uint32_t image_len = 0;
    std::memcpy(&image_len, data + pos + 12, 4);
    pos += kRbWireEntryHeaderSize;
    if (image_len > len - pos) {
      return "entry image overruns payload";
    }
    e.image.assign(data + pos, data + pos + image_len);
    pos += image_len;
    out->push_back(std::move(e));
  }
  return pos == len ? nullptr : "trailing entry payload bytes";
}

std::vector<uint8_t> RbWireCodec::FrameFromPayload(RbFrameType type, uint32_t epoch,
                                                   uint32_t rank, uint64_t frame_seq,
                                                   uint32_t count,
                                                   const std::vector<uint8_t>& payload) {
  return BuildFrame(type, epoch, rank, count, frame_seq, /*ack_seq=*/0, payload);
}

std::vector<uint8_t> RbWireCodec::EncodeEntries(uint32_t epoch, uint32_t rank,
                                                uint64_t frame_seq,
                                                const std::vector<RbWireEntry>& entries) {
  return FrameFromPayload(RbFrameType::kEntries, epoch, rank, frame_seq,
                          static_cast<uint32_t>(entries.size()),
                          EncodeEntriesPayload(entries));
}

std::vector<uint8_t> RbWireCodec::EncodeAck(uint32_t epoch, uint64_t ack_seq,
                                            uint64_t sync_cursor) {
  // The frame_seq field (meaningless for acks) carries the
  // replica's sync-log replay cursor so the leader's wrap gate runs on
  // acknowledged state only.
  return BuildFrame(RbFrameType::kAck, epoch, /*rank=*/0, /*entry_count=*/0,
                    /*frame_seq=*/sync_cursor, ack_seq, {});
}

std::vector<uint8_t> RbWireCodec::EncodeJoinAttest(uint32_t epoch,
                                                   uint32_t replica_index,
                                                   uint64_t config_digest,
                                                   uint64_t sync_cursor,
                                                   uint32_t machine) {
  std::vector<uint8_t> payload(kRbWireAttestPayloadSize, 0);
  PutU32(&payload, 0, replica_index);
  PutU64(&payload, 8, config_digest);
  PutU64(&payload, 16, sync_cursor);
  PutU32(&payload, 24, machine);
  return BuildFrame(RbFrameType::kJoinAttest, epoch, /*rank=*/replica_index,
                    /*entry_count=*/0, /*frame_seq=*/0, /*ack_seq=*/0, payload);
}

std::vector<uint8_t> RbWireCodec::EncodeSyncLogPayload(
    uint64_t start_index, const std::vector<RbSyncLogRecord>& records) {
  std::vector<uint8_t> payload(kRbWireSyncHeaderSize +
                                   records.size() * kRbWireSyncRecordSize,
                               0);
  PutU64(&payload, 0, start_index);
  size_t pos = kRbWireSyncHeaderSize;
  for (const RbSyncLogRecord& r : records) {
    PutU32(&payload, pos, r.object_id);
    PutU32(&payload, pos + 4, r.rank);
    pos += kRbWireSyncRecordSize;
  }
  return payload;
}

std::vector<uint8_t> RbWireCodec::EncodeSyncLog(
    uint32_t epoch, uint64_t frame_seq, uint64_t start_index,
    const std::vector<RbSyncLogRecord>& records) {
  // The sync log is replica-global, not per-rank; the header rank field is 0.
  return FrameFromPayload(RbFrameType::kSyncLog, epoch, /*rank=*/0, frame_seq,
                          static_cast<uint32_t>(records.size()),
                          EncodeSyncLogPayload(start_index, records));
}

void RbFrameParser::Feed(const uint8_t* data, size_t len) {
  if (corrupt_) {
    return;  // The stream is dead; don't accumulate unbounded garbage.
  }
  buf_.insert(buf_.end(), data, data + len);
}

uint16_t RbFrameParser::PeekU16(size_t off) const {
  return static_cast<uint16_t>(buf_[off]) |
         static_cast<uint16_t>(static_cast<uint16_t>(buf_[off + 1]) << 8);
}

uint32_t RbFrameParser::PeekU32(size_t off) const {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | buf_[off + static_cast<size_t>(i)];
  }
  return v;
}

uint64_t RbFrameParser::PeekU64(size_t off) const {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | buf_[off + static_cast<size_t>(i)];
  }
  return v;
}

RbFrameParser::Status RbFrameParser::Next(RbWireFrame* out) {
  if (corrupt_) {
    return Status::kCorrupt;
  }
  if (!HaveBytes(kRbWireHeaderSize)) {
    return Status::kNeedMore;
  }
  // Validate everything checkable from the header before waiting for the payload,
  // so garbage cannot demand 16 MiB of buffering first.
  if (PeekU32(kOffMagic) != kRbWireMagic || PeekU16(kOffVersion) != kRbWireVersion) {
    return Corrupt("bad magic/version");
  }
  uint16_t type = PeekU16(kOffType);
  if (type < static_cast<uint16_t>(RbFrameType::kEntries) ||
      type > static_cast<uint16_t>(RbFrameType::kJoinAttest)) {
    return Corrupt("unknown frame type");
  }
  uint32_t payload_len = PeekU32(kOffPayloadLen);
  if (payload_len > kRbWireMaxPayload) {
    return Corrupt("oversized payload");
  }
  size_t frame_len = kRbWireHeaderSize + payload_len;
  if (!HaveBytes(frame_len)) {
    return Status::kNeedMore;
  }

  // Contiguous copy for MAC + payload decoding (the deque is chunk-fragmented).
  // The tag is verified and the payload decrypted before any structural parsing.
  std::vector<uint8_t> frame(buf_.begin(),
                             buf_.begin() + static_cast<long>(frame_len));
  if (!auth_->VerifyAndOpen(&frame, auth_dir_)) {
    return Corrupt("MAC verification failed");
  }

  RbWireFrame f;
  f.version = PeekU16(kOffVersion);
  f.type = static_cast<RbFrameType>(type);
  f.epoch = PeekU32(kOffEpoch);
  f.rank = PeekU32(kOffRank);
  f.frame_seq = PeekU64(kOffFrameSeq);
  f.ack_seq = PeekU64(kOffAckSeq);
  uint32_t entry_count = PeekU32(kOffEntryCount);

  if (f.type == RbFrameType::kEntries) {
    if (const char* why = RbWireCodec::DecodeEntries(frame.data() + kRbWireHeaderSize,
                                                     payload_len, entry_count,
                                                     &f.entries)) {
      return Corrupt(why);
    }
  } else if (f.type == RbFrameType::kSyncLog) {
    // The payload must be exactly the announced records — a count/length mismatch
    // is structural corruption even under a valid MAC.
    if (entry_count == 0 ||
        payload_len != kRbWireSyncHeaderSize +
                           static_cast<uint64_t>(entry_count) * kRbWireSyncRecordSize) {
      return Corrupt("sync-log count/length mismatch");
    }
    std::memcpy(&f.sync_start, frame.data() + kRbWireHeaderSize, 8);
    f.sync_records.reserve(entry_count);
    size_t pos = kRbWireHeaderSize + kRbWireSyncHeaderSize;
    for (uint32_t i = 0; i < entry_count; ++i) {
      RbSyncLogRecord r;
      std::memcpy(&r.object_id, frame.data() + pos, 4);
      std::memcpy(&r.rank, frame.data() + pos + 4, 4);
      f.sync_records.push_back(r);
      pos += kRbWireSyncRecordSize;
    }
  } else if (IsSnapshotFrameType(f.type)) {
    if (entry_count != 0) {
      return Corrupt("snapshot frame carries entries");
    }
    f.payload.assign(frame.begin() + static_cast<long>(kRbWireHeaderSize), frame.end());
  } else if (f.type == RbFrameType::kJoinAttest) {
    if (entry_count != 0 || payload_len != kRbWireAttestPayloadSize) {
      return Corrupt("malformed join attestation");
    }
    std::memcpy(&f.attest_replica, frame.data() + kRbWireHeaderSize, 4);
    std::memcpy(&f.attest_digest, frame.data() + kRbWireHeaderSize + 8, 8);
    std::memcpy(&f.attest_cursor, frame.data() + kRbWireHeaderSize + 16, 8);
    std::memcpy(&f.attest_machine, frame.data() + kRbWireHeaderSize + 24, 4);
  } else if (entry_count != 0 || payload_len != 0) {
    return Corrupt("ack frame carries payload");
  } else {
    // Acks carry the sender's sync-log replay cursor in the frame_seq field;
    // surface it separately and keep frame_seq's data-frame meaning clean.
    f.ack_cursor = f.frame_seq;
    f.frame_seq = 0;
  }

  buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(frame_len));
  ++frames_decoded_;
  *out = std::move(f);
  return Status::kFrame;
}

}  // namespace remon
