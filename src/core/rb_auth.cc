#include "src/core/rb_auth.h"

#include <cstring>

#include "src/core/rb_wire.h"

namespace remon {

namespace {

// Header field offsets the sealing path needs (normative layout in
// docs/RB_WIRE_FORMAT.md; rb_wire.cc carries the full set).
constexpr size_t kOffType = 6;
constexpr size_t kOffEpoch = 8;
constexpr size_t kOffFrameSeq = 24;
constexpr size_t kOffTag = 40;  // The frame trailer: 8 contiguous bytes.
constexpr size_t kTagSize = 8;

// Domain-separation constants for the KDF and the two SipHash roles.
constexpr uint64_t kDomainMaster0 = 0x52424155u;   // "RBAU"
constexpr uint64_t kDomainMaster1 = 0x54485f4bu;   // "TH_K"
constexpr uint64_t kDomainEpochK0 = 0x65706b30u;   // "epk0"
constexpr uint64_t kDomainEpochK1 = 0x65706b31u;   // "epk1"
constexpr uint64_t kDomainTag = 0x7461675fu;       // "tag_"
constexpr uint64_t kDomainStream = 0x7374726du;    // "strm"

uint64_t Rotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

void SipRound(uint64_t& v0, uint64_t& v1, uint64_t& v2, uint64_t& v3) {
  v0 += v1;
  v1 = Rotl(v1, 13);
  v1 ^= v0;
  v0 = Rotl(v0, 32);
  v2 += v3;
  v3 = Rotl(v3, 16);
  v3 ^= v2;
  v0 += v3;
  v3 = Rotl(v3, 21);
  v3 ^= v0;
  v2 += v1;
  v1 = Rotl(v1, 17);
  v1 ^= v2;
  v2 = Rotl(v2, 32);
}

}  // namespace

uint64_t SipHash24(uint64_t k0, uint64_t k1, const void* data, size_t len) {
  const uint8_t* in = static_cast<const uint8_t*>(data);
  uint64_t v0 = k0 ^ 0x736f6d6570736575ull;
  uint64_t v1 = k1 ^ 0x646f72616e646f6dull;
  uint64_t v2 = k0 ^ 0x6c7967656e657261ull;
  uint64_t v3 = k1 ^ 0x7465646279746573ull;
  const size_t whole = len & ~size_t{7};
  for (size_t i = 0; i < whole; i += 8) {
    uint64_t m = 0;
    std::memcpy(&m, in + i, 8);
    v3 ^= m;
    SipRound(v0, v1, v2, v3);
    SipRound(v0, v1, v2, v3);
    v0 ^= m;
  }
  uint64_t last = static_cast<uint64_t>(len & 0xff) << 56;
  for (size_t i = whole; i < len; ++i) {
    last |= static_cast<uint64_t>(in[i]) << (8 * (i - whole));
  }
  v3 ^= last;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  v0 ^= last;
  v2 ^= 0xff;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  return v0 ^ v1 ^ v2 ^ v3;
}

RbAuthContext::RbAuthContext(const std::string& secret) {
  master_k0_ = SipHash24(kDomainMaster0, kDomainMaster1, secret.data(), secret.size());
  master_k1_ = SipHash24(kDomainMaster1, kDomainMaster0, secret.data(), secret.size());
}

const RbAuthContext::SessionKey& RbAuthContext::KeyFor(uint32_t epoch) const {
  auto it = keys_.find(epoch);
  if (it != keys_.end()) {
    return it->second;
  }
  uint64_t material[2] = {kDomainEpochK0, epoch};
  SessionKey key;
  key.k0 = SipHash24(master_k0_, master_k1_, material, sizeof(material));
  material[0] = kDomainEpochK1;
  key.k1 = SipHash24(master_k0_, master_k1_, material, sizeof(material));
  return keys_.emplace(epoch, key).first->second;
}

void RbAuthContext::SealFrame(std::vector<uint8_t>* frame, RbAuthDirection dir) const {
  const uint32_t epoch = GetU32(*frame, kOffEpoch);
  const SessionKey& key = KeyFor(epoch);
  // Encrypt the payload: XOR keystream of SipHash blocks bound to the frame's
  // identity (epoch, frame_seq, type, direction, block index). Header fields stay
  // plaintext — the receiver needs epoch/type/length before it can key anything,
  // and they are authenticated by the tag below.
  const size_t payload_len = frame->size() - kRbWireHeaderSize;
  if (payload_len > 0) {
    uint64_t nonce[3] = {GetU64(*frame, kOffFrameSeq),
                         (static_cast<uint64_t>(epoch) << 16) |
                             static_cast<uint64_t>((*frame)[kOffType]),
                         0};
    uint8_t* p = frame->data() + kRbWireHeaderSize;
    for (size_t off = 0; off < payload_len; off += 8) {
      nonce[2] = off / 8;
      uint64_t block = SipHash24(key.k0 ^ static_cast<uint64_t>(dir) ^ kDomainStream,
                                 key.k1, nonce, sizeof(nonce));
      uint8_t ks[8];
      std::memcpy(ks, &block, 8);
      const size_t n = payload_len - off < 8 ? payload_len - off : 8;
      for (size_t i = 0; i < n; ++i) {
        p[off + i] ^= ks[i];
      }
    }
  }
  // Tag over the whole frame with the tag bytes zeroed.
  std::memset(frame->data() + kOffTag, 0, kTagSize);
  uint64_t tag = TagFor(*frame, epoch, dir);
  std::memcpy(frame->data() + kOffTag, &tag, kTagSize);
}

uint64_t RbAuthContext::TagFor(const std::vector<uint8_t>& frame, uint32_t epoch,
                               RbAuthDirection dir) const {
  const SessionKey& key = KeyFor(epoch);
  return SipHash24(key.k0 ^ static_cast<uint64_t>(dir) ^ kDomainTag, key.k1,
                   frame.data(), frame.size());
}

bool RbAuthContext::VerifyAndOpen(std::vector<uint8_t>* frame,
                                  RbAuthDirection dir) const {
  if (frame->size() < kRbWireHeaderSize) {
    return false;
  }
  const uint32_t epoch = GetU32(*frame, kOffEpoch);
  uint64_t wire_tag = GetU64(*frame, kOffTag);
  std::memset(frame->data() + kOffTag, 0, kTagSize);
  uint64_t want = TagFor(*frame, epoch, dir);
  if (want != wire_tag) {
    // Restore the wire bytes so the caller sees the frame untouched.
    std::memcpy(frame->data() + kOffTag, &wire_tag, kTagSize);
    return false;
  }
  // Decrypt in place (XOR keystream: sealing and opening are the same transform).
  const size_t payload_len = frame->size() - kRbWireHeaderSize;
  if (payload_len > 0) {
    const SessionKey& key = KeyFor(epoch);
    uint64_t nonce[3] = {GetU64(*frame, kOffFrameSeq),
                         (static_cast<uint64_t>(epoch) << 16) |
                             static_cast<uint64_t>((*frame)[kOffType]),
                         0};
    uint8_t* p = frame->data() + kRbWireHeaderSize;
    for (size_t off = 0; off < payload_len; off += 8) {
      nonce[2] = off / 8;
      uint64_t block = SipHash24(key.k0 ^ static_cast<uint64_t>(dir) ^ kDomainStream,
                                 key.k1, nonce, sizeof(nonce));
      uint8_t ks[8];
      std::memcpy(ks, &block, 8);
      const size_t n = payload_len - off < 8 ? payload_len - off : 8;
      for (size_t i = 0; i < n; ++i) {
        p[off + i] ^= ks[i];
      }
    }
  }
  return true;
}

uint64_t RbConfigDigest(uint64_t rb_size, uint32_t max_ranks,
                        uint64_t sync_log_size, uint64_t descriptor_digest) {
  uint64_t material[4] = {rb_size, max_ranks, sync_log_size, descriptor_digest};
  return SipHash24(0x52424346u /* "RBCF" */, 0x44494753u /* "DIGS" */, material,
                   sizeof(material));
}

}  // namespace remon
