// RB transport authentication: keyed per-frame MACs, stream encryption, and the
// config digest behind the attested join handshake (docs/RB_WIRE_FORMAT.md).
//
// Threat model (ReplicaTEE-style provisioning in an untrusted cloud): the network
// between the leader and a remote replica is adversarial — frames can be observed,
// forged, replayed, and injected. Every frame on every cross-machine stream
// carries a 64-bit SipHash-2-4 tag in its trailer (bytes 40-47), computed over
// the whole frame with the tag bytes zeroed. Payloads are encrypted with a SipHash-derived XOR
// keystream before the tag is computed (encrypt-then-MAC).
//
// Replay binding: the tag key folds in the flow direction (leader->replica vs
// replica->leader), and the authenticated header carries the epoch and frame_seq,
// so a captured frame cannot be re-sent on the opposite flow, and a stale frame
// re-sent on the same flow fails the receiver's epoch/sequence monotonicity
// checks (src/core/rb_transport.cc) before it can reach a mirror.
//
// Key rotation: per-epoch session keys derive from the master secret and the
// epoch number. An epoch bump (remote death) rotates the keys implicitly — a key
// captured from a dead replica's memory cannot seal or open frames of the
// post-bump epoch, so a re-seeded replica set is safe from its own past.
//
// SipHash-2-4 is implemented in-repo (the simulation has no crypto dependency);
// it is the real algorithm with the published test vector enforced in
// tests/rb_wire_test.cc, standing in for an AEAD the way the simulated network
// stands in for a real one.

#ifndef SRC_CORE_RB_AUTH_H_
#define SRC_CORE_RB_AUTH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace remon {

// SipHash-2-4 with a 128-bit key (k0, k1) over `len` bytes.
uint64_t SipHash24(uint64_t k0, uint64_t k1, const void* data, size_t len);

// Flow direction, folded into the session key so a frame captured on one flow can
// never verify on the other (an agent echoing leader frames back, or vice versa).
enum class RbAuthDirection : uint64_t {
  kLeaderToReplica = 0x4c32525f52454d4full,  // "L2R_REMO"
  kReplicaToLeader = 0x52324c5f52454d4full,  // "R2L_REMO"
};

// Shared-secret authentication context. One per replica set; the leader and every
// remote agent hold the same secret (provisioned out of band — the simulation's
// analog of attested key delivery).
class RbAuthContext {
 public:
  explicit RbAuthContext(const std::string& secret);

  // Seals a fully built frame in place: encrypts the payload with the epoch's
  // session keystream (bound to epoch, frame_seq, type, direction) and writes the
  // MAC tag into bytes 40-47. The frame must
  // be a complete header+payload as produced by RbWireCodec. Idempotent callers
  // must not seal twice.
  void SealFrame(std::vector<uint8_t>* frame, RbAuthDirection dir) const;

  // Verifies a sealed frame's tag and, on success, decrypts the payload in place
  // (the tag bytes are left zeroed). Returns false on any mismatch without
  // touching the payload.
  bool VerifyAndOpen(std::vector<uint8_t>* frame, RbAuthDirection dir) const;

  // The 64-bit tag a sealed `frame` (tag bytes zeroed) should carry — exposed for
  // forgery tests that need a valid tag under a different key.
  uint64_t TagFor(const std::vector<uint8_t>& frame, uint32_t epoch,
                  RbAuthDirection dir) const;

 private:
  struct SessionKey {
    uint64_t k0 = 0;
    uint64_t k1 = 0;
  };
  // Per-epoch key: KDF(master secret, epoch). Cached — epochs are small and few.
  const SessionKey& KeyFor(uint32_t epoch) const;

  uint64_t master_k0_ = 0;
  uint64_t master_k1_ = 0;
  mutable std::unordered_map<uint32_t, SessionKey> keys_;
};

// The join attestation digest: one 64-bit fingerprint of the configuration a
// replica must share with the leader before a snapshot is shipped to it — RB
// geometry, sync-log geometry, and the syscall descriptor-registry hash
// (DescriptorRegistryDigest in src/kernel/syscall_meta.h). A mismatch means the
// joiner is not a build/config peer of this replica set: the join is refused
// before any leader state leaves the machine.
uint64_t RbConfigDigest(uint64_t rb_size, uint32_t max_ranks,
                        uint64_t sync_log_size, uint64_t descriptor_digest);

}  // namespace remon

#endif  // SRC_CORE_RB_AUTH_H_
