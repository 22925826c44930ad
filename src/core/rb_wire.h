// RB wire format: framed, versioned serialization of replication-buffer entries.
//
// The SHM replication buffer only reaches replicas on the leader's machine. For
// cross-machine replica sets the leader's IP-MON serializes each publication —
// an entry's args-ready commit, then its results-ready commit, one frame each —
// into the frames defined here and pumps them over a StreamSocket to the remote machine's
// RemoteSyncAgent, which replays them into that replica's private RB mirror.
//
// docs/RB_WIRE_FORMAT.md is the normative description of the frame layout, the
// versioning/epoch rules and the authentication trailer; this header mirrors it.
// Keep the two in sync: a change here is a wire-format revision and must bump
// kRbWireVersion.
//
// Frame layout (all fields little-endian, fixed 48-byte header):
//
//   offset  size  field
//        0     4  magic        "RBWF" (0x46574252 as a little-endian u32)
//        4     2  version      kRbWireVersion (receiver rejects mismatches)
//        6     2  type         RbFrameType (kEntries | kAck | kSnapshot* | kSyncLog
//                              | kJoinAttest)
//        8     4  epoch        stream epoch (bumped when a remote rank dies)
//       12     4  rank         RB sub-buffer (thread rank) the frame belongs to;
//                              kJoinAttest: the joining replica's index
//       16     4  entry_count  number of entry records in the payload
//       20     4  payload_len  payload bytes following the header
//       24     8  frame_seq    per-connection sequence number of data frames;
//                              kAck: the replica's sync-log replay cursor,
//                              piggybacked for the leader's wrap gate
//       32     8  ack_seq      kAck: highest frame_seq applied (cumulative)
//       40     8  tag          SipHash-2-4 MAC (src/core/rb_auth.h) over the whole
//                              frame with these bytes zeroed
//
// Every frame on every stream is sealed: the encoders below leave the tag zero,
// the sender's RbAuthContext encrypts the payload with the epoch's keystream and
// writes the tag, and the receiving parser verifies and decrypts before any
// structural parsing. There is no unsealed frame and no unverified decode path.
//
// kEntries payload: entry_count records, each
//
//   u64 entry_off    offset of the entry in the rank's sub-buffer space
//   u32 final_state  kRbArgsReady (1), kRbResultsReady (2) or the wire-only
//                    kRbResultsOnly (3) (applied *after* the image)
//   u32 image_len    bytes of entry image that follow immediately (no padding)
//
// followed by image_len bytes: the entry image starting at the entry header
// (state and waiter words included for alignment, but the receiver must preserve
// the mirror's own state/waiter words and flip the state word last). A full
// record's image is the header, the signature and, once results are ready, the
// out bytes. A results-only record (kRbResultsOnly) is the results of an entry
// whose args-ready record already went: the header followed directly by the out
// bytes, which the receiver writes after the signature already in its mirror,
// then flips the entry to kRbResultsReady. The receiver refuses one unless its
// mirror entry is args-ready with the same sig_len and the out bytes fill the
// image and fit the sub-buffer. Live kEntries frames carry both kinds; a
// checkpoint ships full records only.
//
// kSnapshotBegin / kSnapshotChunk / kSnapshotEnd carry the replica re-seed
// checkpoint (src/core/snapshot.h) that attaches a replacement replica to a live
// replica set after an epoch bump. They are sequenced data frames: each carries a
// frame_seq, counts against the link's flow-control window, and is cumulatively
// acknowledged like kEntries, so snapshot traffic interleaves with window-bounded
// data frames instead of monopolizing the link. Their payloads belong to the
// snapshot codec (entry_count is 0), but a kSnapshotChunk ships the stream's own
// records: a u32 rank and a u32 record count, then records in the kEntries layout
// above, decoded by the same RbWireCodec::DecodeEntries. Every checkpoint is cut
// against a basis — what the replacement's mirror already holds — and a full one
// is the cut against the empty basis (docs/RB_WIRE_FORMAT.md, "Snapshot frames").
//
// kJoinAttest (agent -> leader) is the first frame of every connection: the
// replica presents its index, its configuration digest (RB geometry, sync-log
// geometry, descriptor-registry hash — RbConfigDigest in src/core/rb_auth.h),
// and its sync-log replay cursor. The leader verifies index + digest before any
// frame is sent to the replica; on a replacement connection the checkpoint is
// captured only after the attestation verifies. Payload (32 bytes):
//
//   u32 replica_index   echoes the header rank field
//   u32 reserved        zero
//   u64 config_digest   must equal the leader's own digest
//   u64 sync_cursor     the replica's replay cursor (seeds the wrap gate / re-seed)
//   u32 machine         the machine id the replica is placed on — a
//                       replacement attesting from a machine other than the one
//                       the dead replica occupied makes respawn a migration; the
//                       leader verifies it against the placement it assigned
//   u32 reserved2       zero
//
// kSyncLog streams the master's sync-agent log (src/core/sync_agent.h) so
// multi-threaded replicas can run on remote machines. Payload: a u64 start_index
// (absolute log index of the first record) followed by entry_count records of
//
//   u32 object_id    the synchronization object acquired
//   u32 rank         the acquiring thread's rank
//
// Record k names absolute log op start_index + k; the receiver replays records
// into the machine-local log mirror with the slot bytes first and the tail word
// stored last (forward-only). kSyncLog frames are sequenced, sealed, epoch-scoped
// data frames exactly like kEntries: they share the frame_seq space, count
// against the link's window, are cumulatively acked, and obey the join-epoch
// floor after a re-seed.

#ifndef SRC_CORE_RB_WIRE_H_
#define SRC_CORE_RB_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

namespace remon {

// Little-endian field access at a byte offset the caller has bounds-checked: the
// wire codec, the checkpoint codec and the master-call result payload share them.
inline void PutU32(std::vector<uint8_t>* out, size_t off, uint32_t v) {
  std::memcpy(out->data() + off, &v, 4);
}
inline void PutU64(std::vector<uint8_t>* out, size_t off, uint64_t v) {
  std::memcpy(out->data() + off, &v, 8);
}
inline uint32_t GetU32(const std::vector<uint8_t>& in, size_t off) {
  uint32_t v = 0;
  std::memcpy(&v, in.data() + off, 4);
  return v;
}
inline uint64_t GetU64(const std::vector<uint8_t>& in, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, in.data() + off, 8);
  return v;
}

inline constexpr uint32_t kRbWireMagic = 0x46574252;  // "RBWF" little-endian.
// v2 snapshots, v3 sync log, v4 attest + MAC, v5 delta re-seed, v6 one begin frame,
// v7 checkpoints ship entry records, v8 every frame sealed (no CRC trailer),
// v9 results-only records (each signature byte crosses the link once), v10
// checkpoints carry only what the replacement restores (no file-map pages or CRC,
// epoll rows, per-rank sequence numbers or lockstep cursor; an 80-byte
// SNAPSHOT_BEGIN header).
inline constexpr uint16_t kRbWireVersion = 10;
inline constexpr uint64_t kRbWireHeaderSize = 48;
inline constexpr uint64_t kRbWireEntryHeaderSize = 16;
inline constexpr uint64_t kRbWireSyncRecordSize = 8;
inline constexpr uint64_t kRbWireSyncHeaderSize = 8;  // The u64 start_index.
// Payloads beyond this are rejected as corrupt before any allocation happens: the
// largest legitimate frame is one entry record or one checkpoint chunk, far below
// this.
inline constexpr uint32_t kRbWireMaxPayload = 1u << 24;

enum class RbFrameType : uint16_t {
  kEntries = 1,  // Leader -> remote agent: published RB entries.
  kAck = 2,      // Remote agent -> leader: cumulative application acknowledgment.
  // Replica re-seed (leader -> replacement agent): checkpoint metadata, one chunk
  // of entry records, and the commit record closing the snapshot
  // (src/core/snapshot.h).
  kSnapshotBegin = 3,
  kSnapshotChunk = 4,
  kSnapshotEnd = 5,
  // Leader -> remote agent: appended sync-agent log records (src/core/sync_agent.h).
  kSyncLog = 6,
  // Remote agent -> leader: join attestation (identity + config digest + replay
  // cursor + placement), the first frame of every connection.
  kJoinAttest = 7,
};

inline constexpr uint64_t kRbWireAttestPayloadSize = 32;

// True for the frame types whose payload the snapshot codec owns.
inline constexpr bool IsSnapshotFrameType(RbFrameType t) {
  return t == RbFrameType::kSnapshotBegin || t == RbFrameType::kSnapshotChunk ||
         t == RbFrameType::kSnapshotEnd;
}

// IEEE 802.3 CRC-32 (reflected, init/xorout 0xffffffff), software table. Frames
// carry a MAC, not a CRC; the checkpoint chunk chain and the file map use this.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

// One published entry as carried on the wire.
struct RbWireEntry {
  uint64_t entry_off = 0;
  uint32_t final_state = 0;  // kRbArgsReady | kRbResultsReady | kRbResultsOnly.
  std::vector<uint8_t> image;        // Entry bytes from the entry header onward.
};

// One sync-agent log record as carried in a kSyncLog frame.
struct RbSyncLogRecord {
  uint32_t object_id = 0;
  uint32_t rank = 0;

  bool operator==(const RbSyncLogRecord& o) const {
    return object_id == o.object_id && rank == o.rank;
  }
};

// A decoded frame.
struct RbWireFrame {
  uint16_t version = kRbWireVersion;
  RbFrameType type = RbFrameType::kEntries;
  uint32_t epoch = 0;
  uint32_t rank = 0;
  uint64_t frame_seq = 0;
  uint64_t ack_seq = 0;
  // kAck only: the sender's sync-log replay cursor, carried in the header's
  // frame_seq field. 0 when the replica runs no agent.
  uint64_t ack_cursor = 0;
  // kJoinAttest only: decoded attestation payload.
  uint32_t attest_replica = 0;
  uint64_t attest_digest = 0;
  uint64_t attest_cursor = 0;
  // kJoinAttest only: the machine id the attesting replica is placed on.
  uint32_t attest_machine = 0;
  std::vector<RbWireEntry> entries;
  // kSyncLog only: absolute log index of sync_records[0], then the records.
  uint64_t sync_start = 0;
  std::vector<RbSyncLogRecord> sync_records;
  // Snapshot frames only: the raw payload for the snapshot codec.
  std::vector<uint8_t> payload;
};

class RbWireCodec {
 public:
  // Serializes one publication into one frame.
  static std::vector<uint8_t> EncodeEntries(uint32_t epoch, uint32_t rank,
                                            uint64_t frame_seq,
                                            const std::vector<RbWireEntry>& entries);

  // The entry records of a kEntries payload (also the body of a kSnapshotChunk).
  static std::vector<uint8_t> EncodeEntriesPayload(const std::vector<RbWireEntry>& entries);

  // Decodes exactly `count` entry records filling `len` bytes into `out`. Returns
  // null on success, else why the bytes are not such records.
  static const char* DecodeEntries(const uint8_t* data, size_t len, uint32_t count,
                                   std::vector<RbWireEntry>* out);

  // Stamps the header of a data frame around a serialized payload (tag zero,
  // sealed by the sender). A broadcast serializes its payload once and stamps it
  // per connection, each with its own frame_seq. `count` is the header's
  // entry_count: kEntries and kSyncLog records; 0 for snapshot frames.
  static std::vector<uint8_t> FrameFromPayload(RbFrameType type, uint32_t epoch,
                                               uint32_t rank, uint64_t frame_seq,
                                               uint32_t count,
                                               const std::vector<uint8_t>& payload);

  // Serializes a cumulative acknowledgment. The otherwise-unused
  // frame_seq header field carries the replica's sync-log replay cursor
  // (sync_cursor; 0 when no record/replay agent runs), so the leader's wrap gate
  // sees acknowledged replay state without host-side peer reads.
  static std::vector<uint8_t> EncodeAck(uint32_t epoch, uint64_t ack_seq,
                                        uint64_t sync_cursor = 0);

  // Serializes the attested-join handshake frame (agent -> leader): the joining
  // replica's index, its config digest, its sync-log replay cursor, and the
  // machine it is placed on.
  static std::vector<uint8_t> EncodeJoinAttest(uint32_t epoch, uint32_t replica_index,
                                               uint64_t config_digest,
                                               uint64_t sync_cursor,
                                               uint32_t machine = 0);

  // Serializes sync-log records (one append on the live stream) into one kSyncLog
  // frame; the broadcast path serializes the payload once and
  // stamps it per connection (FrameFromPayload, rank 0).
  static std::vector<uint8_t> EncodeSyncLog(uint32_t epoch, uint64_t frame_seq,
                                            uint64_t start_index,
                                            const std::vector<RbSyncLogRecord>& records);
  static std::vector<uint8_t> EncodeSyncLogPayload(
      uint64_t start_index, const std::vector<RbSyncLogRecord>& records);
};

// Incremental reassembly of sealed frames from a byte stream. Feed() accepts
// arbitrary chunk boundaries; Next() yields verified, decrypted frames in order.
// Corruption (bad magic, version, MAC, malformed payload) is unrecoverable for a
// reliable in-order stream: the parser latches into the corrupt state and Next()
// keeps returning kCorrupt so the connection owner can tear the link down
// (docs/RB_WIRE_FORMAT.md, "Corruption policy"). A parser that was never keyed
// with set_auth is latched from the start: it decodes nothing.
class RbAuthContext;
enum class RbAuthDirection : uint64_t;

class RbFrameParser {
 public:
  enum class Status { kNeedMore, kFrame, kCorrupt };

  void Feed(const uint8_t* data, size_t len);

  // Attempts to decode the next complete frame into `out`.
  Status Next(RbWireFrame* out);

  // Keys the parser; call before the first Feed. Every frame's tag is verified
  // and its payload decrypted before structural parsing; a bad tag latches
  // corrupt. `auth` must outlive the parser; `dir` is the flow this parser reads
  // (the direction the *sender* sealed with).
  void set_auth(const RbAuthContext& auth, RbAuthDirection dir) {
    auth_ = &auth;
    auth_dir_ = dir;
    corrupt_ = false;
    corrupt_reason_ = "";
  }

  bool corrupt() const { return corrupt_; }
  // Why the parser latched (static string; "" while healthy). Lets connection
  // owners attribute teardowns: MAC vs structural corruption.
  const char* corrupt_reason() const { return corrupt_reason_; }
  uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  bool HaveBytes(size_t n) const { return buf_.size() >= n; }
  Status Corrupt(const char* why) {
    corrupt_ = true;
    corrupt_reason_ = why;
    return Status::kCorrupt;
  }
  uint32_t PeekU32(size_t off) const;
  uint64_t PeekU64(size_t off) const;
  uint16_t PeekU16(size_t off) const;

  std::deque<uint8_t> buf_;
  // Latched until set_auth keys the parser.
  bool corrupt_ = true;
  const char* corrupt_reason_ = "no authentication context";
  uint64_t frames_decoded_ = 0;
  const RbAuthContext* auth_ = nullptr;
  RbAuthDirection auth_dir_{};
};

}  // namespace remon

#endif  // SRC_CORE_RB_WIRE_H_
