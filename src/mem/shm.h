// System V shared memory registry (shmget/shmat/shmdt/shmctl backing store).
//
// IP-MON creates its replication buffer with System V IPC (paper §3.5); GHUMVEE
// arbitrates so all replicas attach the same segment. Shared segments are also the
// vehicle for the *bi-directional channel* threat the paper discusses: GHUMVEE rejects
// guest requests for writable shared mappings between replicas (§2.1), which tests
// exercise directly.

#ifndef SRC_MEM_SHM_H_
#define SRC_MEM_SHM_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/mem/page.h"

namespace remon {

struct ShmSegment {
  int id = 0;
  int key = 0;
  uint64_t size = 0;  // Page-aligned.
  // Demand-paged: shmget allocates no frame; each page materializes on its first
  // write or frame resolution through any attachment (see FrameTable).
  std::shared_ptr<FrameTable> frames;
  int attach_count = 0;
  bool marked_removed = false;
  int creator_pid = 0;
  // SysV IPC is per-host: segments belong to the machine that created them. A
  // process on another machine that attaches `id` gets a machine-local *mirror*
  // (same size, its own demand-paged frame table) — the backing store a
  // RemoteSyncAgent replays the leader's RB stream into (see
  // src/core/rb_transport.h).
  uint32_t machine = 0;
  int mirror_of = -1;  // Origin segment id when this is a cross-machine mirror.
};

class ShmRegistry {
 public:
  ShmRegistry() = default;

  static constexpr int kIpcPrivate = 0;

  // shmget: creates (key == IPC_PRIVATE or new key with IPC_CREAT) or looks up a
  // segment. Keys are namespaced per machine (SysV IPC does not cross hosts).
  // Returns segment id >= 0 or -errno.
  int Get(int key, uint64_t size, bool create, int pid, uint32_t machine = 0);

  // Returns the segment or nullptr.
  ShmSegment* Find(int shmid);

  // Finds or creates the machine-local mirror of `shmid` for `machine` (same size,
  // its own demand-paged frame table). Returns the mirror's id, `shmid` itself when
  // the segment already lives on `machine`, or -errno.
  int MirrorFor(int shmid, uint32_t machine);

  // Marks attach/detach; destroys removed segments whose attach count hits zero.
  void OnAttach(int shmid);
  void OnDetach(int shmid);

  // shmctl(IPC_RMID).
  int Remove(int shmid);

  uint64_t segment_count() const { return segments_.size(); }
  // Frames materialized across every live segment and mirror: the host memory
  // SysV IPC holds, which tracks the pages guests touched, not segment sizes.
  uint64_t resident_pages() const;

 private:
  int next_id_ = 1;
  std::map<int, ShmSegment> segments_;
};

}  // namespace remon

#endif  // SRC_MEM_SHM_H_
