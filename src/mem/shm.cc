#include "src/mem/shm.h"

#include "src/kernel/errno.h"
#include "src/sim/check.h"

namespace remon {

int ShmRegistry::Get(int key, uint64_t size, bool create, int pid, uint32_t machine) {
  if (key != kIpcPrivate) {
    for (auto& [id, seg] : segments_) {
      if (seg.key == key && seg.machine == machine && seg.mirror_of < 0 &&
          !seg.marked_removed) {
        if (seg.size < PageAlignUp(size)) {
          return -kEINVAL;
        }
        return id;
      }
    }
    if (!create) {
      return -kENOENT;
    }
  }
  if (size == 0) {
    return -kEINVAL;
  }
  ShmSegment seg;
  seg.id = next_id_++;
  seg.key = key;
  seg.size = PageAlignUp(size);
  seg.creator_pid = pid;
  seg.machine = machine;
  seg.frames = std::make_shared<FrameTable>(seg.size / kPageSize);
  int id = seg.id;
  segments_[id] = std::move(seg);
  return id;
}

int ShmRegistry::MirrorFor(int shmid, uint32_t machine) {
  ShmSegment* origin = Find(shmid);
  if (origin == nullptr) {
    return -kEINVAL;
  }
  if (origin->machine == machine) {
    return shmid;
  }
  if (origin->mirror_of >= 0) {
    // Mirror-of-a-mirror would fork the replication stream; resolve via the origin.
    return MirrorFor(origin->mirror_of, machine);
  }
  for (auto& [id, seg] : segments_) {
    if (seg.mirror_of == shmid && seg.machine == machine && !seg.marked_removed) {
      return id;
    }
  }
  ShmSegment seg;
  seg.id = next_id_++;
  seg.key = origin->key;
  seg.size = origin->size;
  seg.creator_pid = origin->creator_pid;
  seg.machine = machine;
  seg.mirror_of = shmid;
  seg.frames = std::make_shared<FrameTable>(seg.size / kPageSize);
  int id = seg.id;
  segments_[id] = std::move(seg);
  return id;
}

uint64_t ShmRegistry::resident_pages() const {
  uint64_t pages = 0;
  for (const auto& [id, seg] : segments_) {
    pages += seg.frames->resident();
  }
  return pages;
}

ShmSegment* ShmRegistry::Find(int shmid) {
  auto it = segments_.find(shmid);
  return it == segments_.end() ? nullptr : &it->second;
}

void ShmRegistry::OnAttach(int shmid) {
  ShmSegment* seg = Find(shmid);
  REMON_CHECK(seg != nullptr);
  ++seg->attach_count;
}

void ShmRegistry::OnDetach(int shmid) {
  ShmSegment* seg = Find(shmid);
  if (seg == nullptr) {
    return;
  }
  --seg->attach_count;
  if (seg->attach_count <= 0 && seg->marked_removed) {
    segments_.erase(shmid);
  }
}

int ShmRegistry::Remove(int shmid) {
  ShmSegment* seg = Find(shmid);
  if (seg == nullptr) {
    return -kEINVAL;
  }
  seg->marked_removed = true;
  if (seg->attach_count <= 0) {
    segments_.erase(shmid);
  }
  return 0;
}

}  // namespace remon
