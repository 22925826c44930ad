#include "src/vfs/fs.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/rng.h"

namespace remon {

namespace {

constexpr int kMaxSymlinkDepth = 8;

// Splits a path into components, handling "." and "" segments ("..": handled during
// walking since it needs parent links — we instead normalize lexically here).
std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string_view::npos) {
      j = path.size();
    }
    std::string_view seg = path.substr(i, j - i);
    if (seg == "..") {
      if (!parts.empty()) {
        parts.pop_back();
      }
    } else if (!seg.empty() && seg != ".") {
      parts.emplace_back(seg);
    }
    i = j + 1;
  }
  return parts;
}

std::string JoinPath(std::string_view cwd, std::string_view path) {
  if (!path.empty() && path[0] == '/') {
    return std::string(path);
  }
  std::string out(cwd);
  if (out.empty() || out.back() != '/') {
    out.push_back('/');
  }
  out.append(path);
  return out;
}

}  // namespace

Filesystem::Filesystem() {
  root_ = std::make_shared<Inode>();
  root_->ino = 1;
  root_->type = FdType::kDirectory;
  Mkdir("/tmp");
  Mkdir("/dev");
  Mkdir("/proc");
  Mkdir("/etc");
  Mkdir("/var");
  Mkdir("/www");
}

std::shared_ptr<Inode> Filesystem::Resolve(std::string_view path, std::string_view cwd,
                                           bool follow_final_symlink) const {
  std::string abs = JoinPath(cwd, path);
  std::shared_ptr<Inode> cur = root_;
  std::vector<std::string> parts = SplitPath(abs);
  int depth = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (cur->type != FdType::kDirectory) {
      return nullptr;
    }
    auto it = cur->children.find(parts[i]);
    if (it == cur->children.end()) {
      return nullptr;
    }
    std::shared_ptr<Inode> next = it->second;
    bool is_final = (i + 1 == parts.size());
    if (!next->symlink_target.empty() && (follow_final_symlink || !is_final)) {
      if (++depth > kMaxSymlinkDepth) {
        return nullptr;
      }
      // Restart resolution from the symlink target plus remaining components.
      std::string rest = next->symlink_target;
      for (size_t j = i + 1; j < parts.size(); ++j) {
        rest.push_back('/');
        rest.append(parts[j]);
      }
      return Resolve(rest, "/", follow_final_symlink);
    }
    cur = std::move(next);
  }
  return cur;
}

std::pair<std::shared_ptr<Inode>, std::string> Filesystem::ResolveParent(
    std::string_view path, std::string_view cwd) const {
  std::string abs = JoinPath(cwd, path);
  std::vector<std::string> parts = SplitPath(abs);
  if (parts.empty()) {
    return {nullptr, ""};
  }
  std::string leaf = parts.back();
  std::shared_ptr<Inode> cur = root_;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    if (cur->type != FdType::kDirectory) {
      return {nullptr, ""};
    }
    auto it = cur->children.find(parts[i]);
    if (it == cur->children.end()) {
      return {nullptr, ""};
    }
    cur = it->second;
  }
  if (cur->type != FdType::kDirectory) {
    return {nullptr, ""};
  }
  return {cur, leaf};
}

std::shared_ptr<Inode> Filesystem::CreateFile(std::string_view path, std::string_view cwd) {
  auto [parent, leaf] = ResolveParent(path, cwd);
  if (!parent || leaf.empty()) {
    return nullptr;
  }
  auto it = parent->children.find(leaf);
  if (it != parent->children.end()) {
    return it->second->type == FdType::kRegular ? it->second : nullptr;
  }
  auto inode = std::make_shared<Inode>();
  inode->ino = next_ino_++;
  inode->type = FdType::kRegular;
  parent->children[leaf] = inode;
  return inode;
}

int Filesystem::Mkdir(std::string_view path, std::string_view cwd) {
  auto [parent, leaf] = ResolveParent(path, cwd);
  if (!parent || leaf.empty()) {
    return -kENOENT;
  }
  if (parent->children.count(leaf) != 0) {
    return -kEEXIST;
  }
  auto inode = std::make_shared<Inode>();
  inode->ino = next_ino_++;
  inode->type = FdType::kDirectory;
  parent->children[leaf] = inode;
  return 0;
}

int Filesystem::Symlink(std::string_view target, std::string_view linkpath,
                        std::string_view cwd) {
  auto [parent, leaf] = ResolveParent(linkpath, cwd);
  if (!parent || leaf.empty()) {
    return -kENOENT;
  }
  if (parent->children.count(leaf) != 0) {
    return -kEEXIST;
  }
  auto inode = std::make_shared<Inode>();
  inode->ino = next_ino_++;
  inode->type = FdType::kRegular;
  inode->symlink_target = std::string(target);
  parent->children[leaf] = inode;
  return 0;
}

int Filesystem::Unlink(std::string_view path, std::string_view cwd) {
  auto [parent, leaf] = ResolveParent(path, cwd);
  if (!parent || leaf.empty()) {
    return -kENOENT;
  }
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) {
    return -kENOENT;
  }
  if (it->second->type == FdType::kDirectory) {
    return -kEISDIR;
  }
  parent->children.erase(it);
  return 0;
}

int Filesystem::Rmdir(std::string_view path, std::string_view cwd) {
  auto [parent, leaf] = ResolveParent(path, cwd);
  if (!parent || leaf.empty()) {
    return -kENOENT;
  }
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) {
    return -kENOENT;
  }
  if (it->second->type != FdType::kDirectory) {
    return -kENOTDIR;
  }
  if (!it->second->children.empty()) {
    return -kENOTEMPTY;
  }
  parent->children.erase(it);
  return 0;
}

int Filesystem::Rename(std::string_view from, std::string_view to, std::string_view cwd) {
  auto [from_parent, from_leaf] = ResolveParent(from, cwd);
  auto [to_parent, to_leaf] = ResolveParent(to, cwd);
  if (!from_parent || !to_parent || from_leaf.empty() || to_leaf.empty()) {
    return -kENOENT;
  }
  auto it = from_parent->children.find(from_leaf);
  if (it == from_parent->children.end()) {
    return -kENOENT;
  }
  std::shared_ptr<Inode> node = it->second;
  from_parent->children.erase(it);
  to_parent->children[to_leaf] = std::move(node);
  return 0;
}

void Filesystem::RegisterSpecial(std::string_view path, std::function<std::string()> gen) {
  std::shared_ptr<Inode> inode = CreateFile(path);
  REMON_CHECK(inode != nullptr);
  inode->type = FdType::kSpecial;
  inode->generator = std::move(gen);
}

bool Filesystem::WriteWholeFile(std::string_view path, std::string_view contents) {
  std::shared_ptr<Inode> inode = CreateFile(path);
  if (!inode) {
    return false;
  }
  inode->data.Truncate(0);
  inode->data.Write(0, contents.data(), contents.size());
  return true;
}

std::optional<std::string> Filesystem::ReadWholeFile(std::string_view path) const {
  std::shared_ptr<Inode> inode = Resolve(path);
  if (!inode || inode->type != FdType::kRegular) {
    return std::nullopt;
  }
  std::string out(inode->data.size(), '\0');
  inode->data.Read(0, out.data(), out.size());
  return out;
}

void Filesystem::Populate(std::string_view dir, int count, uint64_t size, uint64_t seed) {
  Mkdir(dir);
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    std::string path = std::string(dir) + "/file" + std::to_string(i) + ".dat";
    std::shared_ptr<Inode> inode = CreateFile(path);
    REMON_CHECK(inode != nullptr);
    for (uint64_t j = 0; j < size; j += 8) {
      uint64_t v = rng.Next64();
      inode->data.Write(j, &v, std::min<uint64_t>(8, size - j));
    }
  }
}

uint64_t FileData::Read(uint64_t offset, void* out, uint64_t len) const {
  if (offset >= size_) {
    return 0;
  }
  uint64_t n = std::min(len, size_ - offset);
  uint8_t* dst = static_cast<uint8_t*>(out);
  for (uint64_t done = 0; done < n;) {
    uint64_t page = (offset + done) >> kPageShift;
    uint64_t in_page = (offset + done) & kPageMask;
    uint64_t chunk = std::min(n - done, kPageSize - in_page);
    const Page* frame = page < frames_.size() ? frames_.Get(page) : nullptr;
    if (frame != nullptr) {
      std::memcpy(dst + done, frame->bytes.data() + in_page, chunk);
    } else {
      std::memset(dst + done, 0, chunk);  // A hole.
    }
    done += chunk;
  }
  return n;
}

void FileData::Write(uint64_t offset, const void* data, uint64_t len) {
  uint64_t end = offset + len;
  if (len > 0 && ((end - 1) >> kPageShift) >= frames_.size()) {
    frames_.Resize(((end - 1) >> kPageShift) + 1);
  }
  const uint8_t* src = static_cast<const uint8_t*>(data);
  for (uint64_t done = 0; done < len;) {
    uint64_t page = (offset + done) >> kPageShift;
    uint64_t in_page = (offset + done) & kPageMask;
    uint64_t chunk = std::min(len - done, kPageSize - in_page);
    std::memcpy(frames_.Materialize(page)->bytes.data() + in_page, src + done, chunk);
    done += chunk;
  }
  size_ = std::max(size_, end);
}

void FileData::Truncate(uint64_t size) {
  if (size < size_) {
    uint64_t pages = PageAlignUp(size) >> kPageShift;
    if (pages < frames_.size()) {
      frames_.Resize(pages);
    }
    uint64_t in_page = size & kPageMask;
    if (in_page != 0 && pages - 1 < frames_.size() && frames_.Get(pages - 1) != nullptr) {
      Page& last = *frames_.Get(pages - 1);
      std::memset(last.bytes.data() + in_page, 0, kPageSize - in_page);
    }
  }
  size_ = size;
}

int64_t RegularHandle::Read(void* buf, uint64_t len, uint64_t offset) {
  return static_cast<int64_t>(inode_->data.Read(offset, buf, len));
}

int64_t RegularHandle::Write(const void* buf, uint64_t len, uint64_t offset) {
  if (offset >= Filesystem::kMaxFileBytes) {
    return -kEFBIG;
  }
  len = std::min(len, Filesystem::kMaxFileBytes - offset);
  inode_->data.Write(offset, buf, len);
  return static_cast<int64_t>(len);
}

int DirHandle::FillDirents(GuestDirent* out, int max, uint64_t* offset) const {
  int filled = 0;
  uint64_t index = 0;
  for (const auto& [name, child] : inode_->children) {
    if (index++ < *offset) {
      continue;
    }
    if (filled >= max) {
      break;
    }
    GuestDirent& d = out[filled];
    d.d_ino = child->ino;
    d.d_type = static_cast<uint8_t>(child->type);
    std::snprintf(d.d_name, sizeof(d.d_name), "%s", name.c_str());
    ++filled;
    ++*offset;
  }
  return filled;
}

int64_t SpecialHandle::Read(void* buf, uint64_t len, uint64_t offset) {
  if (offset >= content_.size()) {
    return 0;
  }
  uint64_t n = std::min<uint64_t>(len, content_.size() - offset);
  std::memcpy(buf, content_.data() + offset, n);
  return static_cast<int64_t>(n);
}

int64_t UrandomHandle::Read(void* buf, uint64_t len, uint64_t offset) {
  uint8_t* dst = static_cast<uint8_t*>(buf);
  for (uint64_t i = 0; i < len; ++i) {
    // splitmix64 step; cheap and deterministic.
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    dst[i] = static_cast<uint8_t>(z ^ (z >> 31));
  }
  return static_cast<int64_t>(len);
}

}  // namespace remon
