// Unit tests for the VFS: filesystem tree, pipes, epoll, eventfd, wait queues.

#include <gtest/gtest.h>

#include <cstring>

#include "src/vfs/epoll.h"
#include "src/vfs/eventfd.h"
#include "src/vfs/file.h"
#include "src/vfs/fs.h"
#include "src/vfs/pipe.h"
#include "src/vfs/wait_queue.h"
#include "tests/test_util.h"

namespace remon {
namespace {

TEST(WaitQueueTest, OneShotWaiterFiresOnce) {
  WaitQueue q;
  int fired = 0;
  q.AddWaiter([&] { ++fired; });
  q.Wake();
  q.Wake();
  EXPECT_EQ(fired, 1);
}

TEST(WaitQueueTest, ObserverFiresEveryWake) {
  WaitQueue q;
  int fired = 0;
  q.AddObserver([&] { ++fired; });
  q.Wake();
  q.Wake();
  EXPECT_EQ(fired, 2);
}

TEST(WaitQueueTest, RemoveCancelsWaiter) {
  WaitQueue q;
  int fired = 0;
  uint64_t id = q.AddWaiter([&] { ++fired; });
  q.Remove(id);
  q.Wake();
  EXPECT_EQ(fired, 0);
}

TEST(WaitQueueTest, WakeNWakesFifo) {
  WaitQueue q;
  std::vector<int> order;
  q.AddWaiter([&] { order.push_back(1); });
  q.AddWaiter([&] { order.push_back(2); });
  q.AddWaiter([&] { order.push_back(3); });
  EXPECT_EQ(q.WakeN(2), 2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.waiter_count(), 1u);
}

TEST(FilesystemTest, CreateResolveReadWrite) {
  Filesystem fs;
  ASSERT_TRUE(fs.WriteWholeFile("/tmp/a.txt", "hello"));
  auto content = fs.ReadWholeFile("/tmp/a.txt");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "hello");
}

TEST(FilesystemTest, MissingPathResolvesNull) {
  Filesystem fs;
  EXPECT_EQ(fs.Resolve("/no/such/file"), nullptr);
}

TEST(FilesystemTest, MkdirAndNesting) {
  Filesystem fs;
  EXPECT_EQ(fs.Mkdir("/a"), 0);
  EXPECT_EQ(fs.Mkdir("/a/b"), 0);
  EXPECT_TRUE(fs.WriteWholeFile("/a/b/c.txt", "x"));
  EXPECT_NE(fs.Resolve("/a/b/c.txt"), nullptr);
  EXPECT_EQ(fs.Mkdir("/a"), -kEEXIST);
  EXPECT_EQ(fs.Mkdir("/missing/parent/dir"), -kENOENT);
}

TEST(FilesystemTest, UnlinkAndRename) {
  Filesystem fs;
  fs.WriteWholeFile("/tmp/x", "1");
  EXPECT_EQ(fs.Rename("/tmp/x", "/tmp/y"), 0);
  EXPECT_EQ(fs.Resolve("/tmp/x"), nullptr);
  EXPECT_NE(fs.Resolve("/tmp/y"), nullptr);
  EXPECT_EQ(fs.Unlink("/tmp/y"), 0);
  EXPECT_EQ(fs.Unlink("/tmp/y"), -kENOENT);
}

TEST(FilesystemTest, SymlinkResolution) {
  Filesystem fs;
  fs.WriteWholeFile("/tmp/target", "data");
  ASSERT_EQ(fs.Symlink("/tmp/target", "/tmp/link"), 0);
  auto inode = fs.Resolve("/tmp/link");
  ASSERT_NE(inode, nullptr);
  char bytes[4];
  ASSERT_EQ(inode->data.Read(0, bytes, sizeof(bytes)), 4u);
  EXPECT_EQ(std::string(bytes, 4), "data");
  // lstat-style: do not follow the final symlink.
  auto link_inode = fs.Resolve("/tmp/link", "/", /*follow_final_symlink=*/false);
  ASSERT_NE(link_inode, nullptr);
  EXPECT_EQ(link_inode->symlink_target, "/tmp/target");
}

TEST(FilesystemTest, RelativePathsUseCwd) {
  Filesystem fs;
  fs.Mkdir("/home");
  fs.WriteWholeFile("/home/f.txt", "z");
  EXPECT_NE(fs.Resolve("f.txt", "/home"), nullptr);
  EXPECT_NE(fs.Resolve("../home/f.txt", "/tmp"), nullptr);
}

TEST(FilesystemTest, PopulateCreatesCorpus) {
  Filesystem fs;
  fs.Populate("/corpus", 10, 4096, 7);
  for (int i = 0; i < 10; ++i) {
    auto inode = fs.Resolve("/corpus/file" + std::to_string(i) + ".dat");
    ASSERT_NE(inode, nullptr);
    EXPECT_EQ(inode->data.size(), 4096u);
    EXPECT_EQ(inode->data.resident_pages(), 1u);
  }
}

TEST(FilesystemTest, SpecialFileSnapshotsGenerator) {
  Filesystem fs;
  int calls = 0;
  fs.RegisterSpecial("/proc/test", [&] {
    ++calls;
    return std::string("gen-") + std::to_string(calls);
  });
  auto inode = fs.Resolve("/proc/test");
  ASSERT_NE(inode, nullptr);
  EXPECT_EQ(inode->type, FdType::kSpecial);
  SpecialHandle h1(inode->generator(), inode);
  char buf[16];
  int64_t n = h1.Read(buf, sizeof(buf), 0);
  EXPECT_EQ(std::string(buf, static_cast<size_t>(n)), "gen-1");
}

TEST(RegularHandleTest, ReadWriteAtOffsets) {
  Filesystem fs;
  auto inode = fs.CreateFile("/tmp/f");
  RegularHandle h(inode, &fs);
  EXPECT_EQ(h.Write("abcdef", 6, 0), 6);
  EXPECT_EQ(h.Size(), 6);
  char buf[4] = {0};
  EXPECT_EQ(h.Read(buf, 3, 2), 3);
  EXPECT_EQ(std::string(buf, 3), "cde");
  EXPECT_EQ(h.Read(buf, 4, 6), 0);  // EOF.
  // Sparse write extends.
  EXPECT_EQ(h.Write("Z", 1, 10), 1);
  EXPECT_EQ(h.Size(), 11);
}

// --- File bytes in 4 KiB frames -------------------------------------------------

TEST(FileDataTest, HoleReadsZeroesAndHoldsNoFrame) {
  FileData data;
  data.Write(3 * kPageSize + 5, "x", 1);
  EXPECT_EQ(data.size(), 3 * kPageSize + 6);
  EXPECT_EQ(data.resident_pages(), 1u);
  std::string hole(3 * kPageSize + 5, '?');
  EXPECT_EQ(data.Read(0, hole.data(), hole.size()), hole.size());
  EXPECT_EQ(hole, std::string(hole.size(), '\0'));
  EXPECT_EQ(data.resident_pages(), 1u);  // Reading the hole materialized nothing.
}

TEST(FileDataTest, ReadsAndWritesStraddleAPageBoundary) {
  FileData data;
  data.Write(kPageSize - 3, "abcdefgh", 8);
  EXPECT_EQ(data.resident_pages(), 2u);
  char buf[8];
  ASSERT_EQ(data.Read(kPageSize - 3, buf, sizeof(buf)), 8u);
  EXPECT_EQ(std::string(buf, 8), "abcdefgh");
  // A read that crosses the boundary and runs past EOF stops at EOF.
  ASSERT_EQ(data.Read(kPageSize - 1, buf, sizeof(buf)), 6u);
  EXPECT_EQ(std::string(buf, 6), "cdefgh");
  // Overwriting across the boundary keeps the neighbouring bytes.
  data.Write(kPageSize - 1, "XY", 2);
  ASSERT_EQ(data.Read(kPageSize - 3, buf, sizeof(buf)), 8u);
  EXPECT_EQ(std::string(buf, 8), "abXYefgh");
}

TEST(FileDataTest, ResidentFramesAreThePagesTouched) {
  FileData data;
  for (uint64_t page : {0u, 2u, 5u, 5u, 9u}) {
    data.Write(page * kPageSize + 100, "page", 4);
  }
  EXPECT_EQ(data.resident_pages(), 4u);
  // A write that ends one page and starts the next touches both.
  data.Write(7 * kPageSize - 1, "ab", 2);
  EXPECT_EQ(data.resident_pages(), 6u);
  EXPECT_EQ(data.size(), 9 * kPageSize + 104);
}

// ftruncate shrinks to a mid-page length, dropping whole frames and scrubbing the
// last page's tail; growing again exposes zeroes, never the old bytes. truncate to
// 0 and O_TRUNC release every frame.
TEST(FileDataTest, TruncationReleasesFramesAndRegrowsAsZeroes) {
  SimWorld w;
  Process* p = w.NewProcess("trunc");
  std::shared_ptr<Inode> inode;
  w.kernel.SpawnThread(p, [&](Guest& g) -> GuestTask<void> {
    int fd = static_cast<int>(co_await g.Open("/tmp/trunc", kO_CREAT | kO_RDWR));
    inode = w.fs.Resolve("/tmp/trunc");
    GuestAddr buf = g.Alloc(3 * kPageSize);
    std::string xs(3 * kPageSize, 'x');
    g.Poke(buf, xs.data(), xs.size());
    EXPECT_EQ(co_await g.Write(fd, buf, xs.size()), static_cast<int64_t>(xs.size()));
    EXPECT_EQ(inode->data.resident_pages(), 3u);

    EXPECT_EQ(co_await g.Ftruncate(fd, 100), 0);
    EXPECT_EQ(inode->data.resident_pages(), 1u);
    EXPECT_EQ(co_await g.Ftruncate(fd, 3 * kPageSize), 0);
    EXPECT_EQ(inode->data.resident_pages(), 1u);  // Growing leaves a hole.
    EXPECT_EQ(co_await g.Pread(fd, buf, xs.size(), 0), static_cast<int64_t>(xs.size()));
    std::string back = g.PeekString(buf, xs.size());
    EXPECT_EQ(back.substr(0, 100), std::string(100, 'x'));
    EXPECT_EQ(back.substr(100), std::string(xs.size() - 100, '\0'));

    EXPECT_EQ(co_await g.Syscall(Sys::kTruncate, g.CString("/tmp/trunc"), 0), 0);
    EXPECT_EQ(inode->data.size(), 0u);
    EXPECT_EQ(inode->data.resident_pages(), 0u);

    g.Poke(buf, xs.data(), xs.size());
    EXPECT_EQ(co_await g.Pwrite(fd, buf, xs.size(), 0), static_cast<int64_t>(xs.size()));
    EXPECT_EQ(inode->data.resident_pages(), 3u);
    co_await g.Close(fd);
    fd = static_cast<int>(co_await g.Open("/tmp/trunc", kO_RDWR | kO_TRUNC));
    EXPECT_EQ(inode->data.size(), 0u);
    EXPECT_EQ(inode->data.resident_pages(), 0u);
    co_await g.Close(fd);
  });
  w.Run();
  ASSERT_NE(inode, nullptr);
}

TEST(PipeTest, WriteThenRead) {
  auto [rd, wr] = Pipe::Create();
  EXPECT_EQ(wr->Write("ping", 4, 0), 4);
  char buf[8];
  EXPECT_EQ(rd->Read(buf, 8, 0), 4);
  EXPECT_EQ(std::string(buf, 4), "ping");
}

TEST(PipeTest, EmptyPipeWouldBlock) {
  auto [rd, wr] = Pipe::Create();
  char b;
  EXPECT_EQ(rd->Read(&b, 1, 0), -kEAGAIN);
}

TEST(PipeTest, EofAfterWriterCloses) {
  auto [rd, wr] = Pipe::Create();
  wr->Write("x", 1, 0);
  wr->OnDescriptionClosed(kO_WRONLY);
  char b;
  EXPECT_EQ(rd->Read(&b, 1, 0), 1);
  EXPECT_EQ(rd->Read(&b, 1, 0), 0);  // EOF.
}

TEST(PipeTest, EpipeAfterReaderCloses) {
  auto [rd, wr] = Pipe::Create();
  rd->OnDescriptionClosed(kO_RDONLY);
  EXPECT_EQ(wr->Write("x", 1, 0), -kEPIPE);
}

TEST(PipeTest, CapacityLimitsWrites) {
  auto [rd, wr] = Pipe::Create(8);
  std::vector<uint8_t> data(16, 'a');
  EXPECT_EQ(wr->Write(data.data(), 16, 0), 8);  // Partial.
  EXPECT_EQ(wr->Write(data.data(), 1, 0), -kEAGAIN);
  char buf[8];
  EXPECT_EQ(rd->Read(buf, 8, 0), 8);
  EXPECT_EQ(wr->Write(data.data(), 4, 0), 4);
}

TEST(PipeTest, PollMasks) {
  auto [rd, wr] = Pipe::Create(8);
  EXPECT_EQ(rd->Poll(), 0u);
  EXPECT_EQ(wr->Poll(), kPollOut);
  wr->Write("hi", 2, 0);
  EXPECT_TRUE(rd->Poll() & kPollIn);
}

TEST(PipeTest, ReadWakesBlockedWriter) {
  auto [rd, wr] = Pipe::Create(4);
  wr->Write("full", 4, 0);
  bool woken = false;
  wr->poll_queue().AddWaiter([&] { woken = true; });
  char buf[4];
  rd->Read(buf, 4, 0);
  EXPECT_TRUE(woken);
}

TEST(EventFdTest, CounterSemantics) {
  EventFdFile ev(3);
  uint64_t v = 0;
  EXPECT_EQ(ev.Read(&v, 8, 0), 8);
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(ev.Read(&v, 8, 0), -kEAGAIN);
  uint64_t add = 5;
  EXPECT_EQ(ev.Write(&add, 8, 0), 8);
  EXPECT_TRUE(ev.Poll() & kPollIn);
}

TEST(EpollTest, AddCollectDel) {
  auto [rd, wr] = Pipe::Create();
  auto rd_shared = std::shared_ptr<File>(rd);
  EpollFile ep;
  ASSERT_EQ(ep.Ctl(kEpollCtlAdd, 5, rd_shared, kPollIn, 0xabcd), 0);
  EXPECT_TRUE(ep.Collect(16).empty());
  wr->Write("x", 1, 0);
  auto ready = ep.Collect(16);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].fd, 5);
  EXPECT_EQ(ready[0].data, 0xabcdu);
  ASSERT_EQ(ep.Ctl(kEpollCtlDel, 5, nullptr, 0, 0), 0);
  EXPECT_TRUE(ep.Collect(16).empty());
}

TEST(EpollTest, DuplicateAddFails) {
  auto [rd, wr] = Pipe::Create();
  auto shared = std::shared_ptr<File>(rd);
  EpollFile ep;
  EXPECT_EQ(ep.Ctl(kEpollCtlAdd, 1, shared, kPollIn, 0), 0);
  EXPECT_EQ(ep.Ctl(kEpollCtlAdd, 1, shared, kPollIn, 0), -kEEXIST);
}

TEST(EpollTest, ModChangesDataAndEvents) {
  auto [rd, wr] = Pipe::Create();
  auto shared = std::shared_ptr<File>(rd);
  EpollFile ep;
  ep.Ctl(kEpollCtlAdd, 1, shared, kPollIn, 1);
  ep.Ctl(kEpollCtlMod, 1, shared, kPollIn, 99);
  wr->Write("x", 1, 0);
  auto ready = ep.Collect(4);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].data, 99u);
}

TEST(EpollTest, ReadinessChangeNotifiesEpollPollQueue) {
  auto [rd, wr] = Pipe::Create();
  auto shared = std::shared_ptr<File>(rd);
  EpollFile ep;
  ep.Ctl(kEpollCtlAdd, 1, shared, kPollIn, 0);
  bool notified = false;
  ep.poll_queue().AddWaiter([&] { notified = true; });
  wr->Write("x", 1, 0);
  EXPECT_TRUE(notified);
  EXPECT_TRUE(ep.Poll() & kPollIn);
}

TEST(EpollTest, LookupDataForShadowMap) {
  auto [rd, wr] = Pipe::Create();
  auto shared = std::shared_ptr<File>(rd);
  EpollFile ep;
  ep.Ctl(kEpollCtlAdd, 7, shared, kPollIn, 0x7777);
  uint64_t data = 0;
  EXPECT_TRUE(ep.LookupData(7, &data));
  EXPECT_EQ(data, 0x7777u);
  EXPECT_FALSE(ep.LookupData(8, &data));
}

TEST(FdTableTest, InstallLowestFree) {
  FdTable fds(16);
  auto file = std::make_shared<EventFdFile>(0);
  auto d1 = std::make_shared<FileDescription>(file, 0);
  auto d2 = std::make_shared<FileDescription>(file, 0);
  EXPECT_EQ(fds.Install(d1), 0);
  EXPECT_EQ(fds.Install(d2), 1);
  fds.Close(0);
  auto d3 = std::make_shared<FileDescription>(file, 0);
  EXPECT_EQ(fds.Install(d3), 0);
}

TEST(FdTableTest, ExhaustionReturnsEmfile) {
  FdTable fds(2);
  auto file = std::make_shared<EventFdFile>(0);
  fds.Install(std::make_shared<FileDescription>(file, 0));
  fds.Install(std::make_shared<FileDescription>(file, 0));
  EXPECT_EQ(fds.Install(std::make_shared<FileDescription>(file, 0)), -kEMFILE);
}

TEST(DirHandleTest, FillDirentsPaginates) {
  Filesystem fs;
  fs.Mkdir("/d");
  for (int i = 0; i < 5; ++i) {
    fs.WriteWholeFile("/d/f" + std::to_string(i), "");
  }
  DirHandle dir(fs.Resolve("/d"));
  GuestDirent entries[2];
  uint64_t cursor = 0;
  EXPECT_EQ(dir.FillDirents(entries, 2, &cursor), 2);
  EXPECT_EQ(dir.FillDirents(entries, 2, &cursor), 2);
  EXPECT_EQ(dir.FillDirents(entries, 2, &cursor), 1);
  EXPECT_EQ(dir.FillDirents(entries, 2, &cursor), 0);
}

}  // namespace
}  // namespace remon
