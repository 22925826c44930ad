// Unit tests for the memory substrate: address spaces, layout randomization, shm.

#include <gtest/gtest.h>

#include <cstring>

#include "src/mem/address_space.h"
#include "src/mem/layout.h"
#include "src/mem/shm.h"
#include "src/sim/rng.h"

namespace remon {
namespace {

TEST(AddressSpaceTest, MapReadWrite) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 8192, kProtRead | kProtWrite, false, "r"));
  uint64_t v = 0xdeadbeefcafef00dULL;
  EXPECT_TRUE(as.Write(0x10ff8, &v, 8).ok);  // Spans into the second page.
  uint64_t r = 0;
  EXPECT_TRUE(as.Read(0x10ff8, &r, 8).ok);
  EXPECT_EQ(r, v);
}

TEST(AddressSpaceTest, UnmappedAccessFaults) {
  AddressSpace as;
  uint8_t b = 0;
  AccessResult res = as.Read(0x500000, &b, 1);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.fault_addr, 0x500000u);
}

TEST(AddressSpaceTest, ProtectionEnforced) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead, false, "ro"));
  uint8_t b = 1;
  EXPECT_FALSE(as.Write(0x10000, &b, 1).ok);
  EXPECT_TRUE(as.Read(0x10000, &b, 1).ok);
  // Unchecked (monitor) access bypasses protections.
  EXPECT_TRUE(as.WriteUnchecked(0x10000, &b, 1).ok);
}

TEST(AddressSpaceTest, MprotectChangesPermissions) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 8192, kProtRead | kProtWrite, false, "rw"));
  ASSERT_TRUE(as.Protect(0x10000, 4096, kProtRead));
  uint8_t b = 1;
  EXPECT_FALSE(as.Write(0x10000, &b, 1).ok);
  EXPECT_TRUE(as.Write(0x11000, &b, 1).ok);
}

TEST(AddressSpaceTest, ProtectHugeLazyRegionIsVmaGranular) {
  // Protect() must validate and update at VMA granularity, touching only
  // materialized pages: a terabyte lazy region has ~2^28 pages, and a per-page
  // walk would hang the test, while the VMA walk is instant.
  AddressSpace as;
  constexpr GuestAddr kBase = 0x10000;
  constexpr uint64_t kTiB = 1ULL << 40;
  ASSERT_TRUE(as.MapFixed(kBase, kTiB, kProtRead | kProtWrite, false, "huge-lazy"));
  uint64_t v = 0xabcdef;
  ASSERT_TRUE(as.Write(kBase + (5ULL << 30), &v, 8).ok);  // Materialize two pages,
  ASSERT_TRUE(as.Write(kBase + (9ULL << 30), &v, 8).ok);  // far apart.

  ASSERT_TRUE(as.Protect(kBase, kTiB, kProtRead));
  // Materialized pages: data survives, writes now fault.
  uint64_t r = 0;
  EXPECT_TRUE(as.Read(kBase + (5ULL << 30), &r, 8).ok);
  EXPECT_EQ(r, v);
  EXPECT_FALSE(as.Write(kBase + (5ULL << 30), &v, 8).ok);
  EXPECT_FALSE(as.Write(kBase + (9ULL << 30), &v, 8).ok);
  // Untouched lazy pages: reads still serve zeroes, writes fault via the VMA prot.
  EXPECT_TRUE(as.Read(kBase + (100ULL << 30), &r, 8).ok);
  EXPECT_EQ(r, 0u);
  EXPECT_FALSE(as.Write(kBase + (100ULL << 30), &v, 8).ok);
  // Only the two touched pages are resident.
  EXPECT_LE(as.mapped_bytes(), 2 * kPageSize);

  // Re-enabling writes on a subrange splits the VMA and sticks for pages that
  // materialize later.
  ASSERT_TRUE(as.Protect(kBase + (200ULL << 30), 1ULL << 30, kProtRead | kProtWrite));
  EXPECT_TRUE(as.Write(kBase + (200ULL << 30) + 123, &v, 8).ok);
  EXPECT_FALSE(as.Write(kBase + (201ULL << 30) + 123, &v, 8).ok);
}

TEST(AddressSpaceTest, ProtectRejectsRangesWithGaps) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead | kProtWrite, false, "a"));
  ASSERT_TRUE(as.MapFixed(0x13000, 4096, kProtRead | kProtWrite, false, "b"));
  // [0x10000, 0x14000) has a hole at 0x11000..0x13000: mprotect must fail without
  // changing either mapping.
  EXPECT_FALSE(as.Protect(0x10000, 0x4000, kProtRead));
  uint8_t b = 1;
  EXPECT_TRUE(as.Write(0x10000, &b, 1).ok);
  EXPECT_TRUE(as.Write(0x13000, &b, 1).ok);
  // Adjacent VMAs with no hole protect fine across the boundary.
  ASSERT_TRUE(as.MapFixed(0x11000, 0x2000, kProtRead | kProtWrite, false, "fill"));
  EXPECT_TRUE(as.Protect(0x10000, 0x4000, kProtRead));
  EXPECT_FALSE(as.Write(0x12000, &b, 1).ok);
}

TEST(AddressSpaceTest, DoubleMapFails) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead, false, "a"));
  EXPECT_FALSE(as.MapFixed(0x10000, 4096, kProtRead, false, "b"));
}

TEST(AddressSpaceTest, LazyMappingMaterializesOnTouch) {
  AddressSpace as;
  // A 64 MiB demand-paged region costs nothing at map time...
  ASSERT_TRUE(as.MapFixed(0x10000, 64 * 1024 * 1024, kProtRead | kProtWrite, false, "lazy"));
  EXPECT_EQ(as.mapped_bytes(), 0u);
  // ...occupies the address range (overlap rejected, VMA visible)...
  EXPECT_FALSE(as.MapFixed(0x10000, 4096, kProtRead, false, "clash"));
  ASSERT_NE(as.FindVma(0x20000), nullptr);
  // ...reads back zeroes and accepts writes sparsely.
  uint64_t v = 0;
  EXPECT_TRUE(as.Read(0x1234560, &v, 8).ok);
  EXPECT_EQ(v, 0u);
  v = 0x1122334455667788ULL;
  EXPECT_TRUE(as.Write(0x2234560, &v, 8).ok);
  uint64_t r = 0;
  EXPECT_TRUE(as.Read(0x2234560, &r, 8).ok);
  EXPECT_EQ(r, v);
  // Only the touched pages materialized.
  EXPECT_LE(as.mapped_bytes(), 4 * kPageSize);
}

TEST(AddressSpaceTest, LazyMappingHonorsProtection) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 1 << 20, kProtRead, false, "lazy-ro"));
  uint8_t b = 1;
  EXPECT_FALSE(as.Write(0x10000, &b, 1).ok);   // Untouched page: prot from the VMA.
  EXPECT_TRUE(as.Read(0x10000, &b, 1).ok);
  EXPECT_FALSE(as.Write(0x10000, &b, 1).ok);   // Materialized page: still read-only.
  // mprotect on a partly-unmaterialized lazy region works; future pages inherit.
  ASSERT_TRUE(as.Protect(0x10000, 8192, kProtRead | kProtWrite));
  EXPECT_TRUE(as.Write(0x10000, &b, 1).ok);
  EXPECT_TRUE(as.Write(0x11000, &b, 1).ok);    // Was unmaterialized at Protect time.
}

TEST(AddressSpaceTest, LazyMappingResolvesFramesForFutexKeys) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 1 << 20, kProtRead | kProtWrite, false, "lazy"));
  uint64_t off = 0;
  Page* f1 = as.ResolveFrame(0x13008, &off);
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(off, 8u);
  // The frame is stable: a second resolution and a read see the same page.
  Page* f2 = as.ResolveFrame(0x13000, nullptr);
  EXPECT_EQ(f1, f2);
  EXPECT_FALSE(as.MapFixed(0x100000, 4096, kProtRead, false, "clash"));
}

TEST(AddressSpaceTest, UnmapThenRemap) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead, false, "a"));
  as.Unmap(0x10000, 4096);
  EXPECT_TRUE(as.MapFixed(0x10000, 4096, kProtRead, false, "b"));
  EXPECT_EQ(as.FindVma(0x10000)->name, "b");
}

TEST(AddressSpaceTest, PartialUnmapSplitsVma) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 3 * 4096, kProtRead, false, "abc"));
  as.Unmap(0x11000, 4096);  // Middle page.
  EXPECT_NE(as.FindVma(0x10000), nullptr);
  EXPECT_EQ(as.FindVma(0x11000), nullptr);
  EXPECT_NE(as.FindVma(0x12000), nullptr);
  uint8_t b = 0;
  EXPECT_TRUE(as.Read(0x10000, &b, 1).ok);
  EXPECT_FALSE(as.Read(0x11000, &b, 1).ok);
  EXPECT_TRUE(as.Read(0x12000, &b, 1).ok);
}

TEST(AddressSpaceTest, FindFreeRangeAvoidsMappings) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x7f0000000000, 4096, kProtRead, false, "occ"));
  GuestAddr found = as.FindFreeRange(0x7f0000000000, 8192);
  ASSERT_NE(found, 0u);
  EXPECT_TRUE(as.MapFixed(found, 8192, kProtRead, false, "new"));
}

TEST(AddressSpaceTest, SharedFramesAliasAcrossSpaces) {
  AddressSpace a;
  AddressSpace b;
  auto frames = std::make_shared<FrameTable>(1);
  ASSERT_TRUE(a.MapShared(0x10000, 4096, kProtRead | kProtWrite, "shm", frames, 0));
  ASSERT_TRUE(b.MapShared(0x90000, 4096, kProtRead | kProtWrite, "shm", frames, 0));
  uint32_t v = 12345;
  ASSERT_TRUE(a.Write(0x10010, &v, 4).ok);
  uint32_t r = 0;
  ASSERT_TRUE(b.Read(0x90010, &r, 4).ok);
  EXPECT_EQ(r, 12345u);
}

TEST(AddressSpaceTest, RemapGrowsInPlace) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead | kProtWrite, false, "g"));
  EXPECT_EQ(as.Remap(0x10000, 4096, 8192), 0x10000u);
  uint8_t b = 7;
  EXPECT_TRUE(as.Write(0x11000, &b, 1).ok);
}

TEST(AddressSpaceTest, RenderMapsListsRegions) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead | kProtExec, false, "libipmon"));
  std::string maps = as.RenderMaps();
  EXPECT_NE(maps.find("libipmon"), std::string::npos);
  EXPECT_NE(maps.find("r-x"), std::string::npos);
}

TEST(AddressSpaceTest, ReadCString) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead | kProtWrite, false, "s"));
  const char* msg = "hello";
  ASSERT_TRUE(as.Write(0x10000, msg, 6).ok);
  auto s = as.ReadCString(0x10000);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, "hello");
}

// ReadCString scans page by page: a string running into an unmapped page faults
// unless its NUL comes first, and one that crosses into a mapped page reads whole.
TEST(AddressSpaceTest, ReadCStringFaultsOnlyPastItsNul) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 2 * kPageSize, kProtRead | kProtWrite, false, "s"));
  const GuestAddr kLastByte = 0x10000 + 2 * kPageSize - 1;
  ASSERT_TRUE(as.Write(kLastByte - 2, "ab", 3).ok);  // "ab\0" ends the mapping.
  EXPECT_EQ(as.ReadCString(kLastByte - 2), std::optional<std::string>("ab"));
  ASSERT_TRUE(as.Write(kLastByte - 2, "abc", 3).ok);  // No NUL before the gap.
  EXPECT_EQ(as.ReadCString(kLastByte - 2), std::nullopt);
  // max_len stops the scan before the gap.
  EXPECT_EQ(as.ReadCString(kLastByte - 2, 3), std::optional<std::string>("abc"));
  // Across a page boundary inside the mapping.
  ASSERT_TRUE(as.Write(0x11000 - 3, "xyz12", 6).ok);
  EXPECT_EQ(as.ReadCString(0x11000 - 3), std::optional<std::string>("xyz12"));
  // A read-protected page faults like an unmapped one.
  ASSERT_TRUE(as.Write(0x11000 - 2, "pq", 2).ok);
  ASSERT_TRUE(as.Protect(0x11000, kPageSize, kProtNone));
  EXPECT_EQ(as.ReadCString(0x11000 - 2), std::nullopt);
  // An untouched page reads as zeroes, which end the string.
  AddressSpace lazy;
  ASSERT_TRUE(lazy.MapFixed(0x10000, 2 * kPageSize, kProtRead | kProtWrite, false, "l"));
  ASSERT_TRUE(lazy.Write(0x11000 - 2, "hi", 2).ok);
  EXPECT_EQ(lazy.ReadCString(0x11000 - 2), std::optional<std::string>("hi"));
  EXPECT_EQ(lazy.mapped_bytes(), kPageSize);
}

TEST(LayoutTest, DclWindowsAreDisjoint) {
  Rng rng(1);
  LayoutPlanner planner(&rng);
  LayoutPlan a = planner.PlanFor(0);
  LayoutPlan b = planner.PlanFor(1);
  LayoutPlan c = planner.PlanFor(2);
  // No code region of one replica may overlap any code region of another.
  auto overlaps = [](GuestAddr s1, uint64_t l1, GuestAddr s2, uint64_t l2) {
    return s1 < s2 + l2 && s2 < s1 + l1;
  };
  for (const LayoutPlan* x : {&a, &b, &c}) {
    for (const LayoutPlan* y : {&a, &b, &c}) {
      if (x == y) {
        continue;
      }
      EXPECT_FALSE(overlaps(x->code_base, x->code_size, y->code_base, y->code_size));
      EXPECT_FALSE(overlaps(x->ipmon_base, x->ipmon_size, y->ipmon_base, y->ipmon_size));
      EXPECT_FALSE(overlaps(x->code_base, x->code_size, y->ipmon_base, y->ipmon_size));
    }
  }
}

TEST(LayoutTest, AslrRandomizesBases) {
  Rng rng1(1);
  Rng rng2(2);
  LayoutPlanner p1(&rng1);
  LayoutPlanner p2(&rng2);
  EXPECT_NE(p1.PlanFor(0).heap_base, p2.PlanFor(0).heap_base);
}

TEST(LayoutTest, NoAslrIsDeterministic) {
  Rng rng1(1);
  Rng rng2(99);
  LayoutOptions opts;
  opts.aslr = false;
  LayoutPlanner p1(&rng1, opts);
  LayoutPlanner p2(&rng2, opts);
  EXPECT_EQ(p1.PlanFor(0).code_base, p2.PlanFor(0).code_base);
  EXPECT_EQ(p1.PlanFor(0).heap_base, p2.PlanFor(0).heap_base);
}

TEST(ShmTest, CreateFindAttachDetach) {
  ShmRegistry reg;
  int id = reg.Get(ShmRegistry::kIpcPrivate, 16384, true, 1);
  ASSERT_GE(id, 0);
  ShmSegment* seg = reg.Find(id);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->size, 16384u);
  EXPECT_EQ(seg->frames->size(), 4u);
  reg.OnAttach(id);
  reg.OnDetach(id);
  EXPECT_NE(reg.Find(id), nullptr);  // Not removed: no IPC_RMID yet.
}

TEST(ShmTest, RemovedSegmentDestroyedAfterLastDetach) {
  ShmRegistry reg;
  int id = reg.Get(ShmRegistry::kIpcPrivate, 4096, true, 1);
  reg.OnAttach(id);
  EXPECT_EQ(reg.Remove(id), 0);
  EXPECT_NE(reg.Find(id), nullptr);  // Still attached.
  reg.OnDetach(id);
  EXPECT_EQ(reg.Find(id), nullptr);
}

TEST(ShmTest, KeyedLookup) {
  ShmRegistry reg;
  int id1 = reg.Get(1234, 4096, true, 1);
  int id2 = reg.Get(1234, 4096, false, 2);
  EXPECT_EQ(id1, id2);
  EXPECT_LT(reg.Get(9999, 4096, false, 1), 0);  // ENOENT without create.
}

// --- Demand-paged shared segments ------------------------------------------------

// One 8-page segment attached by two address spaces at different addresses, the
// way IP-MON's replicas attach the replication buffer.
class ShmDemandPagingTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPages = 8;
  static constexpr GuestAddr kA = 0x7100'0000'0000ULL;
  static constexpr GuestAddr kB = 0x7f33'0000'0000ULL;

  void SetUp() override {
    id_ = reg_.Get(ShmRegistry::kIpcPrivate, kPages * kPageSize, true, 1);
    ASSERT_GE(id_, 0);
    ASSERT_TRUE(a_.MapShared(kA, kPages * kPageSize, kProtRead | kProtWrite, "sysv-shm",
                             reg_.Find(id_)->frames, 0));
    ASSERT_TRUE(b_.MapShared(kB, kPages * kPageSize, kProtRead | kProtWrite, "sysv-shm",
                             reg_.Find(id_)->frames, 0));
  }

  ShmRegistry reg_;
  int id_ = -1;
  AddressSpace a_;
  AddressSpace b_;
};

TEST_F(ShmDemandPagingTest, CreatingAndAttachingAllocatesNoFrame) {
  EXPECT_EQ(reg_.resident_pages(), 0u);
  EXPECT_EQ(a_.mapped_bytes(), 0u);
  EXPECT_EQ(b_.mapped_bytes(), 0u);
}

TEST_F(ShmDemandPagingTest, WriteThroughOneAttachReadsBackThroughTheOther) {
  uint64_t v = 0x1122334455667788ULL;
  ASSERT_TRUE(a_.Write(kA + 3 * kPageSize + 16, &v, sizeof(v)).ok);
  uint64_t r = 0;
  ASSERT_TRUE(b_.Read(kB + 3 * kPageSize + 16, &r, sizeof(r)).ok);
  EXPECT_EQ(r, v);
  // And back: B's write lands in the frame A already uses.
  ASSERT_TRUE(b_.WriteU32(kB + 3 * kPageSize, 77));
  EXPECT_EQ(a_.ReadU32(kA + 3 * kPageSize), 77u);
  EXPECT_EQ(reg_.resident_pages(), 1u);
}

TEST_F(ShmDemandPagingTest, PageOnlyOneAttacherWroteIsMaterializedInBoth) {
  ASSERT_TRUE(a_.WriteU32(kA + 5 * kPageSize, 1));
  EXPECT_TRUE(a_.PageMaterialized(kA + 5 * kPageSize));
  EXPECT_TRUE(b_.PageMaterialized(kB + 5 * kPageSize));
  EXPECT_FALSE(b_.PageMaterialized(kB + 4 * kPageSize));
  // The probes are read-only: the segment holds only the frame A wrote, and a
  // shared table is charged to no attacher's mapped_bytes().
  EXPECT_EQ(reg_.resident_pages(), 1u);
  EXPECT_EQ(b_.mapped_bytes(), 0u);
}

TEST_F(ShmDemandPagingTest, UntouchedPageReadsZeroAndStaysNonResident) {
  uint8_t buf[64];
  std::memset(buf, 0xab, sizeof(buf));
  ASSERT_TRUE(a_.Read(kA + 2 * kPageSize + 100, buf, sizeof(buf)).ok);
  for (uint8_t byte : buf) {
    EXPECT_EQ(byte, 0);
  }
  std::memset(buf, 0xab, sizeof(buf));
  ASSERT_TRUE(b_.ReadUnchecked(kB + 2 * kPageSize + 100, buf, sizeof(buf)).ok);
  EXPECT_EQ(buf[0], 0);
  EXPECT_FALSE(a_.PageMaterialized(kA + 2 * kPageSize));
  EXPECT_FALSE(b_.PageMaterialized(kB + 2 * kPageSize));
  EXPECT_EQ(reg_.resident_pages(), 0u);
}

TEST_F(ShmDemandPagingTest, ResolveFrameGivesBothAttachersOneFutexKey) {
  uint64_t off_a = 0;
  uint64_t off_b = 0;
  Page* fb = b_.ResolveFrame(kB + 6 * kPageSize + 40, &off_b);
  Page* fa = a_.ResolveFrame(kA + 6 * kPageSize + 40, &off_a);
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(off_a, 40u);
  EXPECT_EQ(off_b, 40u);
  EXPECT_EQ(reg_.resident_pages(), 1u);
}

TEST_F(ShmDemandPagingTest, MprotectSplitKeepsEachPageOnItsOwnFrame) {
  // Split A's mapping into [0,2) rw, [2,5) r, [5,8) rw before touching anything.
  ASSERT_TRUE(a_.Protect(kA + 2 * kPageSize, 3 * kPageSize, kProtRead));
  EXPECT_EQ(a_.Vmas().size(), 3u);
  for (uint32_t page = 0; page < kPages; ++page) {
    ASSERT_TRUE(b_.WriteU32(kB + page * kPageSize, 100 + page));
  }
  for (uint32_t page = 0; page < kPages; ++page) {
    EXPECT_EQ(a_.ReadU32(kA + page * kPageSize), 100 + page) << page;
    EXPECT_EQ(a_.ResolveFrame(kA + page * kPageSize, nullptr),
              b_.ResolveFrame(kB + page * kPageSize, nullptr))
        << page;
  }
  // The read-only middle still refuses writes through A, not through B.
  EXPECT_FALSE(a_.WriteU32(kA + 3 * kPageSize, 1));
  EXPECT_TRUE(a_.WriteU32(kA + 6 * kPageSize, 206));
  EXPECT_EQ(b_.ReadU32(kB + 6 * kPageSize), 206u);
}

TEST_F(ShmDemandPagingTest, RemapCannotGrowASharedMapping) {
  EXPECT_EQ(a_.Remap(kA, kPages * kPageSize, (kPages + 2) * kPageSize), 0u);
  EXPECT_EQ(a_.FindVma(kA)->length, kPages * kPageSize);
  EXPECT_EQ(a_.FindVma(kA + kPages * kPageSize), nullptr);
}

TEST_F(ShmDemandPagingTest, UnmappingOneAttachLeavesTheOthersBytes) {
  ASSERT_TRUE(a_.WriteU64(kA + kPageSize, 0xfeedULL));
  // IPC_RMID while B stays attached: B's mapping keeps the frame table alive.
  reg_.OnAttach(id_);
  ASSERT_EQ(reg_.Remove(id_), 0);
  a_.Unmap(kA, kPages * kPageSize);
  reg_.OnDetach(id_);
  EXPECT_EQ(reg_.Find(id_), nullptr);
  EXPECT_EQ(b_.ReadU64(kB + kPageSize), std::optional<uint64_t>(0xfeedULL));
  ASSERT_TRUE(b_.WriteU64(kB + 7 * kPageSize, 9));
  EXPECT_EQ(b_.ReadU64(kB + 7 * kPageSize), std::optional<uint64_t>(9));
}

}  // namespace
}  // namespace remon
