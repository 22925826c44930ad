// Unit tests for the shared deep-copy/compare metadata (CHECKREG / CHECKPOINTER /
// CHECKBUFFER semantics and result-region collection).

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <tuple>

#include "src/core/file_map.h"
#include "src/core/policy.h"
#include "src/core/replication_buffer.h"
#include "src/kernel/abi.h"
#include "src/kernel/syscall_meta.h"
#include "tests/test_util.h"

namespace remon {
namespace {

class MetaTest : public ::testing::Test {
 protected:
  MetaTest() {
    a_ = w_.NewProcess("meta-a", 0);
    b_ = w_.NewProcess("meta-b", 1);
    // Scratch buffers at *different* addresses, like diversified replicas.
    buf_a_ = a_->layout.heap_base + 0x1000;
    buf_b_ = b_->layout.heap_base + 0x9000;
  }

  void FillBoth(const void* data, uint64_t len) {
    ASSERT_TRUE(a_->mem().Write(buf_a_, data, len).ok);
    ASSERT_TRUE(b_->mem().Write(buf_b_, data, len).ok);
  }

  SimWorld w_;
  Process* a_;
  Process* b_;
  GuestAddr buf_a_;
  GuestAddr buf_b_;
};

TEST_F(MetaTest, ScalarArgsCompareByValue) {
  SyscallRequest ra{Sys::kLseek, {3, 100, 0, 0, 0, 0}};
  SyscallRequest rb{Sys::kLseek, {3, 100, 0, 0, 0, 0}};
  EXPECT_EQ(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
  rb.args[1] = 101;
  EXPECT_NE(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
}

TEST_F(MetaTest, PointerArgsCompareByNullnessOnly) {
  // CHECKPOINTER: diversified replicas legitimately pass different pointer values.
  SyscallRequest ra{Sys::kRead, {3, buf_a_, 64, 0, 0, 0}};
  SyscallRequest rb{Sys::kRead, {3, buf_b_, 64, 0, 0, 0}};
  EXPECT_EQ(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
  // Null vs non-null must differ.
  SyscallRequest rnull{Sys::kRead, {3, 0, 64, 0, 0, 0}};
  EXPECT_NE(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rnull));
}

TEST_F(MetaTest, WriteBuffersCompareByContent) {
  const char payload[] = "identical-content";
  FillBoth(payload, sizeof(payload));
  SyscallRequest ra{Sys::kWrite, {3, buf_a_, sizeof(payload), 0, 0, 0}};
  SyscallRequest rb{Sys::kWrite, {3, buf_b_, sizeof(payload), 0, 0, 0}};
  EXPECT_EQ(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
  // Flip one byte in B: divergence.
  char evil = 'X';
  ASSERT_TRUE(b_->mem().Write(buf_b_ + 3, &evil, 1).ok);
  EXPECT_NE(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
}

TEST_F(MetaTest, CStringsCompareByContent) {
  const char path[] = "/tmp/same-path";
  FillBoth(path, sizeof(path));
  SyscallRequest ra{Sys::kOpen, {buf_a_, 0, 0, 0, 0, 0}};
  SyscallRequest rb{Sys::kOpen, {buf_b_, 0, 0, 0, 0, 0}};
  EXPECT_EQ(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
  const char other[] = "/tmp/evil-path";
  ASSERT_TRUE(b_->mem().Write(buf_b_, other, sizeof(other)).ok);
  EXPECT_NE(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
}

TEST_F(MetaTest, IovecsCompareContentNotPointers) {
  const char chunk1[] = "AAAA";
  const char chunk2[] = "BBBBBB";
  // Replica A: iovec at buf_a_, data after it.
  GuestIovec iov_a[2] = {{buf_a_ + 256, 4}, {buf_a_ + 512, 6}};
  ASSERT_TRUE(a_->mem().Write(buf_a_, iov_a, sizeof(iov_a)).ok);
  ASSERT_TRUE(a_->mem().Write(buf_a_ + 256, chunk1, 4).ok);
  ASSERT_TRUE(a_->mem().Write(buf_a_ + 512, chunk2, 6).ok);
  // Replica B: same logical content at totally different addresses.
  GuestIovec iov_b[2] = {{buf_b_ + 64, 4}, {buf_b_ + 2048, 6}};
  ASSERT_TRUE(b_->mem().Write(buf_b_, iov_b, sizeof(iov_b)).ok);
  ASSERT_TRUE(b_->mem().Write(buf_b_ + 64, chunk1, 4).ok);
  ASSERT_TRUE(b_->mem().Write(buf_b_ + 2048, chunk2, 6).ok);

  SyscallRequest ra{Sys::kWritev, {3, buf_a_, 2, 0, 0, 0}};
  SyscallRequest rb{Sys::kWritev, {3, buf_b_, 2, 0, 0, 0}};
  EXPECT_EQ(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));

  // Different segment content diverges.
  ASSERT_TRUE(b_->mem().Write(buf_b_ + 2048, "CCCCCC", 6).ok);
  EXPECT_NE(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
}

TEST_F(MetaTest, EpollCtlComparesEventsNotData) {
  // epoll_event.data is a replica-local pointer: excluded from the compare (§3.9).
  GuestEpollEvent ev_a{kPollIn, buf_a_ + 0x100};
  GuestEpollEvent ev_b{kPollIn, buf_b_ + 0x700};
  ASSERT_TRUE(a_->mem().Write(buf_a_, &ev_a, sizeof(ev_a)).ok);
  ASSERT_TRUE(b_->mem().Write(buf_b_, &ev_b, sizeof(ev_b)).ok);
  SyscallRequest ra{Sys::kEpollCtl, {5, kEpollCtlAdd, 7, buf_a_, 0, 0}};
  SyscallRequest rb{Sys::kEpollCtl, {5, kEpollCtlAdd, 7, buf_b_, 0, 0}};
  EXPECT_EQ(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
  // But differing event masks diverge.
  ev_b.events = kPollIn | kPollOut;
  ASSERT_TRUE(b_->mem().Write(buf_b_, &ev_b, sizeof(ev_b)).ok);
  EXPECT_NE(SerializeCallSignature(a_, ra), SerializeCallSignature(b_, rb));
}

TEST_F(MetaTest, OutRegionsForRead) {
  SyscallRequest req{Sys::kRead, {3, buf_a_, 4096, 0, 0, 0}};
  // Successful partial read: region bounded by the return value.
  std::vector<OutRegion> regions = CollectOutRegions(a_, req, 100);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].addr, buf_a_);
  EXPECT_EQ(regions[0].len, 100u);
  // Failed call writes nothing.
  EXPECT_TRUE(CollectOutRegions(a_, req, -kEBADF).empty());
  // EOF writes nothing.
  EXPECT_TRUE(CollectOutRegions(a_, req, 0).empty());
}

TEST_F(MetaTest, OutRegionsForStat) {
  SyscallRequest req{Sys::kFstat, {3, buf_a_, 0, 0, 0, 0}};
  std::vector<OutRegion> regions = CollectOutRegions(a_, req, 0);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].len, sizeof(GuestStat));
}

TEST_F(MetaTest, OutRegionsForEpollWaitFlagged) {
  SyscallRequest req{Sys::kEpollWait, {5, buf_a_, 16, 100, 0, 0}};
  std::vector<OutRegion> regions = CollectOutRegions(a_, req, 3);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_TRUE(regions[0].is_epoll_events);
  EXPECT_EQ(regions[0].len, 3 * sizeof(GuestEpollEvent));
}

TEST_F(MetaTest, OutRegionsForAcceptSockaddr) {
  SyscallRequest req{Sys::kAccept, {3, buf_a_, buf_a_ + 64, 0, 0, 0}};
  std::vector<OutRegion> regions = CollectOutRegions(a_, req, 7);
  ASSERT_EQ(regions.size(), 2u);  // sockaddr + value-result length.
  EXPECT_EQ(regions[0].len, sizeof(GuestSockaddrIn));
  EXPECT_EQ(regions[1].len, 4u);
}

TEST_F(MetaTest, EstimateCoversActualFootprint) {
  // The CALCSIZE estimate must upper-bound signature + result payload for common
  // calls (else the RB reservation could overflow).
  const char payload[] = "0123456789abcdef";
  FillBoth(payload, sizeof(payload));
  for (SyscallRequest req : {SyscallRequest{Sys::kWrite, {3, buf_a_, 16, 0, 0, 0}},
                             SyscallRequest{Sys::kRead, {3, buf_a_, 4096, 0, 0, 0}},
                             SyscallRequest{Sys::kFstat, {3, buf_a_, 0, 0, 0, 0}},
                             SyscallRequest{Sys::kGettimeofday, {buf_a_, 0, 0, 0, 0, 0}}}) {
    uint64_t estimate = EstimateDataSize(a_, req);
    uint64_t sig = SerializeCallSignature(a_, req).size();
    uint64_t out = 0;
    for (const OutRegion& r : CollectOutRegions(a_, req, 16)) {
      out += r.len;
    }
    EXPECT_GE(estimate, sig + out) << SysName(req.nr);
  }
}

TEST_F(MetaTest, UnreadableMemoryYieldsFaultMarkerNotCrash) {
  SyscallRequest req{Sys::kWrite, {3, 0xdead0000000ULL, 64, 0, 0, 0}};
  std::vector<uint8_t> sig = SerializeCallSignature(a_, req);
  EXPECT_FALSE(sig.empty());  // Serialized with a fault marker, no abort.
}

TEST_F(MetaTest, EverySyscallHasRegisteredDescriptor) {
  // The kernel dispatcher, GHUMVEE, IP-MON, and the policy engine all route every
  // call through DescOf(); a syscall handled anywhere (syscalls_io.cc /
  // syscalls_fast.cc dispatch over the whole enum) without a table row would fall
  // back to a zeroed descriptor and silently skip comparison and replication.
  for (uint32_t i = 1; i < kNumSyscalls; ++i) {
    Sys nr = static_cast<Sys>(i);
    EXPECT_TRUE(DescOf(nr).registered) << SysName(nr);
  }
}

TEST_F(MetaTest, CalcsizeAgreesAcrossReplicasForRandomizedArgs) {
  // The RB cursors stay in lockstep only because master and slave compute identical
  // entry sizes. Diversified replicas pass different *pointer* values, so CALCSIZE
  // must depend only on value-class (CHECKREG) arguments: randomize every argument,
  // then re-randomize the non-value arguments for the "slave" and demand equality.
  std::mt19937_64 rng(20260730);
  for (uint32_t i = 1; i < kNumSyscalls; ++i) {
    Sys nr = static_cast<Sys>(i);
    const SyscallDesc& d = DescOf(nr);
    for (int round = 0; round < 16; ++round) {
      SyscallRequest master{nr, {}};
      SyscallRequest slave{nr, {}};
      for (int a = 0; a < 6; ++a) {
        uint64_t v = rng() & 0xfffff;  // Bounded: size args stay sane.
        master.args[a] = v;
        slave.args[a] = d.in[a].kind == In::kValue ? v : (rng() | 0x7f00'0000'0000ULL);
      }
      uint64_t m = EstimateDataSize(a_, master);
      uint64_t s = EstimateDataSize(b_, slave);
      EXPECT_EQ(m, s) << SysName(nr);
      EXPECT_EQ(RbEntryOps::EntrySize(0, m + 16), RbEntryOps::EntrySize(0, s + 16))
          << SysName(nr);
    }
  }
}

TEST_F(MetaTest, PolicyEngineMatchesDescriptorClassification) {
  // policy.cc is a thin interpreter over the registry: the Table 1 helpers must
  // agree with the descriptor fields for every syscall.
  for (uint32_t i = 1; i < kNumSyscalls; ++i) {
    Sys nr = static_cast<Sys>(i);
    const SyscallDesc& d = DescOf(nr);
    EXPECT_EQ(RelaxationPolicy::IsLocalCall(nr), d.local) << SysName(nr);
    EXPECT_EQ(RelaxationPolicy::ForcedCpCall(nr), d.forced_cp) << SysName(nr);
    EXPECT_EQ(RelaxationPolicy::IpmonSupports(nr),
              d.uncond != PolicyClass::kNever || d.conditional())
        << SysName(nr);
    // Forced-CP calls are never exempt, whatever the level.
    if (d.forced_cp) {
      RelaxationPolicy max_policy(PolicyLevel::kSocketRw);
      EXPECT_FALSE(max_policy.AllowsUnmonitored(nr, FdType::kRegular)) << SysName(nr);
    }
  }
}

TEST_F(MetaTest, ControlGateForwardsModeChangingCommands) {
  // fcntl F_SETFL / F_DUPFD and ioctl FIONBIO mutate FD metadata GHUMVEE owns.
  SyscallRequest setfl{Sys::kFcntl, {3, static_cast<uint64_t>(kF_SETFL), 0, 0, 0, 0}};
  SyscallRequest getfl{Sys::kFcntl, {3, static_cast<uint64_t>(kF_GETFL), 0, 0, 0, 0}};
  SyscallRequest dupfd{Sys::kFcntl, {3, static_cast<uint64_t>(kF_DUPFD), 0, 0, 0, 0}};
  SyscallRequest nbio{Sys::kIoctl, {3, kIoctlFionbio, 0, 0, 0, 0}};
  SyscallRequest nread{Sys::kIoctl, {3, kIoctlFionread, 0, 0, 0, 0}};
  SyscallRequest read{Sys::kRead, {3, 0, 16, 0, 0, 0}};
  EXPECT_TRUE(ControlNeedsMonitor(setfl));
  EXPECT_TRUE(ControlNeedsMonitor(dupfd));
  EXPECT_TRUE(ControlNeedsMonitor(nbio));
  EXPECT_FALSE(ControlNeedsMonitor(getfl));
  EXPECT_FALSE(ControlNeedsMonitor(nread));
  EXPECT_FALSE(ControlNeedsMonitor(read));
}

TEST_F(MetaTest, BlockingPredictionFollowsDescriptor) {
  FileMap fm;
  fm.Set(3, FdType::kRegular, /*nonblocking=*/false);
  fm.Set(4, FdType::kSocket, /*nonblocking=*/true);
  // FD-dependent: blocking descriptor blocks, O_NONBLOCK one does not.
  EXPECT_TRUE(PredictBlocking(SyscallRequest{Sys::kRead, {3, 0, 16, 0, 0, 0}}, fm));
  EXPECT_FALSE(PredictBlocking(SyscallRequest{Sys::kRead, {4, 0, 16, 0, 0, 0}}, fm));
  // Timeout-dependent: poll/epoll_wait block iff their ms timeout is nonzero.
  EXPECT_FALSE(PredictBlocking(SyscallRequest{Sys::kPoll, {0, 0, 0, 0, 0, 0}}, fm));
  EXPECT_TRUE(PredictBlocking(SyscallRequest{Sys::kPoll, {0, 0, 100, 0, 0, 0}}, fm));
  EXPECT_TRUE(PredictBlocking(
      SyscallRequest{Sys::kEpollWait, {5, 0, 8, static_cast<uint64_t>(-1), 0, 0}}, fm));
  // Unconditional sleepers and never-blocking queries.
  EXPECT_TRUE(PredictBlocking(SyscallRequest{Sys::kNanosleep, {0, 0, 0, 0, 0, 0}}, fm));
  EXPECT_FALSE(PredictBlocking(SyscallRequest{Sys::kGetpid, {0, 0, 0, 0, 0, 0}}, fm));
}

TEST_F(MetaTest, ExecDispatchEncodesMarshallingVariants) {
  EXPECT_EQ(DescOf(Sys::kRead).exec, ExecKind::kRead);
  EXPECT_EQ(DescOf(Sys::kRecvmsg).exec, ExecKind::kRead);
  EXPECT_EQ(DescOf(Sys::kSendto).exec, ExecKind::kWrite);
  EXPECT_EQ(DescOf(Sys::kPreadv).exec_flags, kExecPositional);
  EXPECT_EQ(DescOf(Sys::kAccept4).exec_flags & kExecFlagsArg, kExecFlagsArg);
  // The buffer shape of each read and write comes from the row's argument kinds.
  auto shape_of = [](Sys nr) {
    DataArg a = DataArgOf(DescOf(nr));
    return std::tuple(a.shape, a.arg, a.size_arg, a.socket);
  };
  EXPECT_EQ(shape_of(Sys::kRead), std::tuple(DataShape::kBuf, 1, 2, false));
  EXPECT_EQ(shape_of(Sys::kPwrite64), std::tuple(DataShape::kBuf, 1, 2, false));
  EXPECT_EQ(shape_of(Sys::kReadv), std::tuple(DataShape::kIovec, 1, 2, false));
  EXPECT_EQ(shape_of(Sys::kPwritev), std::tuple(DataShape::kIovec, 1, 2, false));
  EXPECT_EQ(shape_of(Sys::kRecvfrom), std::tuple(DataShape::kBuf, 1, 2, true));
  EXPECT_EQ(shape_of(Sys::kSendto), std::tuple(DataShape::kBuf, 1, 2, true));
  EXPECT_EQ(shape_of(Sys::kRecvmmsg), std::tuple(DataShape::kMsghdr, 1, -1, true));
  EXPECT_EQ(shape_of(Sys::kSendmsg), std::tuple(DataShape::kMsghdr, 1, -1, true));
  for (uint32_t i = 1; i < kNumSyscalls; ++i) {
    const SyscallDesc& d = DescOf(static_cast<Sys>(i));
    if (d.exec == ExecKind::kRead || d.exec == ExecKind::kWrite) {
      EXPECT_NE(DataArgOf(d).shape, DataShape::kNone) << SysName(static_cast<Sys>(i));
    }
  }
  EXPECT_EQ(DescOf(Sys::kGetpid).exec, ExecKind::kFast);
  // Path-argument marshalling: the *at variants name the same handler body.
  EXPECT_EQ(PathArg(DescOf(Sys::kOpen)), 0);
  EXPECT_EQ(PathArg(DescOf(Sys::kOpenat)), 1);
  EXPECT_EQ(PathArg(DescOf(Sys::kReadlinkat)), 1);
  EXPECT_EQ(PathArg(DescOf(Sys::kRead)), -1);
}

TEST_F(MetaTest, EveryFastPathCallHasDescriptor) {
  for (uint32_t i = 1; i < kNumSyscalls; ++i) {
    Sys nr = static_cast<Sys>(i);
    const SyscallDesc& d = DescOf(nr);
    // FD-based calls must name their FD argument for file-map lookups.
    if (nr == Sys::kRead || nr == Sys::kWrite || nr == Sys::kFstat ||
        nr == Sys::kEpollWait || nr == Sys::kRecvfrom || nr == Sys::kSendto) {
      EXPECT_EQ(d.fd_arg, 0) << SysName(nr);
    }
  }
  EXPECT_TRUE(DescOf(Sys::kRead).may_block());
  EXPECT_TRUE(DescOf(Sys::kAccept).may_block());
  EXPECT_FALSE(DescOf(Sys::kGetpid).may_block());
  EXPECT_TRUE(DescOf(Sys::kOpen).returns_fd());
  EXPECT_TRUE(DescOf(Sys::kSocket).returns_fd());
  EXPECT_FALSE(DescOf(Sys::kWrite).returns_fd());
}

}  // namespace
}  // namespace remon
