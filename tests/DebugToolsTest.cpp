//===- tests/DebugToolsTest.cpp - Debug aids and std allocator ------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Covers the region-debugging environment (the diagnosis tool the
// paper's §5.1 wishes for), the manager report, and the standard-
// library allocator adapter.
//
//===----------------------------------------------------------------------===//

#include "region/Debug.h"
#include "region/Metrics.h"
#include "region/Parallel.h"
#include "region/Regions.h"
#include "region/StdAllocator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace regions;

namespace {

struct Node {
  int V = 0;
  RegionPtr<Node> Next;
};

RegionPtr<Node> GlobalNode;

struct DebugToolsTest : ::testing::Test {
  void SetUp() override { GlobalNode = nullptr; }
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};
};

//===----------------------------------------------------------------------===//
// diagnoseDeletion
//===----------------------------------------------------------------------===//

TEST_F(DebugToolsTest, CleanRegionWouldSucceed) {
  rt::Frame F;
  rt::RegionHandle R = Mgr.newRegion();
  rnew<Node>(R);
  DeletionDiagnosis D = diagnoseDeletion(R.get(), R.slotAddress());
  EXPECT_TRUE(D.WouldSucceed);
  EXPECT_EQ(D.CountedRefs, 0);
  EXPECT_TRUE(D.BlockingStackSlots.empty());
  EXPECT_TRUE(deleteRegion(R)) << "diagnosis must agree with reality";
}

TEST_F(DebugToolsTest, FindsTheStaleLocal) {
  rt::Frame F;
  rt::RegionHandle R = Mgr.newRegion();
  rt::Ref<Node> Stale = rnew<Node>(R);
  DeletionDiagnosis D = diagnoseDeletion(R.get(), R.slotAddress());
  EXPECT_FALSE(D.WouldSucceed);
  ASSERT_EQ(D.BlockingStackSlots.size(), 1u);
  EXPECT_EQ(D.BlockingStackSlots[0],
            reinterpret_cast<void *const *>(Stale.slotAddress()))
      << "the diagnosis must name the exact offending local";
  EXPECT_EQ(D.BlockingStackValues[0], Stale.get());
  EXPECT_FALSE(deleteRegion(R));
  Stale = nullptr;
  EXPECT_TRUE(diagnoseDeletion(R.get(), R.slotAddress()).WouldSucceed);
  EXPECT_TRUE(deleteRegion(R));
}

TEST_F(DebugToolsTest, CountsGlobalAndCrossRegionRefs) {
  rt::Frame F;
  rt::RegionHandle R = Mgr.newRegion();
  rt::RegionHandle Other = Mgr.newRegion();
  Node *In = rnew<Node>(R);
  GlobalNode = In;
  rnew<Node>(Other)->Next = In;
  DeletionDiagnosis D = diagnoseDeletion(R.get(), R.slotAddress());
  EXPECT_FALSE(D.WouldSucceed);
  EXPECT_EQ(D.CountedRefs, 2) << "one global + one cross-region";
  EXPECT_TRUE(D.BlockingStackSlots.empty());
  GlobalNode = nullptr;
  EXPECT_EQ(diagnoseDeletion(R.get(), R.slotAddress()).CountedRefs, 1);
  EXPECT_TRUE(deleteRegion(Other));
  EXPECT_TRUE(diagnoseDeletion(R.get(), R.slotAddress()).WouldSucceed);
  EXPECT_TRUE(deleteRegion(R));
}

TEST_F(DebugToolsTest, DiagnosisIsNonMutating) {
  rt::Frame F;
  rt::RegionHandle R = Mgr.newRegion();
  rt::Ref<Node> Keep = rnew<Node>(R);
  long long Before = R->referenceCount();
  for (int I = 0; I != 10; ++I)
    diagnoseDeletion(R.get(), R.slotAddress());
  EXPECT_EQ(R->referenceCount(), Before);
  EXPECT_EQ(rt::RuntimeStack::current().scannedFrameCount(), 0u)
      << "diagnosis must not move the high-water mark";
  Keep = nullptr;
  EXPECT_TRUE(deleteRegion(R));
}

TEST_F(DebugToolsTest, UnsafeRegionsAlwaysDiagnoseDeletable) {
  RegionManager Unsafe{SafetyConfig::unsafeConfig(), std::size_t{16} << 20};
  rt::Frame F;
  Region *R = Unsafe.newRegion();
  rt::Ref<Node> Stale = rnew<Node>(R);
  EXPECT_TRUE(diagnoseDeletion(R).WouldSucceed);
  Stale = nullptr;
  EXPECT_TRUE(Unsafe.deleteRegionRaw(R));
}

TEST_F(DebugToolsTest, AnonymousDiagnosisCountsHandle) {
  // Without an excluded handle, a counted global handle is a blocker.
  static RegionPtr<Region> Handle;
  Handle = Mgr.newRegion();
  EXPECT_FALSE(diagnoseDeletion(Handle.get()).WouldSucceed);
  EXPECT_TRUE(diagnoseDeletion(Handle.get(), Handle.slotAddress(),
                               /*HandleCounted=*/true)
                  .WouldSucceed);
  EXPECT_TRUE(deleteRegion(Handle));
}

TEST_F(DebugToolsTest, SharedRegionWouldNotSucceed) {
  // deleteRegion and resetRegion abort on a shared region in every
  // configuration, however clean it is; the diagnosis must say so and
  // point at tryDelete, and clear once tryDelete has retired it.
  RegionManager Unsafe{SafetyConfig::unsafeConfig(), std::size_t{16} << 20};
  par::ParallelSpace Space;
  for (RegionManager *M : {&Mgr, &Unsafe}) {
    Region *R = M->newRegion();
    EXPECT_FALSE(diagnoseDeletion(R).Shared);
    par::SharedRegion *S = Space.share(R);
    DeletionDiagnosis D = diagnoseDeletion(R);
    EXPECT_TRUE(D.Shared);
    EXPECT_FALSE(D.WouldSucceed) << "deleteRegion would abort";
    EXPECT_EQ(D.CountedRefs, 0);
    char *Buf = nullptr;
    std::size_t Len = 0;
    std::FILE *Mem = open_memstream(&Buf, &Len);
    printDiagnosis(D, R, Mem);
    std::fclose(Mem);
    std::string Out(Buf, Len);
    free(Buf);
    EXPECT_NE(Out.find("FAIL"), std::string::npos);
    EXPECT_NE(Out.find("ParallelSpace::tryDelete"), std::string::npos);
    EXPECT_TRUE(Space.tryDelete(S));
  }
}

TEST_F(DebugToolsTest, PrintFunctionsProduceOutput) {
  rt::Frame F;
  rt::RegionHandle R = Mgr.newRegion();
  rt::Ref<Node> Stale = rnew<Node>(R);
  DeletionDiagnosis D = diagnoseDeletion(R.get(), R.slotAddress());

  char *Buf = nullptr;
  std::size_t Len = 0;
  std::FILE *Mem = open_memstream(&Buf, &Len);
  printDiagnosis(D, R.get(), Mem);
  printMetrics(Mgr.metrics(), Mem);
  std::fclose(Mem);
  std::string Out(Buf, Len);
  free(Buf);
  EXPECT_NE(Out.find("FAIL"), std::string::npos);
  EXPECT_NE(Out.find("live local"), std::string::npos);
  EXPECT_NE(Out.find("barrier stores"), std::string::npos);
  Stale = nullptr;
  EXPECT_TRUE(deleteRegion(R));
}

//===----------------------------------------------------------------------===//
// RegionStdAllocator
//===----------------------------------------------------------------------===//

TEST_F(DebugToolsTest, VectorOverRegion) {
  Region *R = Mgr.newRegion();
  std::vector<int, RegionStdAllocator<int>> V{RegionStdAllocator<int>(R)};
  for (int I = 0; I != 10000; ++I)
    V.push_back(I);
  EXPECT_EQ(regionOf(V.data()), R);
  long Sum = 0;
  for (int X : V)
    Sum += X;
  EXPECT_EQ(Sum, 49995000);
  // Growth left old buffers as region garbage: requested > final size.
  EXPECT_GT(R->requestedBytes(), V.size() * sizeof(int));
  V = decltype(V)(RegionStdAllocator<int>(R)); // drop the buffer first
  EXPECT_TRUE(Mgr.deleteRegionRaw(R));
}

TEST_F(DebugToolsTest, StringOverRegion) {
  Region *R = Mgr.newRegion();
  using RStr =
      std::basic_string<char, std::char_traits<char>,
                        RegionStdAllocator<char>>;
  RStr S{RegionStdAllocator<char>(R)};
  for (int I = 0; I != 100; ++I)
    S += "regions! ";
  EXPECT_EQ(S.size(), 900u);
  EXPECT_EQ(regionOf(S.data()), R);
}

TEST_F(DebugToolsTest, AllocatorEqualityFollowsRegion) {
  Region *R1 = Mgr.newRegion();
  Region *R2 = Mgr.newRegion();
  RegionStdAllocator<int> A1(R1), A1b(R1);
  RegionStdAllocator<long> A2(R2);
  EXPECT_TRUE(A1 == A1b);
  EXPECT_TRUE(A1 != A2);
  RegionStdAllocator<double> Rebound(A1);
  EXPECT_EQ(Rebound.region(), R1);
}

static_assert(detail::IsRegionPtr<RegionPtr<Node>>::value,
              "RegionStdAllocator<RegionPtr<Node>> must not compile");
static_assert(!detail::IsRegionPtr<Node *>::value &&
                  !detail::IsRegionPtr<Node>::value,
              "plain pointers and structs stay allowed");

TEST_F(DebugToolsTest, RegionPtrInPointerFreeStorageLeaksItsCount) {
  // What RegionStdAllocator's RegionPtr check prevents: pointer-free
  // storage is never scanned, so a RegionPtr placed there is counted by
  // the barrier but never destroyed. Its target outlives the holder
  // with a count nobody can release, and can never be deleted.
  Region *Holder = Mgr.newRegion();
  Region *Target = Mgr.newRegion();
  void *Slot = Mgr.allocRaw(Holder, sizeof(RegionPtr<Node>));
  ::new (Slot) RegionPtr<Node>(rnew<Node>(Target));
  EXPECT_EQ(Target->referenceCount(), 1);
  EXPECT_TRUE(Mgr.deleteRegionRaw(Holder));
  EXPECT_EQ(Target->referenceCount(), 1) << "no cleanup released the count";
  EXPECT_FALSE(Mgr.deleteRegionRaw(Target));
}

TEST_F(DebugToolsTest, NestedContainersOverOneRegion) {
  Region *R = Mgr.newRegion();
  using InnerVec = std::vector<int, RegionStdAllocator<int>>;
  using OuterVec =
      std::vector<InnerVec, RegionStdAllocator<InnerVec>>;
  OuterVec Outer{RegionStdAllocator<InnerVec>(R)};
  for (int I = 0; I != 50; ++I) {
    InnerVec Inner{RegionStdAllocator<int>(R)};
    for (int J = 0; J != I; ++J)
      Inner.push_back(J);
    Outer.push_back(std::move(Inner));
  }
  EXPECT_EQ(Outer[49].size(), 49u);
  EXPECT_EQ(regionOf(Outer.data()), R);
  EXPECT_EQ(regionOf(Outer[49].data()), R);
}

} // namespace
