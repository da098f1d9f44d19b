//===- tests/ModelsTest.cpp - Memory model and cachesim tests -------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// A small list-building program template runs identically on every
// model; the tests verify each model's lifetime semantics and that the
// cache simulator responds to locality the way Figure 10 relies on.
//
//===----------------------------------------------------------------------===//

#include "alloc/BestFitAllocator.h"
#include "alloc/LeaAllocator.h"
#include "backend/Backend.h"
#include "backend/Models.h"
#include "gc/GcHeap.h"

#include <gtest/gtest.h>

using namespace regions;

namespace {

template <class M> struct Cell {
  int Value = 0;
  typename M::template Ptr<Cell<M>> Next;
};

/// Builds an N-cell list in a scope, sums it, and tears the scope down.
template <class M> long buildSumAndDrop(M &Mem, int N) {
  [[maybe_unused]] typename M::Frame F;
  typename M::Token Scope = Mem.makeRegion();
  typename M::template Local<Cell<M>> Head = nullptr;
  for (int I = 0; I < N; ++I) {
    Cell<M> *C = Mem.template create<Cell<M>>(Scope);
    C->Value = I;
    C->Next = Head;
    Head = C;
  }
  long Sum = 0;
  for (Cell<M> *C = Head; C; C = C->Next)
    Sum += C->Value;
  // Individual-free discipline for malloc-style models.
  Cell<M> *C = Head;
  Head = nullptr;
  while (C) {
    Cell<M> *Next = C->Next;
    Mem.dispose(C);
    C = Next;
  }
  EXPECT_TRUE(Mem.dropRegion(Scope));
  return Sum;
}

TEST(ModelsTest, RegionModelRunsProgram) {
  RegionManager Mgr;
  RegionModel M(Mgr);
  EXPECT_EQ(buildSumAndDrop(M, 1000), 499500);
  EXPECT_EQ(Mgr.liveRegionCount(), 0u);
  EXPECT_EQ(Mgr.stats().TotalRegions, 1u);
}

TEST(ModelsTest, UnsafeRegionModelRunsProgram) {
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  RegionModel M(Mgr);
  EXPECT_EQ(buildSumAndDrop(M, 1000), 499500);
  EXPECT_EQ(Mgr.stats().BarrierAdjustments, 0u)
      << "unsafe regions never adjust counts";
}

TEST(ModelsTest, DirectModelFreesEverything) {
  LeaAllocator A;
  DirectModel M(A);
  EXPECT_EQ(buildSumAndDrop(M, 1000), 499500);
  EXPECT_EQ(A.stats().TotalFrees, A.stats().TotalAllocs)
      << "every object individually freed";
  EXPECT_EQ(A.stats().LiveRequestedBytes, 0u);
}

TEST(ModelsTest, GcModelNeverFrees) {
  GcHeap Heap;
  Heap.captureStackBottom();
  DirectModel M(Heap, nullptr, /*CallFree=*/false);
  EXPECT_EQ(buildSumAndDrop(M, 1000), 499500);
  EXPECT_EQ(Heap.stats().TotalFrees, 0u);
}

TEST(ModelsTest, EmuModelFreesAtScopeExit) {
  LeaAllocator A;
  EmulationRegionLib Lib(A);
  EmuModel M(Lib);
  EXPECT_EQ(buildSumAndDrop(M, 1000), 499500);
  // All list cells plus the region record freed at dropRegion.
  EXPECT_EQ(A.stats().TotalFrees, A.stats().TotalAllocs);
  EXPECT_EQ(Lib.stats().LiveRegions, 0u);
  EXPECT_EQ(Lib.stats().TotalRegions, 1u);
}

TEST(ModelsTest, EmuOverheadTracked) {
  LeaAllocator A;
  EmulationRegionLib Lib(A);
  EmuModel M(Lib);
  typename EmuModel::Token R = M.makeRegion();
  for (int I = 0; I < 10; ++I)
    M.create<Cell<EmuModel>>(R);
  EXPECT_EQ(Lib.stats().ListOverheadBytes,
            sizeof(EmuRegion) + 10 * sizeof(EmuRegion::ObjHeader));
  M.dropRegion(R);
}

TEST(ModelsTest, ScopedArenaAllocates) {
  RegionManager Mgr;
  RegionModel M(Mgr);
  rt::Frame F;
  RegionModel::Token Scope = M.makeRegion();
  ScopedArena<RegionModel> Arena{M, Scope};
  auto *P = static_cast<char *>(Arena.alloc(100));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(regionOf(P), Scope.get());
  EXPECT_TRUE(M.dropRegion(Scope));
}

TEST(ModelsTest, RegionModelBlobsNeverFinalize) {
  // allocBlob's thunk only reports a size: a region of blobs has
  // nothing to undo, so deleting it skips the cleanup scan.
  RegionManager Mgr;
  RegionModel M(Mgr);
  rt::Frame F;
  RegionModel::Token Scope = M.makeRegion();
  for (std::size_t N = 1; N < 200; N += 7)
    M.allocBlob(Scope.get(), N);
  M.allocBlob(Scope.get(), 3 * kPageSize); // large-object path
  EXPECT_FALSE(Scope->mayFinalize());
  EXPECT_TRUE(M.dropRegion(Scope));
  EXPECT_EQ(Mgr.stats().CleanupThunksRun, 0u);
  EXPECT_EQ(Mgr.stats().CleanupScansSkipped, 1u);
}

TEST(ModelsTest, ChecksumsAgreeAcrossModels) {
  long Expected = 499500;
  {
    RegionManager Mgr;
    RegionModel M(Mgr);
    EXPECT_EQ(buildSumAndDrop(M, 1000), Expected);
  }
  {
    BestFitAllocator A;
    DirectModel M(A);
    EXPECT_EQ(buildSumAndDrop(M, 1000), Expected);
  }
  {
    LeaAllocator A;
    EmulationRegionLib Lib(A);
    EmuModel M(Lib);
    EXPECT_EQ(buildSumAndDrop(M, 1000), Expected);
  }
}

//===----------------------------------------------------------------------===//
// Cache simulator
//===----------------------------------------------------------------------===//

TEST(CacheSimTest, RepeatedAccessHitsAfterFirstMiss) {
  CacheSim C;
  int X = 0;
  C.access(&X, 4, false);
  EXPECT_EQ(C.stats().L1Misses, 1u);
  for (int I = 0; I < 10; ++I)
    C.access(&X, 4, false);
  EXPECT_EQ(C.stats().L1Misses, 1u) << "subsequent accesses hit";
  EXPECT_EQ(C.stats().Reads, 11u);
}

TEST(CacheSimTest, WideAccessTouchesMultipleLines) {
  CacheSim C;
  alignas(64) char Buf[256];
  C.access(Buf, 256, true);
  EXPECT_EQ(C.stats().Writes, 256u / 32);
  EXPECT_EQ(C.stats().L1Misses, 256u / 32);
  EXPECT_GT(C.stats().WriteStallCycles, 0u);
}

TEST(CacheSimTest, SequentialBeatsScattered) {
  // The Figure 10 premise: a compact region layout (sequential sweep)
  // must incur fewer stalls than the same bytes scattered widely.
  CacheSim Seq, Scat;
  constexpr std::size_t N = 4096;
  static char Dense[N * 16];
  for (int Pass = 0; Pass < 4; ++Pass)
    for (std::size_t I = 0; I < N; ++I)
      Seq.access(Dense + I * 16, 16, false);
  static char Sparse[N * 512];
  for (int Pass = 0; Pass < 4; ++Pass)
    for (std::size_t I = 0; I < N; ++I)
      Scat.access(Sparse + I * 512, 16, false);
  EXPECT_LT(Seq.stats().totalStallCycles() * 4,
            Scat.stats().totalStallCycles());
}

TEST(CacheSimTest, L2CatchesL1Misses) {
  // Working set bigger than L1 (16K) but smaller than L2 (512K):
  // repeated sweeps miss L1 but hit L2.
  CacheSim C;
  constexpr std::size_t Bytes = 64 * 1024;
  static char Buf[Bytes];
  for (int Pass = 0; Pass < 4; ++Pass)
    for (std::size_t I = 0; I < Bytes; I += 32)
      C.access(Buf + I, 1, false);
  EXPECT_GT(C.stats().L1Misses, 3 * Bytes / 32);
  // After the first cold pass, L2 serves everything.
  EXPECT_LT(C.stats().L2Misses, 2 * Bytes / 64);
}

TEST(CacheSimTest, ResetClearsState) {
  CacheSim C;
  int X = 0;
  C.access(&X, 4, false);
  C.resetAll();
  EXPECT_EQ(C.stats().Reads, 0u);
  C.access(&X, 4, false);
  EXPECT_EQ(C.stats().L1Misses, 1u) << "cache content cleared too";
}

TEST(CacheSimTest, AssociativityReducesConflicts) {
  // Two lines mapping to the same set thrash a direct-mapped cache but
  // coexist in a 2-way cache.
  CacheSim::Params Direct;
  CacheSim::Params TwoWay;
  TwoWay.L1.Associativity = 2;
  CacheSim D(Direct), W(TwoWay);
  // Addresses 16K apart share the set in a 16K direct-mapped cache.
  static char Buf[64 * 1024];
  for (int I = 0; I < 100; ++I) {
    D.access(Buf, 4, false);
    D.access(Buf + 16 * 1024, 4, false);
    W.access(Buf, 4, false);
    W.access(Buf + 16 * 1024, 4, false);
  }
  EXPECT_GT(D.stats().L1Misses, 100u) << "direct-mapped thrashes";
  EXPECT_LE(W.stats().L1Misses, 4u) << "2-way holds both lines";
}

TEST(CacheSimTest, BackendNamesAreStable) {
  EXPECT_STREQ(backendName(BackendKind::RegionSafe), "reg");
  EXPECT_STREQ(backendName(BackendKind::RegionUnsafe), "unsafe");
  EXPECT_STREQ(backendName(BackendKind::Gc), "gc");
  EXPECT_TRUE(isRegionBackend(BackendKind::RegionUnsafe));
  EXPECT_FALSE(isRegionBackend(BackendKind::Lea));
  EXPECT_TRUE(isEmulationBackend(BackendKind::EmuLea));
}

} // namespace
