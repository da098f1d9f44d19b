//===- bench/micro_alloc.cpp - Microbenchmarks of primitive costs --------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Quantifies the paper's §1 claim: region "allocation is about twice as
// fast [as malloc] and deallocation is much faster", plus the costs of
// the individual safety primitives (write barrier paths, frame
// push/pop, regionOf).
//
//===----------------------------------------------------------------------===//

#include "alloc/BestFitAllocator.h"
#include "alloc/LeaAllocator.h"
#include "alloc/PowerOfTwoAllocator.h"
#include "region/Regions.h"

#include <benchmark/benchmark.h>

using namespace regions;

namespace {

constexpr std::size_t kObjectBytes = 32;
constexpr int kBatch = 1024;

void BM_RegionAlloc(benchmark::State &State) {
  RegionManager Mgr{SafetyConfig::unsafeConfig(), std::size_t{1} << 30};
  for (auto _ : State) {
    Region *R = Mgr.newRegion();
    for (int I = 0; I != kBatch; ++I)
      benchmark::DoNotOptimize(Mgr.allocRaw(R, kObjectBytes));
    Mgr.deleteRegionRaw(R);
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_RegionAlloc);

void BM_RegionAllocSafe(benchmark::State &State) {
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{1} << 30};
  ScanThunk Thunk = [](void *) -> std::size_t { return kObjectBytes; };
  for (auto _ : State) {
    Region *R = Mgr.newRegion();
    for (int I = 0; I != kBatch; ++I)
      benchmark::DoNotOptimize(Mgr.allocScanned(R, kObjectBytes, Thunk));
    Mgr.deleteRegionRaw(R);
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_RegionAllocSafe);

/// Raw (pointer-free) allocation under the safe configuration: the str
/// side has no headers or clearing, so safety should cost nothing here.
void BM_RegionAllocSafeRaw(benchmark::State &State) {
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{1} << 30};
  for (auto _ : State) {
    Region *R = Mgr.newRegion();
    for (int I = 0; I != kBatch; ++I)
      benchmark::DoNotOptimize(Mgr.allocRaw(R, kObjectBytes));
    Mgr.deleteRegionRaw(R);
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_RegionAllocSafeRaw);

/// Cleared pointer-free allocation (rnewArray's trivial path): on
/// never-recycled pages the clear is free.
void BM_RegionAllocZeroedRaw(benchmark::State &State) {
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{1} << 30};
  for (auto _ : State) {
    Region *R = Mgr.newRegion();
    for (int I = 0; I != kBatch; ++I)
      benchmark::DoNotOptimize(Mgr.allocRawZeroed(R, kObjectBytes));
    Mgr.deleteRegionRaw(R);
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_RegionAllocZeroedRaw);

template <class Allocator> void BM_MallocFree(benchmark::State &State) {
  Allocator A(std::size_t{1} << 28);
  void *Ptrs[kBatch];
  for (auto _ : State) {
    for (int I = 0; I != kBatch; ++I) {
      Ptrs[I] = A.malloc(kObjectBytes);
      benchmark::DoNotOptimize(Ptrs[I]);
    }
    for (int I = 0; I != kBatch; ++I)
      A.free(Ptrs[I]);
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_MallocFree<BestFitAllocator>)->Name("BM_MallocFree_sun");
BENCHMARK(BM_MallocFree<PowerOfTwoAllocator>)->Name("BM_MallocFree_bsd");
BENCHMARK(BM_MallocFree<LeaAllocator>)->Name("BM_MallocFree_lea");

/// Deallocation comparison: deleting one region vs freeing its objects
/// one by one (the "deallocation is much faster" claim).
void BM_RegionBulkDelete(benchmark::State &State) {
  RegionManager Mgr{SafetyConfig::unsafeConfig(), std::size_t{1} << 30};
  for (auto _ : State) {
    Region *R = Mgr.newRegion();
    for (int I = 0; I != kBatch; ++I)
      Mgr.allocRaw(R, kObjectBytes);
    Mgr.deleteRegionRaw(R); // timed together; deletion is O(pages)
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_RegionBulkDelete);

void BM_WriteBarrierSameRegion(benchmark::State &State) {
  RegionManager Mgr;
  struct Node {
    RegionPtr<Node> Next;
  };
  Region *R = Mgr.newRegion();
  Node *A = rnew<Node>(R);
  Node *B = rnew<Node>(R);
  for (auto _ : State) {
    A->Next = B; // sameregion: never counted
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_WriteBarrierSameRegion);

void BM_WriteBarrierCrossRegion(benchmark::State &State) {
  RegionManager Mgr;
  struct Node {
    RegionPtr<Node> Next;
  };
  Region *R1 = Mgr.newRegion();
  Region *R2 = Mgr.newRegion();
  Region *R3 = Mgr.newRegion();
  Node *A = rnew<Node>(R1);
  Node *B = rnew<Node>(R2);
  Node *C = rnew<Node>(R3);
  bool Flip = false;
  for (auto _ : State) {
    A->Next = Flip ? B : C; // decrement + increment every time
    Flip = !Flip;
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_WriteBarrierCrossRegion);

void BM_RegionOf(benchmark::State &State) {
  RegionManager Mgr;
  Region *R = Mgr.newRegion();
  void *P = Mgr.allocRaw(R, 64);
  for (auto _ : State)
    benchmark::DoNotOptimize(regionOf(P));
}
BENCHMARK(BM_RegionOf);

/// The two-manager lookup check: pointers from two managers alternate.
/// Each manager owns a fixed slot of one span, so each of the two
/// lookups should cost what BM_RegionOf's one does.
void BM_RegionOfAlternatingArenas(benchmark::State &State) {
  RegionManager Mgr1{SafetyConfig::safeConfig(), std::size_t{64} << 20};
  RegionManager Mgr2{SafetyConfig::safeConfig(), std::size_t{64} << 20};
  void *P1 = Mgr1.allocRaw(Mgr1.newRegion(), 64);
  void *P2 = Mgr2.allocRaw(Mgr2.newRegion(), 64);
  for (auto _ : State) {
    benchmark::DoNotOptimize(regionOf(P1));
    benchmark::DoNotOptimize(regionOf(P2));
  }
}
BENCHMARK(BM_RegionOfAlternatingArenas);

void BM_FramePushPop(benchmark::State &State) {
  for (auto _ : State) {
    rt::Frame F;
    benchmark::DoNotOptimize(&F);
  }
}
BENCHMARK(BM_FramePushPop);

void BM_LocalRefWrite(benchmark::State &State) {
  RegionManager Mgr;
  rt::Frame F;
  Region *R = Mgr.newRegion();
  int *P = rnew<int>(R, 7);
  rt::Ref<int> Local;
  for (auto _ : State) {
    Local = P; // deferred: no count updates
    benchmark::DoNotOptimize(Local.get());
    Local = nullptr;
  }
}
BENCHMARK(BM_LocalRefWrite);

void BM_DeleteRegionWithStackScan(benchmark::State &State) {
  RegionManager Mgr;
  rt::Frame F;
  // A handful of live locals pointing at a long-lived region.
  Region *Keep = Mgr.newRegion();
  rt::Ref<int> L1 = rnew<int>(Keep, 1);
  rt::Ref<int> L2 = rnew<int>(Keep, 2);
  rt::Ref<int> L3 = rnew<int>(Keep, 3);
  for (auto _ : State) {
    rt::Frame Inner;
    rt::RegionHandle R = Mgr.newRegion();
    rnew<int>(R, 4);
    benchmark::DoNotOptimize(deleteRegion(R));
  }
  (void)L1;
  (void)L2;
  (void)L3;
}
BENCHMARK(BM_DeleteRegionWithStackScan);

} // namespace

BENCHMARK_MAIN();
