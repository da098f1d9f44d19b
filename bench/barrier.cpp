//===- bench/barrier.cpp - Write-barrier microbenchmarks ------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Isolates the cost of the safe-mode reference-count machinery on
// pointer stores — the Figure 5 write barrier and its static/deferred
// shortcuts. Each benchmark reports items_per_second so ns/op can be
// read directly (e.g. `./build/bench/barrier --benchmark_format=json`).
//
// The cost ladder, fastest to slowest:
//   raw pointer store                 (no safety; the floor)
//   SameRegionPtr store               (statically elided barrier)
//   sameregion RegionPtr store        (dynamic sameregion early exit)
//   cross-region RegionPtr store      (full barrier: counts adjusted)
//   local rt::Ref write               (deferred counting: no counts)
//
//===----------------------------------------------------------------------===//

#include "region/Regions.h"

#include <benchmark/benchmark.h>

using namespace regions;

namespace {

constexpr int kBatch = 1024;

struct Node {
  RegionPtr<Node> Next;
};

struct FastNode {
  SameRegionPtr<FastNode> Next;
};

struct RawNode {
  RawNode *Next;
};

/// The floor: an uncounted pointer store into region memory.
void BM_RawPointerStore(benchmark::State &State) {
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  Region *R = Mgr.newRegion();
  auto *A = rnew<RawNode>(R);
  auto *B = rnew<RawNode>(R);
  for (auto _ : State) {
    for (int I = 0; I != kBatch; ++I) {
      A->Next = (I & 1) ? B : nullptr;
      benchmark::DoNotOptimize(A);
    }
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_RawPointerStore);

/// §5.6 static sameregion recognition: no barrier at all (the assert
/// compiles away only with NDEBUG; this repo keeps asserts on, so this
/// measures the checked form).
void BM_SameRegionPtrStore(benchmark::State &State) {
  RegionManager Mgr;
  Region *R = Mgr.newRegion();
  auto *A = rnew<FastNode>(R);
  auto *B = rnew<FastNode>(R);
  for (auto _ : State) {
    for (int I = 0; I != kBatch; ++I) {
      A->Next = (I & 1) ? B : nullptr;
      benchmark::DoNotOptimize(A);
    }
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_SameRegionPtrStore);

/// Dynamic sameregion: the barrier runs but takes the early exit.
void BM_BarrierSameRegionStore(benchmark::State &State) {
  RegionManager Mgr;
  Region *R = Mgr.newRegion();
  auto *A = rnew<Node>(R);
  auto *B = rnew<Node>(R);
  auto *C = rnew<Node>(R);
  for (auto _ : State) {
    for (int I = 0; I != kBatch; ++I) {
      A->Next = (I & 1) ? B : C;
      benchmark::DoNotOptimize(A);
    }
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_BarrierSameRegionStore);

/// The headline: a safe cross-region heap-pointer store. The slot lives
/// in one region, the stored values in two others, so every store
/// performs a decrement and an increment.
void BM_BarrierCrossRegionStore(benchmark::State &State) {
  RegionManager Mgr;
  Region *R1 = Mgr.newRegion();
  Region *R2 = Mgr.newRegion();
  Region *R3 = Mgr.newRegion();
  auto *A = rnew<Node>(R1);
  auto *B = rnew<Node>(R2);
  auto *C = rnew<Node>(R3);
  for (auto _ : State) {
    for (int I = 0; I != kBatch; ++I) {
      A->Next = (I & 1) ? B : C;
      benchmark::DoNotOptimize(A);
    }
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_BarrierCrossRegionStore);

/// Cross-region store through a slot in *global* storage (the paper's
/// global-write path: the slot is outside every region).
void BM_BarrierGlobalSlotStore(benchmark::State &State) {
  RegionManager Mgr;
  Region *R2 = Mgr.newRegion();
  Region *R3 = Mgr.newRegion();
  auto *B = rnew<Node>(R2);
  auto *C = rnew<Node>(R3);
  static RegionPtr<Node> Slot;
  for (auto _ : State) {
    for (int I = 0; I != kBatch; ++I) {
      Slot = (I & 1) ? B : C;
      benchmark::DoNotOptimize(&Slot);
    }
  }
  Slot = nullptr;
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_BarrierGlobalSlotStore);

/// Null <-> value flips: half the stores adjust one count, half the
/// other; exercises the null-handling branches.
void BM_BarrierNullFlipStore(benchmark::State &State) {
  RegionManager Mgr;
  Region *R1 = Mgr.newRegion();
  Region *R2 = Mgr.newRegion();
  auto *A = rnew<Node>(R1);
  auto *B = rnew<Node>(R2);
  for (auto _ : State) {
    for (int I = 0; I != kBatch; ++I) {
      A->Next = (I & 1) ? B : nullptr;
      benchmark::DoNotOptimize(A);
    }
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_BarrierNullFlipStore);

/// Deferred counting for locals: rt::Ref writes never touch counts.
void BM_LocalRefStore(benchmark::State &State) {
  RegionManager Mgr;
  rt::Frame F;
  Region *R = Mgr.newRegion();
  int *P = rnew<int>(R, 7);
  rt::Ref<int> Local;
  for (auto _ : State) {
    for (int I = 0; I != kBatch; ++I) {
      Local = (I & 1) ? P : nullptr;
      benchmark::DoNotOptimize(Local.get());
    }
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
}
BENCHMARK(BM_LocalRefStore);

/// Frame plus four registered locals: the per-call cost rt::Ref-heavy
/// code pays for shadow-stack registration.
void BM_FrameWithLocals(benchmark::State &State) {
  RegionManager Mgr;
  Region *R = Mgr.newRegion();
  int *P = rnew<int>(R, 7);
  for (auto _ : State) {
    rt::Frame F;
    rt::Ref<int> L0 = P;
    rt::Ref<int> L1 = P;
    rt::Ref<int> L2 = P;
    rt::Ref<int> L3 = P;
    benchmark::DoNotOptimize(L3.get());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FrameWithLocals);

/// Store-churn-then-delete: many cross-region stores into a young
/// region, cleared before the region dies. Exercises the count
/// adjustment path end to end, including the flush a deletion performs.
void BM_CrossRegionChurnDelete(benchmark::State &State) {
  RegionManager Mgr;
  Region *Stable = Mgr.newRegion();
  auto *Holder = rnew<Node>(Stable);
  for (auto _ : State) {
    Region *Young = Mgr.newRegion();
    auto *Target = rnew<Node>(Young);
    for (int I = 0; I != 64; ++I)
      Holder->Next = (I & 1) ? Target : nullptr;
    Holder->Next = nullptr;
    Mgr.deleteRegionRaw(Young);
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_CrossRegionChurnDelete);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("binary_optimized", "true");
#else
  benchmark::AddCustomContext("binary_optimized", "false");
#endif
#ifdef NDEBUG
  benchmark::AddCustomContext("binary_asserts", "off");
#else
  benchmark::AddCustomContext("binary_asserts", "on");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
