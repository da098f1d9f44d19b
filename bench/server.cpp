//===- bench/server.cpp - Region-per-request serving cost -----------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// The ROADMAP's north-star workload shape: a server opens a region per
// request, allocates the request's working set into it, and discards
// the whole thing when the response ships. The paper makes the discard
// nearly free; this suite measures the *creation* side that remains —
// and the rpool claim that recycling regions through
// RegionPool::acquire/release (in-place reset, retained page runs)
// beats the newRegion/deleteRegionRaw round trip per request.
//
//  - BM_RequestCycleNew     baseline: newRegion → populate → delete
//  - BM_RequestCyclePooled  rpool:    acquire   → populate → release
//
// Request footprints span 4 KB - 64 KB (one page to a few growth
// runs). Each request allocates the classic server mix: a handful of
// small header/metadata strings plus page-sized I/O buffers carrying
// the body (the shape Apache's bucket allocator serves with 8 KB heap
// buckets) — all pointer-free rstralloc-style blobs, so the measured
// delta is pure lifecycle cost, not cleanup-thunk execution. Each
// benchmark thread runs its own manager (and pool) — the library's
// threading model — so threads:N rows scale workers, not contention
// on one arena. ns/request is the inverse of items_per_second;
// osBytes flatness across pooled churn is test-enforced in PoolTest.
//
//===----------------------------------------------------------------------===//

#include "region/Pool.h"
#include "region/Regions.h"

#include <benchmark/benchmark.h>

using namespace regions;

namespace {

constexpr std::size_t kHeaderBytes = 64;   ///< method/URI/header copies
constexpr unsigned kHeaderCount = 4;
constexpr std::size_t kBucketBytes = 8192; ///< body I/O bucket (Apache-sized)

void *serveRequest(RegionManager &Mgr, Region *R, std::size_t Footprint) {
  void *Last = nullptr;
  for (unsigned I = 0; I != kHeaderCount; ++I)
    Last = Mgr.allocRaw(R, kHeaderBytes);
  for (std::size_t Left = Footprint - kHeaderCount * kHeaderBytes;
       Left != 0;) {
    std::size_t Chunk = Left < kBucketBytes ? Left : kBucketBytes;
    Last = Mgr.allocRaw(R, Chunk);
    Left -= Chunk;
  }
  return Last;
}

void BM_RequestCycleNew(benchmark::State &State) {
  const auto Footprint = static_cast<std::size_t>(State.range(0));
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{256} << 20};
  for (auto _ : State) {
    Region *R = Mgr.newRegion();
    benchmark::DoNotOptimize(serveRequest(Mgr, R, Footprint));
    benchmark::DoNotOptimize(Mgr.deleteRegionRaw(R));
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()));
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Footprint));
}

void BM_RequestCyclePooled(benchmark::State &State) {
  const auto Footprint = static_cast<std::size_t>(State.range(0));
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{256} << 20};
  RegionPool Pool{Mgr};
  for (auto _ : State) {
    Region *R = Pool.acquire();
    benchmark::DoNotOptimize(serveRequest(Mgr, R, Footprint));
    if (!Pool.release(R))
      State.SkipWithError("release refused: request left external refs");
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()));
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Footprint));
}

// 4 KB, 16 KB, 64 KB request footprints: one page, one growth cycle,
// and enough to exercise multi-run retention.
#define REQUEST_SIZES                                                          \
  ->Arg(std::size_t{4} << 10)                                                  \
      ->Arg(std::size_t{16} << 10)                                             \
      ->Arg(std::size_t{64} << 10)                                             \
      ->ThreadRange(1, 2)

BENCHMARK(BM_RequestCycleNew) REQUEST_SIZES;
BENCHMARK(BM_RequestCyclePooled) REQUEST_SIZES;

} // namespace

BENCHMARK_MAIN();
