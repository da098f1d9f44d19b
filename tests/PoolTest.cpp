//===- tests/PoolTest.cpp - rpool reset + RegionPool behaviour ------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Locks in the rpool subsystem (region/Pool.h, resetRegion): in-place
// reset semantics (same storage, fresh logical region), the safety
// protocol parity with deleteregion (refusal on live references,
// fatality on shared regions), bounded retention (page budget, trims),
// OS-footprint flatness across region-per-request churn, stats/metrics
// plumbing, zero cost when unused, poisoned use-after-reset detection
// where build flags allow, and warm pooled cycles that never reach the
// page source (why bench/server's pooled cycles beat new/delete).
//
//===----------------------------------------------------------------------===//

#include "region/Metrics.h"
#include "region/Parallel.h"
#include "region/Pool.h"
#include "region/Regions.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

using namespace regions;

namespace {

// The footprint-flatness assertions require freed and trimmed pages to
// recycle immediately; hardened builds park them in quarantine.
struct PoolTest : ::testing::Test {
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{256} << 20};
  void SetUp() override { Mgr.setQuarantineBudget(0); }
};

/// Not trivially destructible, so rnew puts it on the normal list.
struct Scanned {
  ~Scanned() {}
  int Value = 0;
};

// One region-per-request cycle: a few header strings plus a body large
// enough to exercise both bump pages and (at kBig) a large-object run.
void serveRequest(RegionManager &Mgr, Region *R, std::size_t BodyBytes) {
  for (int I = 0; I != 4; ++I)
    Mgr.allocRaw(R, 64);
  for (std::size_t Left = BodyBytes; Left != 0;) {
    std::size_t Chunk = Left < 8192 ? Left : 8192;
    Mgr.allocRaw(R, Chunk);
    Left -= Chunk;
  }
}

TEST_F(PoolTest, AcquireReusesTheReleasedRegionInPlace) {
  RegionPool Pool{Mgr};
  Region *R = Pool.acquire();
  EXPECT_EQ(Mgr.metrics().Pool.Misses, 1u); // cold: nothing cached yet
  unsigned FirstId = R->id();
  serveRequest(Mgr, R, 16384);
  EXPECT_GT(R->allocCount(), 0u);

  ASSERT_TRUE(Pool.release(R));
  EXPECT_EQ(Pool.cachedRegions(), 1u);
  EXPECT_GT(Pool.retainedPages(), 0u);

  Region *Again = Pool.acquire();
  EXPECT_EQ(Again, R) << "same storage, recycled in place";
  EXPECT_GT(Again->id(), FirstId) << "but a fresh logical region";
  EXPECT_EQ(Again->allocCount(), 0u);
  EXPECT_EQ(Again->requestedBytes(), 0u);
  EXPECT_EQ(Again->referenceCount(), 0);
  EXPECT_EQ(Mgr.metrics().Pool.Hits, 1u);
  ASSERT_TRUE(Pool.release(Again));
}

TEST_F(PoolTest, ResetLeavesTheFirstPageUnadopted) {
  // The first incarnation's scanned object puts the first page on the
  // normal list. After the reset either list may adopt it again: here
  // the next incarnation's raw data lands there, and its scanned
  // object re-carves a reservoir page instead.
  auto PageOf = [](const void *P) {
    return reinterpret_cast<std::uintptr_t>(P) >> kPageShift;
  };
  RegionPool Pool{Mgr};
  Region *R = Pool.acquire();
  EXPECT_EQ(PageOf(rnew<Scanned>(R)), PageOf(R));
  EXPECT_NE(PageOf(Mgr.allocRaw(R, 3900)), PageOf(R));
  std::size_t Owned = R->ownedPages();
  ASSERT_TRUE(Pool.release(R));
  std::size_t Os = Mgr.osBytes();

  Region *Again = Pool.acquire();
  ASSERT_EQ(Again, R);
  EXPECT_EQ(PageOf(Mgr.allocRaw(Again, 64)), PageOf(Again));
  EXPECT_NE(PageOf(rnew<Scanned>(Again)), PageOf(Again));
  EXPECT_EQ(Again->ownedPages(), Owned);
  EXPECT_EQ(Mgr.osBytes(), Os);
  ASSERT_TRUE(Pool.release(Again));
}

TEST_F(PoolTest, ChurnKeepsOsBytesFlatAcrossTenThousandRequests) {
  RegionPool Pool{Mgr};
  // Warm-up establishes the footprint: one cycle of every request
  // shape the loop serves, so the reservoir holds exact-fit runs for
  // each of them before the flatness clock starts.
  for (std::size_t Body : {std::size_t{4096}, std::size_t{16384},
                           std::size_t{65536}}) {
    Region *R = Pool.acquire();
    serveRequest(Mgr, R, Body);
    ASSERT_TRUE(Pool.release(R));
  }
  std::size_t OsWarm = Mgr.osBytes();

  for (int Cycle = 0; Cycle != 10000; ++Cycle) {
    Region *Req = Pool.acquire();
    // Mixed footprints, never above the warm-up shape.
    serveRequest(Mgr, Req, Cycle % 3 == 0   ? 4096
                           : Cycle % 3 == 1 ? 16384
                                            : 65536);
    ASSERT_TRUE(Pool.release(Req));
    ASSERT_EQ(Mgr.osBytes(), OsWarm)
        << "cycle " << Cycle << ": pooled churn must not touch the "
        << "Figure-8 osBytes high-water mark";
  }
  EXPECT_EQ(Mgr.metrics().Pool.Hits, 10002u); // every post-cold acquire hit
  EXPECT_EQ(Mgr.stats().ResetRegions, 10003u);
}

TEST_F(PoolTest, ExactFitLargeBufferReusesTheSameRun) {
  // The steady-state hot case: the retained large-object run serves
  // the next incarnation's identical buffer at the same address, with
  // no new page-source traffic.
  RegionPool Pool{Mgr};
  Region *R = Pool.acquire();
  Mgr.allocRaw(R, 64);
  void *Buf = Mgr.allocRaw(R, 2 * kPageSize); // large-object path
  ASSERT_TRUE(Pool.release(R));
  std::size_t Os = Mgr.osBytes();

  Region *Again = Pool.acquire();
  ASSERT_EQ(Again, R);
  Mgr.allocRaw(Again, 64);
  void *Buf2 = Mgr.allocRaw(Again, 2 * kPageSize);
  EXPECT_EQ(Buf2, Buf) << "exact-fit reservoir hit reuses the run";
  EXPECT_EQ(Mgr.osBytes(), Os);
  ASSERT_TRUE(Pool.release(Again));
}

TEST_F(PoolTest, ReleaseRefusedWhileExternallyReferenced) {
  RegionPool Pool{Mgr};
  Region *R = Pool.acquire();
  serveRequest(Mgr, R, 4096);
  unsigned Id = R->id();

  R->rcAdd(1); // a counted external reference is still live
  EXPECT_FALSE(Pool.release(R)) << "reset must refuse like deleteregion";
  EXPECT_EQ(Mgr.stats().ResetRefusals, 1u);
  EXPECT_EQ(R->id(), Id) << "refused reset leaves the region untouched";
  EXPECT_GT(R->allocCount(), 0u);
  EXPECT_EQ(Pool.cachedRegions(), 0u);

  R->rcAdd(-1);
  EXPECT_TRUE(Pool.release(R));
  EXPECT_EQ(Pool.cachedRegions(), 1u);
}

TEST_F(PoolTest, RetentionBudgetTrimsOverflowToTheSource) {
  RegionPoolConfig Cfg;
  Cfg.MaxRegions = 2;
  Cfg.MaxRetainedPages = 64;
  RegionPool Pool{Mgr, Cfg};

  Region *A = Pool.acquire();
  Region *B = Pool.acquire();
  Region *C = Pool.acquire();
  serveRequest(Mgr, A, 4096);
  serveRequest(Mgr, B, 4096);
  serveRequest(Mgr, C, 4096);
  ASSERT_TRUE(Pool.release(A));
  ASSERT_TRUE(Pool.release(B));
  ASSERT_TRUE(Pool.release(C)); // evicts the oldest (A) to make room
  EXPECT_EQ(Pool.cachedRegions(), 2u);
  EXPECT_LE(Pool.retainedPages(), Cfg.MaxRetainedPages);
  EXPECT_EQ(Mgr.metrics().Pool.Trims, 1u);
  EXPECT_EQ(Mgr.metrics().Pool.Releases, 3u);

  // A region whose reservoir can never fit the budget is deleted
  // outright instead of parked — and without evicting warm entries it
  // was never going to displace.
  Region *Big = Pool.acquire(); // pops the warmest cached region
  EXPECT_EQ(Pool.cachedRegions(), 1u);
  serveRequest(Mgr, Big, 64 * kPageSize + 16384);
  std::uint64_t LiveBefore = Mgr.stats().LiveRegions;
  ASSERT_TRUE(Pool.release(Big));
  EXPECT_EQ(Pool.cachedRegions(), 1u) << "never parked, nothing evicted";
  EXPECT_EQ(Mgr.stats().LiveRegions, LiveBefore - 1) << "deleted instead";
  EXPECT_EQ(Mgr.metrics().Pool.Trims, 2u);

  std::uint64_t LiveBeforeTrim = Mgr.stats().LiveRegions;
  Pool.trimAll();
  EXPECT_EQ(Pool.cachedRegions(), 0u);
  EXPECT_EQ(Pool.retainedPages(), 0u);
  EXPECT_EQ(Mgr.stats().LiveRegions, LiveBeforeTrim - 1);
}

TEST_F(PoolTest, DestructorReturnsEveryCachedRegion) {
  std::uint64_t LiveBefore = Mgr.stats().LiveRegions;
  {
    RegionPool Pool{Mgr};
    Region *A = Pool.acquire();
    Region *B = Pool.acquire();
    serveRequest(Mgr, A, 16384);
    serveRequest(Mgr, B, 4096);
    ASSERT_TRUE(Pool.release(A));
    ASSERT_TRUE(Pool.release(B));
    EXPECT_EQ(Mgr.stats().LiveRegions, LiveBefore + 2);
  }
  EXPECT_EQ(Mgr.stats().LiveRegions, LiveBefore);
}

TEST_F(PoolTest, StatsAndMetricsPlumbing) {
  RegionPool Pool{Mgr};
  Region *R = Pool.acquire();
  serveRequest(Mgr, R, 16384);
  std::uint64_t TotalBefore = Mgr.stats().TotalRegions;
  // stats() already folds live regions' deferred counters, so this
  // total includes R's allocations while R is still live.
  std::uint64_t AllocsBefore = Mgr.stats().TotalAllocs;
  ASSERT_TRUE(Pool.release(R));

  const RegionStats &S = Mgr.stats();
  EXPECT_EQ(S.TotalRegions, TotalBefore + 1)
      << "a reset ends one logical region and starts another";
  EXPECT_EQ(S.ResetRegions, 1u);
  EXPECT_EQ(S.TotalAllocs, AllocsBefore)
      << "the retired incarnation's allocations stay in the totals";

  MetricsSnapshot M = Mgr.metrics();
  EXPECT_EQ(M.Pool.Hits, 0u);
  EXPECT_EQ(M.Pool.Misses, 1u);
  EXPECT_EQ(M.Pool.Releases, 1u);
  EXPECT_EQ(M.Stats.ResetRegions, 1u);
}

TEST_F(PoolTest, ZeroCostWhenUnused) {
  // A manager that never sees a pool keeps every rpool counter at
  // zero and pays nothing: plain new/delete cycles are unaffected.
  for (int I = 0; I != 32; ++I) {
    Region *R = Mgr.newRegion();
    serveRequest(Mgr, R, 16384);
    ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  }
  const RegionStats &S = Mgr.stats();
  EXPECT_EQ(S.ResetRegions, 0u);
  EXPECT_EQ(S.ResetRefusals, 0u);
  PoolStats P = Mgr.metrics().Pool;
  EXPECT_EQ(P.Hits + P.Misses + P.Releases + P.Trims, 0u);
}

//===----------------------------------------------------------------------===//
// Safety-mode preservation
//===----------------------------------------------------------------------===//

using PoolDeathTest = PoolTest;

TEST_F(PoolDeathTest, ResettingASharedRegionIsFatal) {
  // A shared region's record holds counted references owned by other
  // threads: recycling the storage under them would be a use-after-
  // free by construction, so reset refuses fatally in every build —
  // shared regions retire through ParallelSpace::tryDelete only.
  par::ParallelSpace Space;
  Region *R = Mgr.newRegion();
  Space.share(R);
  EXPECT_DEATH(Mgr.resetRegion(R), "shared region");
}

#if RGN_HARDEN_ENABLED

TEST_F(PoolTest, UseAfterResetReadsPoisonOrTraps) {
  RegionPool Pool{Mgr};
  Region *R = Pool.acquire();
  serveRequest(Mgr, R, 16384);
  auto *Stale =
      static_cast<unsigned char *>(Mgr.allocRaw(R, 128));
  std::memset(Stale, 0xAB, 128);
  ASSERT_TRUE(Pool.release(R));
#if RGN_ASAN
  // Retained reservoir pages are re-poisoned at reset: ASan traps the
  // stale access itself.
  EXPECT_DEATH({ Stale[0] = 1; }, "AddressSanitizer");
#else
  // Without ASan the stale bytes read quarantine poison, never the
  // previous incarnation's contents.
  EXPECT_EQ(Stale[0], 0xD5u);
#endif
  (void)Pool.acquire(); // drain so the pool dtor sees a clean cache
}

#endif // RGN_HARDEN_ENABLED

//===----------------------------------------------------------------------===//
// Why pooled cycles are cheap, checked exactly
//===----------------------------------------------------------------------===//

TEST_F(PoolTest, WarmPooledCyclesStayOffThePageSource) {
  // bench/server times pooled request cycles against new/delete. The
  // reason they are faster is exact and checked here in every build:
  // once warm, acquire/serve/release runs entirely on the region's own
  // reservoir. No page run is grabbed or freed, the PageSource frontier
  // and its coalesce sweeps stay put, and every acquire is a pool hit.
  constexpr int kCycles = 1000;
  RegionPool Pool{Mgr};
  for (int I = 0; I != 2; ++I) { // the reservoir gains its runs
    Region *R = Pool.acquire();
    serveRequest(Mgr, R, 16384);
    ASSERT_TRUE(Pool.release(R));
  }
  MetricsSnapshot Before = Mgr.metrics();
  // Three events a cycle (pool-acquire, resetregion, pool-release) fit
  // the ring with room to spare, so nothing recorded is overwritten.
  rstat::armTracing(1 << 14);
  int Refused = 0;
  for (int I = 0; I != kCycles; ++I) {
    Region *R = Pool.acquire();
    serveRequest(Mgr, R, 16384);
    Refused += !Pool.release(R);
  }
  std::string Path = ::testing::TempDir() + "pool_warm_cycles_trace.json";
  long Written = rstat::writeChromeTrace(Path.c_str());
  rstat::disarmTracing();
  EXPECT_EQ(rstat::droppedEventCount(), 0u);
  std::string Trace;
  if (std::FILE *In = std::fopen(Path.c_str(), "r")) {
    char Buf[1 << 12];
    for (std::size_t N; (N = std::fread(Buf, 1, sizeof(Buf), In)) != 0;)
      Trace.append(Buf, N);
    std::fclose(In);
  }
  std::remove(Path.c_str());

  EXPECT_EQ(Refused, 0);
  ASSERT_GT(Written, 0);
  EXPECT_NE(Trace.find("\"pool-acquire\""), std::string::npos)
      << "the trace holds the cycles' own events";
  EXPECT_EQ(Trace.find("\"run-grab\""), std::string::npos);
  EXPECT_EQ(Trace.find("\"run-free\""), std::string::npos);
  MetricsSnapshot After = Mgr.metrics();
  EXPECT_EQ(After.FrontierPages, Before.FrontierPages);
  EXPECT_EQ(After.CoalesceSweeps, Before.CoalesceSweeps);
  EXPECT_EQ(After.Pool.Hits, Before.Pool.Hits + kCycles);
}

} // namespace
