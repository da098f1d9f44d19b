//===- tests/SupportTest.cpp - Support utilities tests --------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Align.h"
#include "support/PageSource.h"
#include "support/Prng.h"
#include "support/Stopwatch.h"
#include "support/TableWriter.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

using namespace regions;

//===----------------------------------------------------------------------===//
// Align
//===----------------------------------------------------------------------===//

TEST(AlignTest, AlignToRoundsUp) {
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(8, 8), 8u);
  EXPECT_EQ(alignTo(9, 8), 16u);
  EXPECT_EQ(alignTo(4095, 4096), 4096u);
  EXPECT_EQ(alignTo(4097, 4096), 8192u);
}

TEST(AlignTest, AlignDownRoundsDown) {
  EXPECT_EQ(alignDown(0, 8), 0u);
  EXPECT_EQ(alignDown(7, 8), 0u);
  EXPECT_EQ(alignDown(8, 8), 8u);
  EXPECT_EQ(alignDown(4097, 4096), 4096u);
}

TEST(AlignTest, IsPowerOf2) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_FALSE(isPowerOf2(3));
  EXPECT_TRUE(isPowerOf2(4096));
  EXPECT_FALSE(isPowerOf2(4097));
}

TEST(AlignTest, NextPowerOf2) {
  EXPECT_EQ(nextPowerOf2(1), 1u);
  EXPECT_EQ(nextPowerOf2(3), 4u);
  EXPECT_EQ(nextPowerOf2(16), 16u);
  EXPECT_EQ(nextPowerOf2(17), 32u);
}

TEST(AlignTest, Log2OfPow2) {
  EXPECT_EQ(log2OfPow2(1), 0u);
  EXPECT_EQ(log2OfPow2(2), 1u);
  EXPECT_EQ(log2OfPow2(4096), 12u);
}

TEST(AlignTest, IsAlignedChecksPointers) {
  alignas(16) char Buf[32];
  EXPECT_TRUE(isAligned(Buf, 8));
  EXPECT_FALSE(isAligned(Buf + 1, 8));
  EXPECT_TRUE(isAligned(Buf + 8, 8));
}

//===----------------------------------------------------------------------===//
// Prng
//===----------------------------------------------------------------------===//

TEST(PrngTest, DeterministicForSameSeed) {
  Prng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(PrngTest, NextBelowInRange) {
  Prng P(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(P.nextBelow(17), 17u);
}

TEST(PrngTest, NextInRangeInclusive) {
  Prng P(7);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 5000; ++I) {
    std::uint64_t V = P.nextInRange(3, 6);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 6u);
    SawLo |= V == 3;
    SawHi |= V == 6;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Prng P(9);
  for (int I = 0; I < 1000; ++I) {
    double D = P.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(PrngTest, SkewedFavorsSmall) {
  Prng P(11);
  int Small = 0;
  for (int I = 0; I < 10000; ++I)
    Small += P.nextSkewed(0, 1000) < 200;
  // Cubing the uniform puts ~58% of mass below 0.2*max.
  EXPECT_GT(Small, 5000);
}

TEST(PrngTest, ReseedResets) {
  Prng P(5);
  std::uint64_t First = P.next();
  P.next();
  P.reseed(5);
  EXPECT_EQ(P.next(), First);
}

//===----------------------------------------------------------------------===//
// PageSource
//===----------------------------------------------------------------------===//

TEST(PageSourceTest, AllocatesAlignedDistinctPages) {
  PageSource S(1 << 20);
  void *A = S.allocPages(1);
  void *B = S.allocPages(1);
  EXPECT_NE(A, B);
  EXPECT_TRUE(isAligned(A, kPageSize));
  EXPECT_TRUE(isAligned(B, kPageSize));
}

TEST(PageSourceTest, PagesAreWritable) {
  PageSource S(1 << 20);
  auto *P = static_cast<char *>(S.allocPages(2));
  std::memset(P, 0xab, 2 * kPageSize);
  EXPECT_EQ(P[0], static_cast<char>(0xab));
  EXPECT_EQ(P[2 * kPageSize - 1], static_cast<char>(0xab));
}

TEST(PageSourceTest, ReusesFreedPagesBeforeGrowing) {
  PageSource S(1 << 20);
  void *A = S.allocPages(1);
  std::size_t Os = S.osBytes();
  S.freePages(A, 1);
  void *B = S.allocPages(1);
  EXPECT_EQ(A, B);
  EXPECT_EQ(S.osBytes(), Os) << "reuse must not grow the OS footprint";
}

TEST(PageSourceTest, OsBytesIsHighWaterMark) {
  PageSource S(1 << 20);
  void *A = S.allocPages(4);
  EXPECT_EQ(S.osBytes(), 4 * kPageSize);
  S.freePages(A, 4);
  EXPECT_EQ(S.osBytes(), 4 * kPageSize) << "freeing never shrinks OS bytes";
  EXPECT_EQ(S.inUseBytes(), 0u);
}

TEST(PageSourceTest, LargeRunSplitFirstFit) {
  PageSource S(1 << 22);
  void *Big = S.allocPages(64);
  S.freePages(Big, 64);
  // A smaller request should be carved from the freed run.
  void *Small = S.allocPages(20);
  EXPECT_EQ(Small, Big);
  std::size_t Before = S.osBytes();
  void *Rest = S.allocPages(44);
  EXPECT_EQ(S.osBytes(), Before) << "remainder must satisfy the second request";
  EXPECT_EQ(static_cast<char *>(Rest),
            static_cast<char *>(Big) + 20 * kPageSize);
}

TEST(PageSourceTest, ContainsAndPageIndex) {
  PageSource S(1 << 20);
  auto *P = static_cast<char *>(S.allocPages(2));
  EXPECT_TRUE(S.contains(P));
  EXPECT_TRUE(S.contains(P + kPageSize + 100));
  EXPECT_EQ(S.pageIndex(P) + 1, S.pageIndex(P + kPageSize));
  int Local;
  EXPECT_FALSE(S.contains(&Local));
}

TEST(PageSourceTest, ContainsCoversWholeReservedArena) {
  // Regression test: contains() documented "within the reserved arena"
  // but tested the frontier, so an address between the frontier and
  // the end of the reservation answered false — and the answer for a
  // fixed address changed as unrelated allocations moved the frontier.
  PageSource S(1 << 20);
  S.allocPages(2); // frontier = 2 pages; reservation = 256 pages
  ASSERT_LT(std::size_t{2}, S.reservedPages());
  char *BetweenFrontierAndEnd = S.base() + 5 * kPageSize;
  EXPECT_TRUE(S.contains(BetweenFrontierAndEnd))
      << "reserved-but-unissued pages are inside the arena";
  EXPECT_TRUE(S.contains(S.base() + S.reservedPages() * kPageSize - 1));
  EXPECT_FALSE(S.contains(S.base() + S.reservedPages() * kPageSize));
  EXPECT_FALSE(S.contains(S.base() - 1));
}

TEST(PageSourceTest, ContainsHandedOutTracksFrontier) {
  // The tighter probe the GC's root scan wants: only pages that were
  // actually issued. Monotone in the frontier, not allocation state —
  // a freed page was still handed out once.
  PageSource S(1 << 20);
  EXPECT_FALSE(S.containsHandedOut(S.base()));
  void *P = S.allocPages(2);
  EXPECT_TRUE(S.containsHandedOut(P));
  EXPECT_TRUE(S.containsHandedOut(S.base() + 2 * kPageSize - 1));
  EXPECT_FALSE(S.containsHandedOut(S.base() + 2 * kPageSize));
  S.freePages(P, 2);
  EXPECT_TRUE(S.containsHandedOut(P)) << "freeing does not rewind it";
  EXPECT_EQ(S.frontierPages(), 2u);
}

TEST(PageSourceTest, CoalesceSweepCounterTicks) {
  PageSource S(1 << 20);
  EXPECT_EQ(S.coalesceSweeps(), 0u);
  // Two adjacent single-page frees, then an explicit sweep merges them.
  auto *P = static_cast<char *>(S.allocPages(2));
  S.freePages(P, 1);
  S.freePages(P + kPageSize, 1);
  S.coalesceFreeRuns();
  EXPECT_EQ(S.coalesceSweeps(), 1u);
  // The merged pair serves a 2-page request without frontier growth.
  std::size_t Os = S.osBytes();
  EXPECT_EQ(S.allocPages(2), P);
  EXPECT_EQ(S.osBytes(), Os);
  S.resetForTesting();
  EXPECT_EQ(S.coalesceSweeps(), 0u) << "reset rewinds the counter";
}

TEST(PageSourceTest, InUseTracksAllocationsAndFrees) {
  PageSource S(1 << 20);
  void *A = S.allocPages(3);
  void *B = S.allocPages(2);
  EXPECT_EQ(S.inUseBytes(), 5 * kPageSize);
  S.freePages(A, 3);
  EXPECT_EQ(S.inUseBytes(), 2 * kPageSize);
  S.freePages(B, 2);
  EXPECT_EQ(S.inUseBytes(), 0u);
}

TEST(PageSourceTest, ManyAllocFreeCyclesStayBounded) {
  PageSource S(1 << 22);
  for (int I = 0; I < 1000; ++I) {
    void *P = S.allocPages(1 + (I % 4));
    S.freePages(P, 1 + (I % 4));
  }
  EXPECT_LE(S.osBytes(), 16 * kPageSize);
}

TEST(PageSourceTest, FreshPagesReportZeroed) {
  PageSource S(1 << 20);
  bool Zeroed = false;
  auto *P = static_cast<unsigned char *>(S.allocPages(2, &Zeroed));
  EXPECT_TRUE(Zeroed) << "frontier pages come from anonymous mappings";
  for (std::size_t I = 0; I < 2 * kPageSize; I += 257)
    ASSERT_EQ(P[I], 0u) << "stale byte at offset " << I;
}

TEST(PageSourceTest, RecycledPagesReportDirty) {
  PageSource S(1 << 20);
  void *P = S.allocPages(1);
  std::memset(P, 0xee, kPageSize);
  S.freePages(P, 1);
  bool Zeroed = true;
  void *Q = S.allocPages(1, &Zeroed);
  EXPECT_EQ(Q, P);
  EXPECT_FALSE(Zeroed) << "recycled pages must be reported dirty";
  // The same holds for multi-page runs through the size bins.
  void *Big = S.allocPages(4);
  S.freePages(Big, 4);
  Zeroed = true;
  EXPECT_EQ(S.allocPages(4, &Zeroed), Big);
  EXPECT_FALSE(Zeroed);
}

TEST(PageSourceTest, SinglePageCacheIsLifo) {
  PageSource S(1 << 20);
  void *A = S.allocPages(1);
  void *B = S.allocPages(1);
  void *C = S.allocPages(1);
  S.freePages(A, 1);
  S.freePages(B, 1);
  S.freePages(C, 1);
  EXPECT_EQ(S.freeListedPages(), 3u);
  EXPECT_EQ(S.allocPages(1), C) << "most recently freed page reused first";
  EXPECT_EQ(S.allocPages(1), B);
  EXPECT_EQ(S.allocPages(1), A);
  EXPECT_EQ(S.freeListedPages(), 0u);
}

TEST(PageSourceTest, ResetPreservesDirtyTracking) {
  PageSource S(1 << 20);
  void *P = S.allocPages(1);
  std::memset(P, 0x5a, kPageSize);
  S.resetForTesting();
  EXPECT_EQ(S.inUseBytes(), 0u);
  EXPECT_EQ(S.freeListedPages(), 0u);
  // The rewound frontier hands back the same page, but its contents
  // were never rewritten: it must not be reported zeroed.
  bool Zeroed = true;
  void *Q = S.allocPages(1, &Zeroed);
  EXPECT_EQ(Q, P);
  EXPECT_FALSE(Zeroed);
}

TEST(PageSourceTest, LargeRunRemainderRebinsExactly) {
  // Audit of the first-fit carve: when the remainder of a large run
  // fits a bin (<= kMaxBin pages), it must move to that exact bin and
  // serve an exact-size request with no frontier growth.
  PageSource S(1 << 22);
  auto *Big = static_cast<char *>(S.allocPages(64));
  S.freePages(Big, 64);
  void *Carved = S.allocPages(50); // remainder 14 <= kMaxBin
  EXPECT_EQ(Carved, Big);
  std::size_t Os = S.osBytes();
  void *Rest = S.allocPages(14);
  EXPECT_EQ(S.osBytes(), Os) << "rebinned remainder must serve the request";
  EXPECT_EQ(static_cast<char *>(Rest), Big + 50 * kPageSize);
}

TEST(PageSourceTest, SplitsSmallerRunsFromLargerBins) {
  PageSource S(1 << 22);
  auto *Run8 = static_cast<char *>(S.allocPages(8));
  S.freePages(Run8, 8);
  std::size_t Os = S.osBytes();
  // No 3-run exists; the 8-run must split rather than grow the
  // frontier, and its remainder must rebin exactly.
  void *Three = S.allocPages(3);
  EXPECT_EQ(Three, Run8);
  void *Five = S.allocPages(5);
  EXPECT_EQ(static_cast<char *>(Five), Run8 + 3 * kPageSize);
  EXPECT_EQ(S.osBytes(), Os) << "bin splitting must avoid frontier growth";
}

TEST(PageSourceTest, CoalescingReformsChunkedFrees) {
  // A run freed in arbitrary page-aligned pieces must be reusable
  // whole: deferred coalescing re-merges the pieces before the
  // frontier would grow.
  PageSource S(1 << 22);
  auto *Run = static_cast<char *>(S.allocPages(16));
  std::size_t Os = S.osBytes();
  for (int I = 0; I < 4; ++I)
    S.freePages(Run + I * 4 * kPageSize, 4);
  EXPECT_EQ(S.allocPages(16), Run);
  EXPECT_EQ(S.osBytes(), Os) << "chunked frees must re-form the large run";
}

TEST(PageSourceTest, FragmentationStressStaysBounded) {
  // Churn single pages and mixed run sizes, free everything in an
  // interleaved order, then demand the whole footprint as one run:
  // coalescing must satisfy it without any new frontier growth.
  PageSource S(1 << 22);
  constexpr int kPages = 48;
  char *Pages[kPages];
  for (auto &P : Pages)
    P = static_cast<char *>(S.allocPages(1));
  std::size_t Os = S.osBytes();
  for (int I = 0; I < kPages; I += 2) // evens, then odds
    S.freePages(Pages[I], 1);
  for (int I = 1; I < kPages; I += 2)
    S.freePages(Pages[I], 1);
  void *Whole = S.allocPages(kPages);
  EXPECT_EQ(Whole, Pages[0]);
  EXPECT_EQ(S.osBytes(), Os)
      << "interleaved single-page frees must coalesce into one run";
  S.freePages(Whole, kPages);

  // Mixed run sizes, freed out of order, reassembled again.
  char *A = static_cast<char *>(S.allocPages(5));
  char *B = static_cast<char *>(S.allocPages(11));
  char *C = static_cast<char *>(S.allocPages(16));
  char *D = static_cast<char *>(S.allocPages(16));
  Os = S.osBytes();
  S.freePages(C, 16);
  S.freePages(A, 5);
  S.freePages(D, 16);
  S.freePages(B, 11);
  EXPECT_EQ(S.allocPages(48), A);
  EXPECT_EQ(S.osBytes(), Os);
}

TEST(PageSourceTest, FrontierAbuttingRunSeedsGrowth) {
  // A free run ending exactly at the frontier serves an oversized
  // request by growing the frontier only by the shortfall.
  PageSource S(1 << 22);
  void *A = S.allocPages(4);
  S.freePages(A, 4);
  bool Zeroed = true;
  void *B = S.allocPages(6, &Zeroed);
  EXPECT_EQ(B, A);
  EXPECT_EQ(S.osBytes(), 6 * kPageSize)
      << "only the 2-page shortfall may come from the frontier";
  EXPECT_FALSE(Zeroed) << "the recycled prefix is dirty";
}

TEST(PageSourceTest, ResetClearsCoalescingStateAndZeroGuarantees) {
  PageSource S(1 << 20);
  auto *A = static_cast<char *>(S.allocPages(3));
  void *B = S.allocPages(2);
  std::memset(A, 0x77, 3 * kPageSize);
  S.freePages(A, 3);
  S.freePages(B, 2);
  S.resetForTesting();
  EXPECT_EQ(S.inUseBytes(), 0u);
  EXPECT_EQ(S.osBytes(), 0u);
  EXPECT_EQ(S.freeListedPages(), 0u) << "no free-listed runs may survive reset";
  S.coalesceFreeRuns(); // must be a no-op on the clean state
  EXPECT_EQ(S.freeListedPages(), 0u);

  // Reset -> realloc reproduces the fresh-arena guarantees: previously
  // touched pages come back dirty, never-touched pages still zeroed.
  bool Zeroed = true;
  auto *P = static_cast<char *>(S.allocPages(5, &Zeroed));
  EXPECT_EQ(P, A);
  EXPECT_FALSE(Zeroed) << "pre-reset contents were not rewound";
  Zeroed = false;
  auto *Q = static_cast<unsigned char *>(S.allocPages(2, &Zeroed));
  EXPECT_TRUE(Zeroed) << "pages past the pre-reset high water are fresh";
  for (std::size_t I = 0; I < 2 * kPageSize; I += 509)
    ASSERT_EQ(Q[I], 0u);
}

//===----------------------------------------------------------------------===//
// Stopwatch
//===----------------------------------------------------------------------===//

TEST(StopwatchTest, AccumulatesTime) {
  Stopwatch W;
  W.start();
  W.stop();
  std::uint64_t First = W.nanos();
  W.start();
  W.stop();
  EXPECT_GE(W.nanos(), First);
}

TEST(StopwatchTest, ResetClears) {
  Stopwatch W;
  W.start();
  W.stop();
  W.reset();
  EXPECT_EQ(W.nanos(), 0u);
}

TEST(StopwatchTest, MonotonicNanosAdvances) {
  std::uint64_t A = monotonicNanos();
  std::uint64_t B = monotonicNanos();
  EXPECT_LE(A, B);
}

//===----------------------------------------------------------------------===//
// TableWriter
//===----------------------------------------------------------------------===//

TEST(TableWriterTest, FormatHelpers) {
  EXPECT_EQ(TableWriter::fmt(std::uint64_t{1234}), "1234");
  EXPECT_EQ(TableWriter::fmt(1.5, 2), "1.50");
  EXPECT_EQ(TableWriter::fmtKb(2048), "2.0");
  EXPECT_EQ(TableWriter::fmtPercentOf(110.0, 100.0), "+10.0%");
  EXPECT_EQ(TableWriter::fmtPercentOf(90.0, 100.0), "-10.0%");
  EXPECT_EQ(TableWriter::fmtPercentOf(1.0, 0.0), "n/a");
}

TEST(TableWriterTest, PrintsAlignedRows) {
  TableWriter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "22"});
  // Smoke test: printing to a memstream must not crash and must include
  // all cells.
  char *Buf = nullptr;
  std::size_t Len = 0;
  std::FILE *F = open_memstream(&Buf, &Len);
  ASSERT_NE(F, nullptr);
  T.print(F);
  std::fclose(F);
  std::string Out(Buf, Len);
  free(Buf);
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer"), std::string::npos);
  EXPECT_NE(Out.find("22"), std::string::npos);
}
