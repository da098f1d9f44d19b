//===- tests/RegionTest.cpp - Region allocator tests ----------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Covers the §4.1 allocator: bump allocation, the normal/str split,
// page management, regionOf, large objects, statistics and cleanup
// (finalization) behaviour. Safety (reference-count) semantics are in
// RegionSafetyTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "region/Regions.h"
#include "support/Stopwatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

using namespace regions;

namespace {

/// Non-trivially-destructible type that records destruction.
struct Tracked {
  explicit Tracked(int *Counter = nullptr) : Counter(Counter) {}
  ~Tracked() {
    if (Counter)
      ++*Counter;
  }
  int *Counter;
  int Payload[4] = {};
};

struct RegionTest : ::testing::Test {
  RegionTest() {
    // These tests assert immediate page recycling; disable the rsan
    // quarantine (a no-op in unhardened builds) so deleted regions'
    // pages reach the free lists right away.
    Mgr.setQuarantineBudget(0);
  }
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};
};

TEST_F(RegionTest, NewRegionIsEmpty) {
  Region *R = Mgr.newRegion();
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->allocCount(), 0u);
  EXPECT_EQ(R->requestedBytes(), 0u);
  EXPECT_EQ(R->referenceCount(), 0);
  EXPECT_EQ(&R->manager(), &Mgr);
}

TEST_F(RegionTest, TrivialAllocationsComeFromStrAllocator) {
  Region *R = Mgr.newRegion();
  int *A = rnew<int>(R, 41);
  int *B = rnew<int>(R, 42);
  EXPECT_EQ(*A, 41);
  EXPECT_EQ(*B, 42);
  EXPECT_EQ(R->allocCount(), 2u);
  EXPECT_EQ(R->requestedBytes(), 2 * sizeof(int));
}

TEST_F(RegionTest, AllocationsAreAligned) {
  Region *R = Mgr.newRegion();
  for (int I = 0; I < 50; ++I) {
    void *P = Mgr.allocRaw(R, 1 + (I % 13));
    EXPECT_TRUE(isAligned(P, kDefaultAlignment));
    void *Q = Mgr.allocScanned(R, 1 + (I % 13), detail::scanThunk<Tracked>);
    EXPECT_TRUE(isAligned(Q, kDefaultAlignment));
  }
}

TEST_F(RegionTest, RegionOfResolvesAllocations) {
  Region *R1 = Mgr.newRegion();
  Region *R2 = Mgr.newRegion();
  int *A = rnew<int>(R1, 1);
  int *B = rnew<int>(R2, 2);
  EXPECT_EQ(regionOf(A), R1);
  EXPECT_EQ(regionOf(B), R2);
  // Interior pointers resolve too.
  auto *Arr = rnewArray<int>(R1, 100);
  EXPECT_EQ(regionOf(Arr + 57), R1);
}

TEST_F(RegionTest, RegionOfRegionStructIsItself) {
  Region *R = Mgr.newRegion();
  EXPECT_EQ(regionOf(R), R);
}

TEST_F(RegionTest, RegionOfStackAndGlobalIsNull) {
  int Local = 0;
  static int Global = 0;
  EXPECT_EQ(regionOf(&Local), nullptr);
  EXPECT_EQ(regionOf(&Global), nullptr);
  EXPECT_EQ(regionOf(nullptr), nullptr);
}

TEST_F(RegionTest, ScannedMemoryIsZeroed) {
  // A do-nothing cleanup for raw 64-byte blobs we deliberately scribble.
  ScanThunk BlobThunk = [](void *) -> std::size_t { return 64; };
  Region *R = Mgr.newRegion();
  // Fill pages, free the region, allocate again: recycled page content
  // must still come back zeroed for scanned allocations.
  for (int I = 0; I < 100; ++I) {
    auto *P = static_cast<unsigned char *>(Mgr.allocScanned(R, 64, BlobThunk));
    for (int J = 0; J < 64; ++J)
      EXPECT_EQ(P[J], 0u);
    std::memset(P, 0xee, 64);
  }
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  Region *R2 = Mgr.newRegion();
  for (int I = 0; I < 100; ++I) {
    auto *P = static_cast<unsigned char *>(Mgr.allocScanned(R2, 64,
                                                            BlobThunk));
    for (int J = 0; J < 64; ++J)
      EXPECT_EQ(P[J], 0u) << "recycled page leaked content";
  }
}

TEST_F(RegionTest, ManySmallAllocationsSpanPages) {
  Region *R = Mgr.newRegion();
  std::set<std::uintptr_t> Pages;
  for (int I = 0; I < 4000; ++I) {
    void *P = rnew<long>(R, I);
    Pages.insert(reinterpret_cast<std::uintptr_t>(P) >> kPageShift);
  }
  EXPECT_GT(Pages.size(), 4u) << "4000 longs cannot fit in four pages";
  for (void *P : {static_cast<void *>(R)})
    EXPECT_EQ(regionOf(P), R);
}

TEST_F(RegionTest, PageSlackIsWastedNotReused) {
  // The paper: "If an object does not fit in the space remaining at the
  // end of a page that space is wasted." Allocate two objects that
  // cannot share a page and check they land on different pages.
  Region *R = Mgr.newRegion();
  void *A = Mgr.allocRaw(R, 3000);
  void *B = Mgr.allocRaw(R, 3000);
  EXPECT_NE(reinterpret_cast<std::uintptr_t>(A) >> kPageShift,
            reinterpret_cast<std::uintptr_t>(B) >> kPageShift);
}

TEST_F(RegionTest, DeleteReturnsPagesForReuse) {
  Region *R = Mgr.newRegion();
  for (int I = 0; I < 1000; ++I)
    rnew<long>(R, I);
  std::size_t Os = Mgr.osBytes();
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(R, nullptr);
  Region *R2 = Mgr.newRegion();
  for (int I = 0; I < 1000; ++I)
    rnew<long>(R2, I);
  EXPECT_EQ(Mgr.osBytes(), Os) << "second region must reuse freed pages";
}

TEST_F(RegionTest, RegionOfFreedPagesIsNull) {
  Region *R = Mgr.newRegion();
  int *A = rnew<int>(R, 7);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(regionOf(A), nullptr);
}

TEST_F(RegionTest, CacheOffsetsCycle) {
  // §4.1: successive regions are offset by 64 bytes in their first
  // page, up to 512, to avoid cache conflicts between region structs.
  std::vector<Region *> Regions;
  std::set<std::uintptr_t> OffsetsSeen;
  for (int I = 0; I < 9; ++I) {
    Region *R = Mgr.newRegion();
    Regions.push_back(R);
    OffsetsSeen.insert(reinterpret_cast<std::uintptr_t>(R) & (kPageSize - 1));
  }
  EXPECT_EQ(OffsetsSeen.size(), 9u) << "nine distinct 64-byte offsets";
  for (std::uintptr_t Off : OffsetsSeen)
    EXPECT_EQ((Off - *OffsetsSeen.begin()) % 64, 0u);
}

//===----------------------------------------------------------------------===//
// Arrays
//===----------------------------------------------------------------------===//

TEST_F(RegionTest, TrivialArrayIsZeroInitialized) {
  Region *R = Mgr.newRegion();
  int *A = rnewArray<int>(R, 256);
  for (int I = 0; I < 256; ++I)
    EXPECT_EQ(A[I], 0);
}

TEST_F(RegionTest, NonTrivialArrayRunsAllDestructors) {
  Region *R = Mgr.newRegion();
  int Count = 0;
  Tracked *A = rnewArray<Tracked>(R, 37);
  for (int I = 0; I < 37; ++I)
    A[I].Counter = &Count;
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, 37);
}

TEST_F(RegionTest, EmptyArrayIsValid) {
  Region *R = Mgr.newRegion();
  int *A = rnewArray<int>(R, 0);
  EXPECT_NE(A, nullptr);
  Tracked *B = rnewArray<Tracked>(R, 0);
  EXPECT_NE(B, nullptr);
  EXPECT_TRUE(Mgr.deleteRegionRaw(R));
}

//===----------------------------------------------------------------------===//
// Strings
//===----------------------------------------------------------------------===//

TEST_F(RegionTest, StrdupCopies) {
  Region *R = Mgr.newRegion();
  const char *Src = "hello regions";
  char *Copy = rstrdup(R, Src);
  EXPECT_STREQ(Copy, Src);
  EXPECT_NE(Copy, Src);
  EXPECT_EQ(regionOf(Copy), R);
}

TEST_F(RegionTest, StrndupTruncatesAndTerminates) {
  Region *R = Mgr.newRegion();
  char *Copy = rstrndup(R, "abcdef", 3);
  EXPECT_STREQ(Copy, "abc");
}

//===----------------------------------------------------------------------===//
// Large objects (extension past the paper's one-page prototype limit)
//===----------------------------------------------------------------------===//

TEST_F(RegionTest, LargeRawAllocation) {
  Region *R = Mgr.newRegion();
  std::size_t Size = 3 * kPageSize + 100;
  auto *P = static_cast<char *>(Mgr.allocRaw(R, Size));
  std::memset(P, 0x5a, Size);
  EXPECT_EQ(regionOf(P), R);
  EXPECT_EQ(regionOf(P + Size - 1), R);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
}

TEST_F(RegionTest, LargeScannedAllocationRunsCleanup) {
  Region *R = Mgr.newRegion();
  int Count = 0;
  // An object bigger than a page with a destructor.
  struct Big {
    ~Big() {
      if (Counter)
        ++*Counter;
    }
    int *Counter = nullptr;
    char Bulk[2 * kPageSize];
  };
  auto *B = rnew<Big>(R);
  B->Counter = &Count;
  EXPECT_EQ(regionOf(B), R);
  EXPECT_EQ(regionOf(B->Bulk + sizeof(B->Bulk) - 1), R);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, 1);
}

TEST_F(RegionTest, LargeTrivialArray) {
  Region *R = Mgr.newRegion();
  std::size_t N = 10000;
  auto *A = rnewArray<std::uint64_t>(R, N);
  for (std::size_t I = 0; I < N; ++I)
    A[I] = I;
  for (std::size_t I = 0; I < N; ++I)
    ASSERT_EQ(A[I], I);
  EXPECT_EQ(regionOf(A + N - 1), R);
}

TEST_F(RegionTest, LargePagesFreedOnDelete) {
  Region *R = Mgr.newRegion();
  Mgr.allocRaw(R, 10 * kPageSize);
  Mgr.allocRaw(R, 10 * kPageSize);
  std::size_t Os = Mgr.osBytes();
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  Region *R2 = Mgr.newRegion();
  Mgr.allocRaw(R2, 10 * kPageSize);
  Mgr.allocRaw(R2, 10 * kPageSize);
  EXPECT_LE(Mgr.osBytes(), Os + 2 * kPageSize)
      << "large runs must be recycled";
}

//===----------------------------------------------------------------------===//
// Cleanup / finalization
//===----------------------------------------------------------------------===//

TEST_F(RegionTest, CleanupRunsExactlyOncePerObject) {
  Region *R = Mgr.newRegion();
  int Count = 0;
  for (int I = 0; I < 500; ++I)
    rnew<Tracked>(R, &Count);
  EXPECT_EQ(Count, 0) << "no finalization before deletion";
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, 500);
}

TEST_F(RegionTest, CleanupSkippedWhenDisabled) {
  RegionManager Unsafe{SafetyConfig::unsafeConfig(), std::size_t{16} << 20};
  Region *R = Unsafe.newRegion();
  int Count = 0;
  rnew<Tracked>(R, &Count);
  ASSERT_TRUE(Unsafe.deleteRegionRaw(R));
  EXPECT_EQ(Count, 0) << "unsafe regions do not scan on delete";
}

TEST_F(RegionTest, MixedAllocatorsCleanupOnlyScanned) {
  Region *R = Mgr.newRegion();
  int Count = 0;
  for (int I = 0; I < 64; ++I) {
    rnew<Tracked>(R, &Count); // scanned
    rnew<std::uint64_t>(R, 0); // str side, no cleanup
    rstrdup(R, "some string data");
  }
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, 64);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST_F(RegionTest, StatsCountAllocations) {
  Region *R = Mgr.newRegion();
  rnew<int>(R, 1);
  rnewArray<int>(R, 10);
  rstrdup(R, "abc");
  const RegionStats &S = Mgr.stats();
  EXPECT_EQ(S.TotalAllocs, 3u);
  EXPECT_EQ(S.TotalRequestedBytes, sizeof(int) + 10 * sizeof(int) + 4);
}

TEST_F(RegionTest, StatsResultsDoNotAlias) {
  // stats() returns by value: a reference bound to an earlier result
  // keeps that snapshot instead of silently tracking later calls.
  const RegionStats &Before = Mgr.stats();
  Region *R = Mgr.newRegion();
  const RegionStats &After = Mgr.stats();
  EXPECT_EQ(After.TotalRegions, Before.TotalRegions + 1);
  EXPECT_EQ(After.LiveRegions, Before.LiveRegions + 1);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
}

TEST_F(RegionTest, StatsTrackRegionLifecycle) {
  Region *A = Mgr.newRegion();
  Region *B = Mgr.newRegion();
  EXPECT_EQ(Mgr.stats().LiveRegions, 2u);
  EXPECT_EQ(Mgr.stats().MaxLiveRegions, 2u);
  ASSERT_TRUE(Mgr.deleteRegionRaw(A));
  EXPECT_EQ(Mgr.stats().LiveRegions, 1u);
  EXPECT_EQ(Mgr.stats().MaxLiveRegions, 2u);
  EXPECT_EQ(Mgr.stats().TotalRegions, 2u);
  ASSERT_TRUE(Mgr.deleteRegionRaw(B));
  EXPECT_EQ(Mgr.liveRegionCount(), 0u);
}

TEST_F(RegionTest, StatsTrackLiveBytesHighWater) {
  Region *A = Mgr.newRegion();
  rnewArray<char>(A, 10000);
  EXPECT_EQ(Mgr.stats().LiveRequestedBytes, 10000u);
  ASSERT_TRUE(Mgr.deleteRegionRaw(A));
  EXPECT_EQ(Mgr.stats().LiveRequestedBytes, 0u);
  EXPECT_EQ(Mgr.stats().MaxLiveRequestedBytes, 10000u);
}

TEST_F(RegionTest, StatsTrackMaxRegionBytes) {
  Region *A = Mgr.newRegion();
  Region *B = Mgr.newRegion();
  rnewArray<char>(A, 100);
  rnewArray<char>(B, 5000);
  EXPECT_EQ(Mgr.stats().MaxRegionBytes, 5000u);
}

/// Best of five samples of the nanoseconds \p Retire takes over a batch
/// of fresh regions that each hold one 64-byte allocation. Regions the
/// retirement leaves live (a reset) are deleted after each sample.
template <class RetireFn>
std::uint64_t bestRetireNanos(RegionManager &Mgr, RetireFn Retire) {
  constexpr int kBatch = 64;
  std::uint64_t Best = UINT64_MAX;
  for (int Sample = 0; Sample != 5; ++Sample) {
    Region *Batch[kBatch];
    for (Region *&R : Batch) {
      R = Mgr.newRegion();
      Mgr.allocRaw(R, 64);
    }
    std::uint64_t Start = monotonicNanos();
    for (Region *&R : Batch)
      Retire(R);
    Best = std::min(Best, monotonicNanos() - Start);
    for (Region *&R : Batch) {
      if (R) {
        EXPECT_TRUE(Mgr.deleteRegionRaw(R));
      }
    }
  }
  return Best;
}

TEST_F(RegionTest, RetireCostIgnoresOtherLiveRegions) {
  // §4.3: memory management costs amortized O(1). Deleting or resetting
  // a region must not walk the other live regions, here 10 000 of them
  // (a walk made each retirement thousands of times slower).
  auto Delete = [&](Region *&R) { EXPECT_TRUE(Mgr.deleteRegionRaw(R)); };
  auto Reset = [&](Region *&R) { EXPECT_TRUE(Mgr.resetRegion(R)); };
  std::uint64_t DeleteAlone = bestRetireNanos(Mgr, Delete);
  std::uint64_t ResetAlone = bestRetireNanos(Mgr, Reset);
  std::vector<Region *> Others(10000);
  for (Region *&R : Others)
    R = Mgr.newRegion();
  std::uint64_t DeleteCrowded = bestRetireNanos(Mgr, Delete);
  std::uint64_t ResetCrowded = bestRetireNanos(Mgr, Reset);
  EXPECT_LE(DeleteCrowded, 8 * DeleteAlone)
      << "delete: " << DeleteAlone << " ns alone, " << DeleteCrowded
      << " ns with 10 000 live";
  EXPECT_LE(ResetCrowded, 8 * ResetAlone)
      << "reset: " << ResetAlone << " ns alone, " << ResetCrowded
      << " ns with 10 000 live";
  for (Region *&R : Others)
    ASSERT_TRUE(Mgr.deleteRegionRaw(R));
}

//===----------------------------------------------------------------------===//
// Manager isolation
//===----------------------------------------------------------------------===//

TEST_F(RegionTest, TwoManagersAreIndependent) {
  RegionManager Other{SafetyConfig::safeConfig(), std::size_t{16} << 20};
  Region *A = Mgr.newRegion();
  Region *B = Other.newRegion();
  int *PA = rnew<int>(A, 1);
  int *PB = rnew<int>(B, 2);
  EXPECT_EQ(regionOf(PA), A);
  EXPECT_EQ(regionOf(PB), B);
  EXPECT_EQ(&A->manager(), &Mgr);
  EXPECT_EQ(&B->manager(), &Other);
}

TEST_F(RegionTest, DeleteRegionRawNullsHandle) {
  Region *R = Mgr.newRegion();
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(R, nullptr);
}

//===----------------------------------------------------------------------===//
// Figure 7 scan termination
//===----------------------------------------------------------------------===//

/// Padded to make header + object exactly 40 bytes, so 102 of them fill
/// a page's usable area to the last byte (no room for an end marker).
struct TrackedPad {
  explicit TrackedPad(int *Counter) : Counter(Counter) {}
  ~TrackedPad() {
    if (Counter)
      ++*Counter;
  }
  int *Counter;
  char Pad[32 - sizeof(int *)];
};

TEST_F(RegionTest, ScanTerminatesOnExactlyFullPage) {
  constexpr std::size_t kSlotBytes =
      sizeof(ScanThunk) + alignTo(sizeof(TrackedPad), kDefaultAlignment);
  constexpr std::size_t kUsable = kPageSize - sizeof(detail::PageHeader);
  static_assert(kUsable % kSlotBytes == 0,
                "objects must fill the page exactly for this test");
  constexpr std::size_t kPerPage = kUsable / kSlotBytes;

  Region *R = Mgr.newRegion();
  int Count = 0;
  // Region structure occupies part of the first page; spill onto a
  // second page and fill it to the brim so the scan has no marker slot.
  for (std::size_t I = 0; I != 2 * kPerPage; ++I)
    rnew<TrackedPad>(R, &Count);
  std::size_t Before = Mgr.stats().CleanupThunksRun;
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, static_cast<int>(2 * kPerPage))
      << "scan must stop at the page boundary, not run past it";
  EXPECT_EQ(Mgr.stats().CleanupThunksRun, Before + 2 * kPerPage);
}

TEST_F(RegionTest, ScanTerminatesOnPartialPage) {
  Region *R = Mgr.newRegion();
  int Count = 0;
  for (int I = 0; I != 5; ++I)
    rnew<Tracked>(R, &Count);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, 5) << "scan must stop at the end marker";
}

TEST_F(RegionTest, ScanTerminatesOnRecycledDirtyPages) {
  // Dirty a batch of pages with non-zero garbage, then return them to
  // the page source. The next region's normal pages are recycled and
  // carry stale bytes, so termination must come from explicit end
  // markers (or the bulk clear), never from leftover data.
  Region *Dirty = Mgr.newRegion();
  for (int I = 0; I != 64; ++I)
    std::memset(Mgr.allocRaw(Dirty, 1000), 0xab, 1000);
  ASSERT_TRUE(Mgr.deleteRegionRaw(Dirty));

  Region *R = Mgr.newRegion();
  int Count = 0;
  for (int I = 0; I != 300; ++I) // spans pages, last one partial
    rnew<Tracked>(R, &Count);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, 300);
}

TEST_F(RegionTest, ScannedMemoryIsZeroedOnRecycledPages) {
  Region *Dirty = Mgr.newRegion();
  for (int I = 0; I != 16; ++I)
    std::memset(Mgr.allocRaw(Dirty, 4000), 0xcd, 4000);
  ASSERT_TRUE(Mgr.deleteRegionRaw(Dirty));

  Region *R = Mgr.newRegion();
  for (int I = 0; I != 200; ++I) {
    auto *P = static_cast<unsigned char *>(
        Mgr.allocScanned(R, 48, detail::scanThunk<Tracked>));
    for (int J = 0; J != 48; ++J)
      ASSERT_EQ(P[J], 0u) << "stale byte at offset " << J;
  }
}

/// Counts calls: the stale words below all name it, so any call means
/// the cleanup scan read past the end marker into recycled bytes.
int StaleThunkCalls = 0;
std::size_t staleThunk(void *) {
  ++StaleThunkCalls;
  return 0;
}

char *firstPageOf(const void *P) {
  return reinterpret_cast<char *>(reinterpret_cast<std::uintptr_t>(P) &
                                  ~std::uintptr_t{kPageSize - 1});
}

TEST_F(RegionTest, DirtyFirstPageKeepsScanAndZeroing) {
  // newRegion leaves a recycled first page dirty. Fill one region's
  // first page with words that parse as a live thunk, recycle it as the
  // next region's first page, and check that objects there still read
  // zero and that deletion runs exactly their thunks. With no object on
  // the page, only newRegion's end marker stops the scan; a large
  // Tracked array makes the scan run in that case too.
  const auto Word = reinterpret_cast<std::uintptr_t>(&staleThunk);
  constexpr int kArray = 200; // 4.8 KB: a large object in its own run
  for (int Objects : {0, 20}) {
    Region *Dirty = Mgr.newRegion();
    char *Page = firstPageOf(Dirty);
    // Fill the first page to the brim without spilling onto a second,
    // so that page is the only one the next region can be given:
    // 64-byte blobs while they fit, then 8-byte ones.
    char *End = nullptr;
    for (std::size_t Size : {std::size_t{64}, std::size_t{8}}) {
      while (!End || End + sizeof(ScanThunk) + detail::kRsanObjOverhead +
                             Size <= Page + kPageSize) {
        // No finalizer and no out-reference: Dirty's own deletion skips
        // the scan, so staleThunk never runs on its real objects.
        auto *P = static_cast<std::uintptr_t *>(
            Mgr.allocScanned(Dirty, Size, &staleThunk, /*MayFinalize=*/false));
        ASSERT_EQ(firstPageOf(P), Page);
        std::fill(P, P + Size / sizeof(Word), Word);
        End = reinterpret_cast<char *>(P) + Size + detail::kRsanRedZone;
      }
    }
    ASSERT_TRUE(Mgr.deleteRegionRaw(Dirty));

    Region *R = Mgr.newRegion();
    ASSERT_EQ(firstPageOf(R), Page) << "the first page must be recycled";
    StaleThunkCalls = 0;
    int Count = 0;
    for (int I = 0; I != Objects; ++I) {
      void *P =
          Mgr.allocScanned(R, sizeof(Tracked), detail::scanThunk<Tracked>);
      ASSERT_EQ(firstPageOf(P), Page) << "object " << I;
      auto *Bytes = static_cast<unsigned char *>(P);
      for (std::size_t J = 0; J != sizeof(Tracked); ++J)
        ASSERT_EQ(Bytes[J], 0u) << "object " << I << ", byte " << J;
      ::new (P) Tracked(&Count);
    }
    Tracked *Array = rnewArray<Tracked>(R, kArray);
    ASSERT_NE(firstPageOf(Array), Page);
    for (int I = 0; I != kArray; ++I)
      Array[I].Counter = &Count;
    std::uint64_t Before = Mgr.stats().CleanupThunksRun;
    ASSERT_TRUE(Mgr.deleteRegionRaw(R));
    EXPECT_EQ(Count, Objects + kArray) << Objects << " objects";
    EXPECT_EQ(Mgr.stats().CleanupThunksRun,
              Before + static_cast<std::uint64_t>(Objects) + 1)
        << Objects << " objects";
    EXPECT_EQ(StaleThunkCalls, 0)
        << Objects << " objects: the scan ran past the end marker";
  }
}

//===----------------------------------------------------------------------===//
// The first page: its remainder goes to whichever list asks first
//===----------------------------------------------------------------------===//

TEST_F(RegionTest, SmallRawRegionLivesInOnePage) {
  // A region whose data is pointer-free keeps it next to its own
  // structure instead of grabbing a second page.
  std::size_t Os = Mgr.osBytes();
  Region *R = Mgr.newRegion();
  void *P = Mgr.allocRaw(R, 64);
  EXPECT_EQ(firstPageOf(P), firstPageOf(R));
  EXPECT_EQ(R->ownedPages(), 1u);
  EXPECT_EQ(Mgr.osBytes(), Os + kPageSize);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
}

TEST_F(RegionTest, RawTooBigForTheRemainderLeavesItToScannedObjects) {
  // The remainder is at most a page less the page header and the
  // region structure; a raw request past that carves a page, and the
  // remainder still waits for the first scanned object.
  Region *R = Mgr.newRegion();
  std::size_t Remainder = kPageSize - sizeof(detail::PageHeader) -
                          sizeof(Region);
  ASSERT_LE(Remainder + 64, RegionManager::maxRawAlloc());
  void *Raw = Mgr.allocRaw(R, Remainder + 64);
  EXPECT_NE(firstPageOf(Raw), firstPageOf(R));
  int Count = 0;
  void *Obj = rnew<Tracked>(R, &Count);
  EXPECT_EQ(firstPageOf(Obj), firstPageOf(R));
  EXPECT_EQ(R->ownedPages(), 2u);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, 1);
}

TEST_F(RegionTest, LargeObjectsDoNotAdvanceGrowthRuns) {
  // Growth runs take 1, 2, 2, ... pages after the first page however
  // many large-object runs the region recorded before them, so the
  // order of large objects and page boundaries cannot change them.
  Region *R = Mgr.newRegion();
  for (int I = 0; I != 6; ++I)
    Mgr.allocRaw(R, 2 * kPageSize);
  const std::size_t Owned = R->ownedPages();
  const std::size_t Full = RegionManager::maxRawAlloc();
  Mgr.allocRaw(R, Full); // past the first page's remainder: one page
  EXPECT_EQ(R->ownedPages(), Owned + 1);
  Mgr.allocRaw(R, Full); // a two-page run
  EXPECT_EQ(R->ownedPages(), Owned + 3);
  Mgr.allocRaw(R, Full); // that run's second page
  EXPECT_EQ(R->ownedPages(), Owned + 3);
  Mgr.allocRaw(R, Full); // the second two-page run
  EXPECT_EQ(R->ownedPages(), Owned + 5);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
}

TEST_F(RegionTest, StrAdoptedFirstPageIsNeverScanned) {
  // Raw data first puts the first page on the str list, so the cleanup
  // scan must not walk it. Its bytes name a thunk that counts calls:
  // any call means the scan read the str data as object headers.
  constexpr int kObjects = 10;
  Region *R = Mgr.newRegion();
  const auto Word = reinterpret_cast<std::uintptr_t>(&staleThunk);
  auto *Raw = static_cast<std::uintptr_t *>(Mgr.allocRaw(R, 512));
  ASSERT_EQ(firstPageOf(Raw), firstPageOf(R));
  std::fill(Raw, Raw + 512 / sizeof(Word), Word);
  int Count = 0;
  for (int I = 0; I != kObjects; ++I)
    EXPECT_NE(firstPageOf(rnew<Tracked>(R, &Count)), firstPageOf(R));
  StaleThunkCalls = 0;
  std::uint64_t Before = Mgr.stats().CleanupThunksRun;
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, kObjects);
  EXPECT_EQ(Mgr.stats().CleanupThunksRun, Before + kObjects);
  EXPECT_EQ(StaleThunkCalls, 0);
}

//===----------------------------------------------------------------------===//
// Skipping the cleanup scan
//===----------------------------------------------------------------------===//

/// A node whose destructor only destroys its RegionPtr, marked so.
struct CountOnlyNode {
  RegionPtr<CountOnlyNode> Next;
  int Value = 0;
  using RegionCountOnly = CountOnlyNode;
};

/// Inherits the base's marker alias, which names the base: the
/// derived type's own destructor must not hide behind it.
struct FinalizingNode : CountOnlyNode {
  explicit FinalizingNode(int *Counter) : Counter(Counter) {}
  ~FinalizingNode() { ++*Counter; }
  int *Counter;
};

static_assert(!detail::mayFinalize<CountOnlyNode>, "marked");
static_assert(detail::mayFinalize<FinalizingNode>, "marker is per type");
static_assert(detail::mayFinalize<Tracked>, "unmarked");

/// Fills \p R with sameregion-linked marked nodes.
void fillCountOnly(Region *R, int N) {
  CountOnlyNode *Prev = nullptr;
  for (int I = 0; I != N; ++I) {
    auto *Node = rnew<CountOnlyNode>(R);
    Node->Next = Prev;
    Prev = Node;
  }
  rnewArray<CountOnlyNode>(R, 4);
}

TEST_F(RegionTest, MarkedObjectsWithoutOutRefsRunNoThunks) {
  Region *R = Mgr.newRegion();
  fillCountOnly(R, 300); // more than one normal page
  EXPECT_EQ(R->outRefs(), 0);
  EXPECT_FALSE(R->mayFinalize());
  RegionStats Before = Mgr.stats();
  ASSERT_TRUE(Mgr.resetRegion(R));
  RegionStats AfterReset = Mgr.stats();
  EXPECT_EQ(AfterReset.CleanupThunksRun, Before.CleanupThunksRun);
  EXPECT_EQ(AfterReset.CleanupScansSkipped, Before.CleanupScansSkipped + 1);

  fillCountOnly(R, 300);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  RegionStats AfterDelete = Mgr.stats();
  EXPECT_EQ(AfterDelete.CleanupThunksRun, Before.CleanupThunksRun);
  EXPECT_EQ(AfterDelete.CleanupScansSkipped, Before.CleanupScansSkipped + 2);
}

TEST_F(RegionTest, UnmarkedDestructorStillRunsOnDeleteAndReset) {
  int Count = 0;
  Region *R = Mgr.newRegion();
  fillCountOnly(R, 10);
  rnew<Tracked>(R, &Count);
  EXPECT_TRUE(R->mayFinalize());
  std::uint64_t Skipped = Mgr.stats().CleanupScansSkipped;
  ASSERT_TRUE(Mgr.resetRegion(R));
  EXPECT_EQ(Count, 1) << "one finalizer makes the whole scan run";

  // The reset incarnation starts with the bit clear; a derived type
  // that did not mark itself sets it again.
  EXPECT_FALSE(R->mayFinalize());
  rnew<FinalizingNode>(R, &Count);
  EXPECT_TRUE(R->mayFinalize());
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Count, 2);
  EXPECT_EQ(Mgr.stats().CleanupScansSkipped, Skipped);
}

TEST_F(RegionTest, DirectAllocScannedMayFinalizeByDefault) {
  static int Calls = 0;
  Calls = 0;
  ScanThunk Thunk = [](void *) -> std::size_t {
    ++Calls;
    return 32;
  };
  Region *R = Mgr.newRegion();
  Mgr.allocScanned(R, 32, Thunk);
  EXPECT_TRUE(R->mayFinalize());
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Calls, 1);

  // A caller that promises a size-only thunk lets deletion skip it.
  Region *Quiet = Mgr.newRegion();
  Mgr.allocScanned(Quiet, 32, Thunk, /*MayFinalize=*/false);
  EXPECT_FALSE(Quiet->mayFinalize());
  ASSERT_TRUE(Mgr.deleteRegionRaw(Quiet));
  EXPECT_EQ(Calls, 1);
}

//===----------------------------------------------------------------------===//
// Allocation-size overflow
//===----------------------------------------------------------------------===//

TEST_F(RegionTest, ArrayCountOverflowIsFatalTrivial) {
  Region *R = Mgr.newRegion();
  EXPECT_DEATH(rnewArray<std::uint64_t>(R, SIZE_MAX / 4),
               "rnewArray: array byte size overflows");
}

TEST_F(RegionTest, ArrayCountOverflowIsFatalNonTrivial) {
  Region *R = Mgr.newRegion();
  EXPECT_DEATH(rnewArray<Tracked>(R, SIZE_MAX / 8),
               "rnewArray: array byte size overflows");
}

TEST_F(RegionTest, HugeButNonOverflowingAllocationIsFatal) {
  // Sizes that survive the multiplication but would wrap when rounded
  // up to pages must also die cleanly rather than under-allocate.
  Region *R = Mgr.newRegion();
  EXPECT_DEATH(Mgr.allocRaw(R, SIZE_MAX - 64),
               "region allocation size overflows");
}

//===----------------------------------------------------------------------===//
// Arena slots (PageMap.h): one span, fixed slots, one page map
//===----------------------------------------------------------------------===//

int GlobalProbe = 0;

/// True iff null, stack, global and heap addresses all resolve to no
/// region. The span never covers them, whatever managers are live.
bool nonRegionAddressesMiss() {
  int Local = 0;
  void *Heap = std::calloc(1, 64);
  bool Missed = regionOf(nullptr) == nullptr && regionOf(&Local) == nullptr &&
                regionOf(&GlobalProbe) == nullptr && regionOf(Heap) == nullptr;
  std::free(Heap);
  return Missed;
}

TEST(ArenaSlotTest, DeadSlotResolvesToNullAndIsReusedZeroed) {
  constexpr std::size_t kSmall = 512;
  constexpr std::size_t kLarge = 6 * kPageSize;
  char *Small;
  char *Large;
  {
    RegionManager A{SafetyConfig::unsafeConfig(), std::size_t{64} << 20};
    Region *R = A.newRegion();
    Small = static_cast<char *>(A.allocRaw(R, kSmall));
    Large = static_cast<char *>(A.allocRaw(R, kLarge));
    std::memset(Small, 0xAB, kSmall);
    std::memset(Large, 0xAB, kLarge);
    ASSERT_EQ(regionOf(Small), R);
    ASSERT_EQ(regionOf(Large), R);
  }
  EXPECT_EQ(regionOf(Small), nullptr);
  EXPECT_EQ(regionOf(Large), nullptr);

  // The next manager takes the lowest free slot, the one A left, and
  // the same allocation sequence lands on the pages A dirtied. They
  // are fresh to B's PageSource, so B relies on them reading zero.
  RegionManager B{SafetyConfig::unsafeConfig(), std::size_t{64} << 20};
  Region *R = B.newRegion();
  auto *Words = rnewArray<std::uint64_t>(R, kSmall / sizeof(std::uint64_t));
  auto *Bytes = static_cast<unsigned char *>(B.allocRawZeroed(R, kLarge));
  ASSERT_EQ(static_cast<void *>(Words), static_cast<void *>(Small));
  ASSERT_EQ(static_cast<void *>(Bytes), static_cast<void *>(Large));
  EXPECT_EQ(regionOf(Words), R);
  for (std::size_t I = 0; I != kSmall / sizeof(std::uint64_t); ++I)
    ASSERT_EQ(Words[I], 0u) << "word " << I;
  for (std::size_t I = 0; I != kLarge; ++I)
    ASSERT_EQ(Bytes[I], 0u) << "byte " << I;
}

TEST(ArenaSlotTest, TwoLiveManagersResolveToTheirOwnRegions) {
  RegionManager M1{SafetyConfig::safeConfig(), std::size_t{1} << 20};
  RegionManager M2{SafetyConfig::safeConfig(), std::size_t{1} << 20};
  Region *R1 = M1.newRegion();
  Region *R2 = M2.newRegion();
  void *P1 = M1.allocRaw(R1, 64);
  void *P2 = M2.allocRaw(R2, 64);
  auto SlotOf = [](const void *P) {
    return (reinterpret_cast<std::uintptr_t>(P) -
            detail::GSpan.Base.load(std::memory_order_relaxed)) /
           detail::kArenaSlotBytes;
  };
  EXPECT_NE(SlotOf(P1), SlotOf(P2));
  for (int I = 0; I != 8; ++I) {
    EXPECT_EQ(regionOf(I % 2 ? P2 : P1), I % 2 ? R2 : R1) << "lookup " << I;
    EXPECT_EQ(regionOf(I % 2 ? P1 : P2), I % 2 ? R1 : R2) << "lookup " << I;
  }
  EXPECT_TRUE(nonRegionAddressesMiss());
}

TEST(ArenaSlotTest, NonRegionAddressesMissAfterManagersDie) {
  { RegionManager M{SafetyConfig::safeConfig(), std::size_t{1} << 20}; }
  EXPECT_TRUE(nonRegionAddressesMiss());
}

TEST(ArenaSlotDeathTest, NonRegionAddressesMissBeforeAnyManagerExists) {
  // A threadsafe death test re-runs only this test in a fresh process,
  // so the child probes before any span has been reserved.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        bool Unreserved =
            detail::GSpan.Size.load(std::memory_order_relaxed) == 0;
        std::fprintf(stderr, "unreserved=%d missed=%d\n", Unreserved,
                     nonRegionAddressesMiss());
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "unreserved=1 missed=1");
}

TEST(ArenaSlotDeathTest, ThirtyThirdLiveManagerIsFatal) {
  EXPECT_DEATH(
      {
        std::vector<std::unique_ptr<RegionManager>> Live;
        for (unsigned I = 0; I <= detail::kMaxArenas; ++I)
          Live.push_back(std::make_unique<RegionManager>(
              SafetyConfig::unsafeConfig(), std::size_t{1} << 20));
      },
      "no free arena slot");
}

TEST(ArenaSlotDeathTest, ReserveAboveTheSlotSizeIsFatal) {
  EXPECT_DEATH(RegionManager(SafetyConfig::unsafeConfig(),
                             detail::kArenaSlotBytes + kPageSize),
               "exceeds the 2 GiB arena slot");
}

} // namespace
