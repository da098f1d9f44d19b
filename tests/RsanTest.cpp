//===- tests/RsanTest.cpp - rsan hardened-mode behaviour ------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Covers the rsan hardened debug mode (support/Harden.h): page
// quarantine, red-zone and size-header validation, checked region-
// pointer dereferences, and the interaction with the zero-tail page
// optimization. The file compiles
// in every configuration; checks that need hardened metadata are gated
// on RGN_HARDEN_ENABLED, and checks that read poisoned bytes directly
// are additionally gated on !RGN_ASAN (ASan traps the read itself,
// which is the point of the integration but not of these assertions).
//
//===----------------------------------------------------------------------===//

#include "region/Debug.h"
#include "region/Parallel.h"
#include "region/Regions.h"
#include "support/PageSource.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

using namespace regions;

namespace {

struct Plain {
  explicit Plain(int V = 0) : Value(V) {}
  int Value;
};

struct Counted {
  explicit Counted(int V = 0) : Value(V) {}
  int Value;
  RegionPtr<Counted> Next;
};

struct Linked {
  SameRegionPtr<Linked> Next;
  int Value = 0;
};

[[maybe_unused]] std::uintptr_t pageOf(const void *P) {
  return reinterpret_cast<std::uintptr_t>(P) >> kPageShift;
}

//===----------------------------------------------------------------------===//
// Behaviour shared by every build: the zeroed-reuse regression
//===----------------------------------------------------------------------===//

// A page that went through deletion (and, under RGN_HARDEN, through the
// 0xD5-poisoned quarantine) must never satisfy a zeroed allocation with
// its stale contents: recycled pages always report dirty, so the zeroed
// paths must clear them. This is the regression the quarantine audit
// guards — a poisoned page handed out still flagged "zero to high
// water" would leak 0xD5 into rnewArray memory.
TEST(RsanReuse, ReusedDeletedPagesStillZeroForZeroedAllocs) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  for (int Round = 0; Round != 8; ++Round) {
    Region *R = Mgr.newRegion();
    // Dirty several str and normal pages thoroughly.
    for (int I = 0; I != 4; ++I) {
      char *Raw = static_cast<char *>(
          Mgr.allocRaw(R, RegionManager::maxRawAlloc()));
      std::memset(Raw, 0xAB, RegionManager::maxRawAlloc());
      rnew<Counted>(R, 0x7EADBEEF)->Next = nullptr;
    }
    ASSERT_TRUE(Mgr.deleteRegionRaw(R));
    // Force the quarantined pages (if any) back into circulation so the
    // next round reuses them instead of fresh frontier pages.
    Mgr.drainQuarantine();

    Region *Fresh = Mgr.newRegion();
    constexpr std::size_t N = 3000;
    auto *Ints = rnewArray<unsigned>(Fresh, N / sizeof(unsigned));
    for (std::size_t I = 0; I != N / sizeof(unsigned); ++I)
      ASSERT_EQ(Ints[I], 0u) << "round " << Round << " index " << I;
    auto *Bytes =
        static_cast<unsigned char *>(Mgr.allocRawZeroed(Fresh, N));
    for (std::size_t I = 0; I != N; ++I)
      ASSERT_EQ(Bytes[I], 0u) << "round " << Round << " byte " << I;
    ASSERT_TRUE(Mgr.deleteRegionRaw(Fresh));
    Mgr.drainQuarantine();
  }
}

#if !RGN_HARDEN_ENABLED

//===----------------------------------------------------------------------===//
// Unhardened builds: rsan must be completely inert
//===----------------------------------------------------------------------===//

TEST(RsanDisabled, NoQuarantineAndNoMetadata) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Mgr.setQuarantineBudget(256); // accepted, but freePages never uses it
  Region *R = Mgr.newRegion();
  rnew<Plain>(R, 1);
  RsanReport Rep = rsanCheckRegion(R);
  EXPECT_FALSE(Rep.Checked) << "no hardened metadata to check";
  EXPECT_TRUE(Rep.clean());
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(Mgr.quarantinedPages(), 0u)
      << "unhardened freePages recycles immediately";
}

#else // RGN_HARDEN_ENABLED

//===----------------------------------------------------------------------===//
// PageSource quarantine mechanics
//===----------------------------------------------------------------------===//

TEST(RsanQuarantine, FreedRunsArePoisonedAndHeld) {
  PageSource Src(std::size_t{4} << 20);
  Src.setQuarantineBudget(8);
  void *P = Src.allocPages(1);
  std::memset(P, 0xAB, kPageSize);
  Src.freePages(P, 1);
  EXPECT_EQ(Src.quarantinedPages(), 1u);
#if !RGN_ASAN
  auto *Bytes = static_cast<const unsigned char *>(P);
  EXPECT_EQ(Bytes[0], 0xD5u);
  EXPECT_EQ(Bytes[kPageSize / 2], 0xD5u);
  EXPECT_EQ(Bytes[kPageSize - 1], 0xD5u);
#endif
  Src.drainQuarantine();
  EXPECT_EQ(Src.quarantinedPages(), 0u);
}

TEST(RsanQuarantine, BudgetEvictsOldestFirst) {
  PageSource Src(std::size_t{4} << 20);
  Src.setQuarantineBudget(2);
  void *A = Src.allocPages(1);
  void *B = Src.allocPages(1);
  void *C = Src.allocPages(1);
  Src.freePages(A, 1);
  Src.freePages(B, 1);
  EXPECT_EQ(Src.quarantinedPages(), 2u);
  Src.freePages(C, 1); // budget forces A — the oldest — out
  EXPECT_EQ(Src.quarantinedPages(), 2u);
  void *Reused = Src.allocPages(1);
  EXPECT_EQ(Reused, A) << "the evicted (oldest) run is the one recycled";
  // The evicted page must be writable again (ASan poison lifted) and
  // must report dirty, never zeroed.
  bool Zeroed = true;
  std::memset(Reused, 0, kPageSize);
  Src.freePages(Reused, 1);
  Src.setQuarantineBudget(0); // drains, then recycles directly
  void *Again = Src.allocPages(1, &Zeroed);
  EXPECT_FALSE(Zeroed) << "recycled pages never claim the zero state";
  std::memset(Again, 0x5A, kPageSize);
  Src.freePages(Again, 1);
}

TEST(RsanQuarantine, ShrinkingBudgetEvictsDown) {
  PageSource Src(std::size_t{4} << 20);
  Src.setQuarantineBudget(16);
  void *Runs[6];
  for (auto &R : Runs)
    R = Src.allocPages(1);
  for (auto *R : Runs)
    Src.freePages(R, 1);
  EXPECT_EQ(Src.quarantinedPages(), 6u);
  Src.setQuarantineBudget(3);
  EXPECT_EQ(Src.quarantinedPages(), 3u);
  // Oldest three went first: the next three singles come from the
  // recycle cache (LIFO), so the very next allocation is Runs[2].
  EXPECT_EQ(Src.allocPages(1), Runs[2]);
}

TEST(RsanQuarantine, EvictionCounterCountsEveryPath) {
  PageSource Src(std::size_t{4} << 20);
  Src.setQuarantineBudget(2);
  EXPECT_EQ(Src.quarantineEvictions(), 0u);
  void *Runs[4];
  for (auto &R : Runs)
    R = Src.allocPages(1);
  for (auto *R : Runs)
    Src.freePages(R, 1);
  // Four quarantined singles against a budget of two: two forced out.
  EXPECT_EQ(Src.quarantineEvictions(), 2u);
  Src.drainQuarantine();
  EXPECT_EQ(Src.quarantineEvictions(), 4u) << "drain evicts the rest";
  Src.resetForTesting();
  EXPECT_EQ(Src.quarantineEvictions(), 0u);
}

//===----------------------------------------------------------------------===//
// RegionManager-level quarantine
//===----------------------------------------------------------------------===//

TEST(RsanQuarantine, DeleteRegionQuarantinesItsPages) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  rnewArray<char>(R, 3 * kPageSize); // large object: a multi-page run
  rnew<Counted>(R, 1);
  EXPECT_EQ(Mgr.quarantinedPages(), 0u);
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_GE(Mgr.quarantinedPages(), 5u)
      << "region page + large run + str/normal pages all quarantined";
}

TEST(RsanQuarantine, DeletedRegionAddressNotReusedWhileQuarantined) {
  // While a dead region's page sits quarantined, no new region can be
  // carved from it, so a stale Region* (a dangling handle, a pointer
  // kept by a debugging tool) can never alias a live region across the
  // quarantine boundary.
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *Dead = Mgr.newRegion();
  const std::uintptr_t DeadPage = pageOf(Dead);
  ASSERT_TRUE(Mgr.deleteRegionRaw(Dead));
  ASSERT_GE(Mgr.quarantinedPages(), 1u);
  for (int I = 0; I != 16; ++I) {
    Region *N = Mgr.newRegion();
    EXPECT_NE(pageOf(N), DeadPage)
        << "quarantined page re-carved into a region while still poisoned";
    ASSERT_TRUE(Mgr.deleteRegionRaw(N));
    ASSERT_LE(Mgr.quarantinedPages(), detail::kRsanDefaultQuarantinePages)
        << "budget must bound the quarantine";
  }
}

TEST(RsanQuarantine, EvictedPagesServeNewRegionsCleanly) {
  // A tiny budget forces constant eviction; evicted pages must come
  // back fully usable (ASan poison lifted, contents simply dirty).
  RegionManager Mgr(SafetyConfig::safeConfig(), std::size_t{64} << 20);
  Mgr.setQuarantineBudget(4);
  for (int I = 0; I != 50; ++I) {
    rt::Frame F;
    rt::RegionHandle R = Mgr.newRegion();
    auto *Obj = rnew<Counted>(R.get(), I);
    Obj->Next = rnew<Counted>(R.get(), I + 1);
    char *S = rstrdup(R.get(), "quarantine churn");
    EXPECT_EQ(std::strcmp(S, "quarantine churn"), 0);
    EXPECT_TRUE(deleteRegion(R));
  }
  EXPECT_LE(Mgr.quarantinedPages(), 4u);
}

//===----------------------------------------------------------------------===//
// Red zones and metadata validation
//===----------------------------------------------------------------------===//

TEST(RsanValidate, CleanRegionReportsClean) {
  RegionManager Mgr(SafetyConfig::safeConfig(), std::size_t{64} << 20);
  rt::Frame F;
  rt::RegionHandle R = Mgr.newRegion();
  rnew<Plain>(R.get(), 1);                   // str object
  rnew<Counted>(R.get(), 2);                 // scanned object
  rnewArray<char>(R.get(), 2 * kPageSize);   // large object
  rnewArray<char>(R.get(), 0);               // zero-size: must not forge
                                             // the end-of-page marker
  rstrdup(R.get(), "canary");
  RsanReport Rep = rsanCheckRegion(R.get());
  EXPECT_TRUE(Rep.Checked);
  EXPECT_TRUE(Rep.clean());
  EXPECT_GE(Rep.ObjectsChecked, 5u);
  // Validation is non-destructive: everything still deletes cleanly.
  EXPECT_TRUE(deleteRegion(R));
}

TEST(RsanValidate, CheckRegionCoversTheStrAdoptedFirstPage) {
  // A fresh region's first str object lands next to the region
  // structure; the str walk must check it there. Under ASan the
  // corrupting store first lifts the red zone's poison (the walk puts
  // it back), so the canary walk is what reports the damage.
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  char *P = rnewArray<char>(R, 16);
  ASSERT_EQ(pageOf(P), pageOf(R)) << "the str list adopts the first page";
  rnew<Counted>(R, 1); // a scanned object, on a page of its own
  auto Poke = [](char *At, char Value) {
    RGN_ASAN_UNPOISON(At, 1);
    *At = Value;
  };
  Poke(P + 16, 'X');
  RsanReport Rep = rsanCheckRegion(R);
  EXPECT_TRUE(Rep.Checked);
  EXPECT_EQ(Rep.ObjectsChecked, 2u);
  EXPECT_EQ(Rep.RedZoneViolations, 1u);
  EXPECT_EQ(Rep.MetadataViolations, 0u);
  Poke(P + 16, static_cast<char>(detail::kRsanRedZoneCanary));
  EXPECT_TRUE(rsanCheckRegion(R).clean());
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
}

#if !RGN_ASAN
// Under ASan the corrupting stores below are themselves trapped at the
// faulting instruction (the red zones are ASan-poisoned), which is the
// stronger diagnostic; these tests cover the plain-hardened build where
// the canary walk is what catches the damage.

TEST(RsanValidate, CheckRegionCountsRedZoneOverwrite) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  char *P = rnewArray<char>(R, 16);
  rnew<Plain>(R, 2);
  P[16] = 'X'; // one byte past the payload: first canary byte
  RsanReport Rep = rsanCheckRegion(R);
  EXPECT_TRUE(Rep.Checked);
  EXPECT_FALSE(Rep.clean());
  EXPECT_EQ(Rep.RedZoneViolations, 1u);
  EXPECT_EQ(Rep.MetadataViolations, 0u);
  // Repair the canary so teardown's fatal validation stays quiet.
  P[16] = static_cast<char>(detail::kRsanRedZoneCanary);
  EXPECT_TRUE(rsanCheckRegion(R).clean());
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
}

using RsanDeathTest = ::testing::Test;

TEST(RsanDeathTest, RedZoneOverflowFatalAtDelete) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  char *P = rnewArray<char>(R, 16); // str path
  P[16] = 'X';
  EXPECT_DEATH(Mgr.deleteRegionRaw(R), "red-zone canary overwritten");
}

TEST(RsanDeathTest, ScannedRedZoneOverflowFatalAtDelete) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  auto *Obj = rnew<Counted>(R, 7); // normal (scanned) path
  auto *Bytes = reinterpret_cast<char *>(Obj);
  Bytes[alignTo(sizeof(Counted), kDefaultAlignment)] = 'X';
  EXPECT_DEATH(Mgr.deleteRegionRaw(R), "red-zone canary overwritten");
}

TEST(RsanDeathTest, SizeHeaderCorruptionFatalAtDelete) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  char *P = rnewArray<char>(R, 16);
  // Clobber the tagged size word just before the payload.
  std::memset(P - detail::kRsanSizeHdr, 0xFE, sizeof(std::size_t));
  EXPECT_DEATH(Mgr.deleteRegionRaw(R), "size header corrupted");
}

#else // RGN_ASAN

TEST(RsanDeathTest, RedZoneOverflowTrappedByAsanAtTheStore) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  char *P = rnewArray<char>(R, 16);
  EXPECT_DEATH(P[16] = 'X', "AddressSanitizer");
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
}

#endif // RGN_ASAN

//===----------------------------------------------------------------------===//
// Checked dereferences and deletion diagnostics
//===----------------------------------------------------------------------===//

TEST(RsanDeathTest, StaleRegionPtrDereferenceFatal) {
  // Unsafe mode deletes unconditionally, exactly the configuration
  // where a stale pointer would otherwise be silent use-after-free.
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  RegionPtr<Plain> Stale = rnew<Plain>(R, 42);
  EXPECT_EQ(Stale->Value, 42) << "checked deref passes while live";
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_NE(Stale.get(), nullptr) << "unsafe deletion leaves the pointer";
  EXPECT_DEATH({ int V = Stale->Value; (void)V; },
               "dereferenced after its region was deleted");
}

TEST(RsanDeathTest, DoubleDeleteRegionFatal) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  Region *Saved = R;
  ASSERT_TRUE(Mgr.deleteRegionRaw(R));
  EXPECT_EQ(R, nullptr);
  EXPECT_DEATH(Mgr.deleteRegionRaw(Saved), "not live");
}

TEST(RsanDeathTest, UnderReportingCleanupThunkFatalAtDelete) {
  // The cleanup scan advances by the size each thunk returns. One that
  // under-reports would send the scan into its object's payload, read
  // here as thunk words; the checked size header catches it first.
  RegionManager Mgr(SafetyConfig::safeConfig(), std::size_t{64} << 20);
  Region *R = Mgr.newRegion();
  ScanThunk Thunk = [](void *) -> std::size_t { return 0; };
  std::memset(Mgr.allocScanned(R, 64, Thunk), 0x5A, 64);
  EXPECT_DEATH(Mgr.deleteRegionRaw(R), "rsan: cleanup thunk returned");
}

TEST(RsanDeathTest, SameRegionPtrEscapeFatal) {
  RegionManager Mgr(SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
  Region *A = Mgr.newRegion();
  Region *B = Mgr.newRegion();
  Linked *InA = rnew<Linked>(A);
  Linked *InB = rnew<Linked>(B);
  InA->Next = InA; // intra-region: fine
  EXPECT_DEATH(InA->Next = InB, "SameRegionPtr");
  ASSERT_TRUE(Mgr.deleteRegionRaw(A));
  ASSERT_TRUE(Mgr.deleteRegionRaw(B));
}

//===----------------------------------------------------------------------===//
// Parallel extension: stale shared-region handles, hint mismatches
//===----------------------------------------------------------------------===//

TEST(RsanParallel, RetiredSharedRecordsAreNeverPooled) {
  // Under harden a successful tryDelete parks the record for good
  // instead of pooling it, so a stale SharedRegion* always finds a
  // record whose generation is still even (retired) — never the
  // record's next occupant. Without this, a pooled-and-reused record makes stale
  // addRef/tryDelete silently operate on an unrelated region.
  par::ParallelSpace Space;
  RegionManager Mgr(SafetyConfig::unsafeConfig());
  par::SharedRegion *S1 = Space.share(Mgr.newRegion());
  ASSERT_TRUE(Space.tryDelete(S1));
  par::SharedRegion *S2 = Space.share(Mgr.newRegion());
  EXPECT_NE(S1, S2) << "harden must not reuse retired records";
  ASSERT_TRUE(Space.tryDelete(S2));
  // Stale tryDelete on the retired record stays a silent no-op "false"
  // (losers of a legitimate delete race take this path); only count
  // adjustments are diagnosed fatally.
  EXPECT_FALSE(Space.tryDelete(S1));
}

TEST(RsanDeathTest, StaleSharedRegionHandleFatal) {
  // A count adjustment through a handle whose region was already
  // retired is the "pooled-and-reused record" bug in the making; with
  // pooling disabled the retired (even) generation makes it detectable
  // deterministically.
  par::ParallelSpace Space;
  RegionManager Mgr(SafetyConfig::unsafeConfig());
  unsigned Tid = Space.registerThread();
  par::SharedRegion *S = Space.share(Mgr.newRegion());
  ASSERT_TRUE(Space.tryDelete(S));
  EXPECT_DEATH(Space.addRef(S, Tid), "retired SharedRegion");
  EXPECT_DEATH(Space.dropRef(S, Tid), "retired SharedRegion");
}

#endif // RGN_HARDEN_ENABLED

} // namespace
