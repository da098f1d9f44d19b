//===- tests/BarrierCountingTest.cpp - Barrier counting semantics ---------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// The write barrier applies its ±1 reference-count adjustments to the
// target region in place and defers its statistics to per-region
// counters. These tests pin the observable contract: counts and
// statistics read through the public API are exact — across many
// regions, across threads, at thread exit, and in particular at every
// deletion decision, which is where the paper's safety rests.
//
//===----------------------------------------------------------------------===//

#include "region/Parallel.h"
#include "region/Regions.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace regions;
using rt::Frame;
using rt::RegionHandle;

namespace {

struct Node {
  explicit Node(int V = 0) : Value(V) {}
  int Value;
  RegionPtr<Node> Next;
};

/// Node whose destructor only destroys its RegionPtr: deleting its
/// region may skip the cleanup scan when nothing points out of it.
struct CountOnlyNode {
  explicit CountOnlyNode(int V = 0) : Value(V) {}
  int Value;
  RegionPtr<CountOnlyNode> Next;
  using RegionCountOnly = CountOnlyNode;
};

struct BarrierCountingTest : ::testing::Test {
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};

  std::uint64_t thunksRun() const { return Mgr.stats().CleanupThunksRun; }
  std::uint64_t scansSkipped() const {
    return Mgr.stats().CleanupScansSkipped;
  }
};

//===----------------------------------------------------------------------===//
// Adjustments stay exact
//===----------------------------------------------------------------------===//

TEST_F(BarrierCountingTest, CountsExactAfterInterleavedCrossRegionStores) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  Node *InB = rnew<Node>(B, 2);

  // Ping-pong a slot in A between values in A and B: every store to
  // InB is a +1 on B, every overwrite a -1.
  Node *Slot = rnew<Node>(A, 0);
  for (int I = 0; I != 1000; ++I)
    Slot->Next = (I % 2) ? InB : InA;
  // Final state: Slot->Next == InB, so B holds exactly one external
  // reference.
  EXPECT_EQ(B->referenceCount(), 1);
  EXPECT_EQ(A->referenceCount(), 0) << "A's references are all internal";

  EXPECT_FALSE(deleteRegion(B)) << "live cross-region ref blocks deletion";
  Slot->Next = InA;
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, BufferOverflowSpillsWithoutLosingCounts) {
  // Many distinct regions adjusted back-to-back: each count must land
  // on its own region, with no adjustment lost or misattributed.
  Frame F;
  constexpr int kRegions = 24;
  RegionHandle Home = Mgr.newRegion();
  Node *Holder[kRegions];
  RegionHandle Others[kRegions];
  for (int I = 0; I != kRegions; ++I) {
    Others[I] = Mgr.newRegion();
    Holder[I] = rnew<Node>(Home, I);
  }
  for (int I = 0; I != kRegions; ++I)
    Holder[I]->Next = rnew<Node>(Others[I], I);
  for (int I = 0; I != kRegions; ++I) {
    EXPECT_EQ(Others[I]->referenceCount(), 1) << "region " << I;
    EXPECT_FALSE(deleteRegion(Others[I]));
    Holder[I]->Next = nullptr;
    EXPECT_TRUE(deleteRegion(Others[I])) << "region " << I;
  }
  EXPECT_TRUE(deleteRegion(Home));
  EXPECT_EQ(Mgr.stats().DeleteFailures,
            static_cast<std::uint64_t>(kRegions));
}

TEST_F(BarrierCountingTest, DeletionInspectsPendingBufferFirst) {
  // A single cross-region store's +1, made just before the deletion,
  // must veto it.
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  // One cross-region store: +1 on B.
  InA->Next = rnew<Node>(B, 2);
  EXPECT_FALSE(deleteRegion(B))
      << "deletion must see the store's adjustment";
  InA->Next = nullptr;
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

//===----------------------------------------------------------------------===//
// Deferred statistics equivalence
//===----------------------------------------------------------------------===//

TEST_F(BarrierCountingTest, DeferredStatsMatchEagerValues) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *NA1 = rnew<Node>(A, 1);
  Node *NA2 = rnew<Node>(A, 2);
  Node *NB = rnew<Node>(B, 3);

  const RegionStats &Before = Mgr.stats();
  std::uint64_t Stores0 = Before.BarrierStores;
  std::uint64_t Same0 = Before.BarrierSameRegion;
  std::uint64_t Adj0 = Before.BarrierAdjustments;

  NA1->Next = NA2; // sameregion: 1 store, 1 sameregion, 0 adjustments
  NA1->Next = NB;  // cross: 1 store, 1 sameregion (slot in A, old in A),
                   //   1 adjustment (+1 B; old A == slot region, uncounted)
  NA1->Next = nullptr; // cross: 1 store, 0 sameregion (old in B, new
                       //   null, slot in A), 1 adjustment (-1 B)
  static RegionPtr<Node> Global;
  Global = NA1; // global slot: 1 store, 0 sameregion, 1 adjustment (+1 A)
  Global = nullptr; // 1 store, 0 sameregion, 1 adjustment (-1 A)

  const RegionStats &After = Mgr.stats();
  EXPECT_EQ(After.BarrierStores - Stores0, 5u);
  EXPECT_EQ(After.BarrierSameRegion - Same0, 2u);
  EXPECT_EQ(After.BarrierAdjustments - Adj0, 4u);

  EXPECT_EQ(A->referenceCount(), 0);
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, StatsStayExactPastTwoToTheTwentyStores) {
  // Each round mixes every barrier outcome through one slot in A and
  // one global slot; A's own counters pass 2^20 stores on the way.
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  Node *InA2 = rnew<Node>(A, 2);
  Node *InB = rnew<Node>(B, 3);
  Node *Holder = rnew<Node>(A, 0);
  static RegionPtr<Node> Global;

  const RegionStats Before = Mgr.stats();
  const std::uint64_t AStores0 = A->barrierStores();
  const std::uint64_t ASame0 = A->barrierSameRegion();
  const std::uint64_t AAdj0 = A->barrierAdjustments();
  constexpr std::uint64_t kRounds = (1u << 18) + 7;
  for (std::uint64_t I = 0; I != kRounds; ++I) {
    Holder->Next = InA;     // slot in new value's region: same, on A
    Holder->Next = InA2;    // one region throughout: same, on A
    Holder->Next = InB;     // slot in old value's region: same, +1 B, on B
    Holder->Next = nullptr; // cross: other, -1 B, on B
    Global = InA;           // global slot: other, +1 A, on A
    Global = nullptr;       // global slot: other, -1 A, on A
  }

  const RegionStats After = Mgr.stats();
  EXPECT_EQ(After.BarrierStores - Before.BarrierStores, 6 * kRounds);
  EXPECT_EQ(After.BarrierSameRegion - Before.BarrierSameRegion, 3 * kRounds);
  EXPECT_EQ(After.BarrierAdjustments - Before.BarrierAdjustments,
            4 * kRounds);
  ASSERT_GT(A->barrierStores() - AStores0, std::uint64_t{1} << 20);
  EXPECT_EQ(A->barrierStores() - AStores0, 4 * kRounds);
  EXPECT_EQ(A->barrierSameRegion() - ASame0, 2 * kRounds);
  EXPECT_EQ(A->barrierAdjustments() - AAdj0, 2 * kRounds);
  EXPECT_EQ(A->referenceCount(), 0);
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, StatsFoldAtRegionDeletionToo) {
  // Deltas parked on a region must survive its deletion: fold into the
  // manager aggregate when the region dies, visible in stats() after.
  Frame F;
  std::uint64_t Stores0 = Mgr.stats().BarrierStores;
  RegionHandle A = Mgr.newRegion();
  Node *N1 = rnew<Node>(A, 1);
  N1->Next = rnew<Node>(A, 2); // sameregion store parked on A
  // Deletion runs N1's cleanup thunk, whose ~RegionPtr nulls Next —
  // one more barriered (sameregion) store, parked on A mid-deletion.
  EXPECT_TRUE(deleteRegion(A));
  EXPECT_EQ(Mgr.stats().BarrierStores - Stores0, 2u)
      << "deltas parked on a deleted region must not vanish";
}

//===----------------------------------------------------------------------===//
// Out-references decide the cleanup scan
//===----------------------------------------------------------------------===//

TEST_F(BarrierCountingTest, OutRefReleasedWhenHolderDeleted) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  CountOnlyNode *InA = rnew<CountOnlyNode>(A, 1);
  InA->Next = rnew<CountOnlyNode>(B, 2);
  EXPECT_EQ(A->outRefs(), 1);
  EXPECT_EQ(B->outRefs(), 0);
  EXPECT_EQ(B->referenceCount(), 1);
  EXPECT_FALSE(deleteRegion(B));

  std::uint64_t Thunks = thunksRun();
  std::uint64_t Skipped = scansSkipped();
  EXPECT_TRUE(deleteRegion(A)) << "A itself is unreferenced";
  EXPECT_EQ(thunksRun(), Thunks + 1) << "the out-ref forces the scan";
  EXPECT_EQ(scansSkipped(), Skipped);
  EXPECT_EQ(B->referenceCount(), 0) << "A's cleanup released B";
  EXPECT_TRUE(deleteRegion(B));
}

TEST_F(BarrierCountingTest, ClearedOutRefLetsTheScanBeSkipped) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  RegionHandle C = Mgr.newRegion();
  CountOnlyNode *InA = rnew<CountOnlyNode>(A, 1);
  CountOnlyNode *InB = rnew<CountOnlyNode>(B, 2);
  CountOnlyNode *InC = rnew<CountOnlyNode>(C, 3);
  // Retargeting between two other regions nets to zero on A.
  for (int I = 0; I != 101; ++I)
    InA->Next = (I % 2) ? InC : InB;
  EXPECT_EQ(A->outRefs(), 1);
  InA->Next = InA; // sameregion overwrite releases the last out-ref
  EXPECT_EQ(A->outRefs(), 0);
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_EQ(C->referenceCount(), 0);

  std::uint64_t Thunks = thunksRun();
  std::uint64_t Skipped = scansSkipped();
  EXPECT_TRUE(deleteRegion(A));
  EXPECT_EQ(thunksRun(), Thunks) << "nothing to undo: scan skipped";
  EXPECT_EQ(scansSkipped(), Skipped + 1);
  EXPECT_EQ(B->referenceCount(), 0) << "skipping must not disturb counts";
  EXPECT_EQ(C->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(C));
}

TEST_F(BarrierCountingTest, GlobalAndStackSlotsLeaveOutRefsAlone) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  CountOnlyNode *InA = rnew<CountOnlyNode>(A, 1);
  static RegionPtr<CountOnlyNode> Global;
  Global = InA;
  {
    RegionPtr<CountOnlyNode> OnStack = InA;
    EXPECT_EQ(A->referenceCount(), 2);
  }
  EXPECT_EQ(A->referenceCount(), 1);
  EXPECT_EQ(A->outRefs(), 0) << "the slots are in no region";
  Global = nullptr;
  EXPECT_EQ(A->outRefs(), 0);
  std::uint64_t Skipped = scansSkipped();
  EXPECT_TRUE(deleteRegion(A));
  EXPECT_EQ(scansSkipped(), Skipped + 1);
}

TEST_F(BarrierCountingTest, CrossManagerOutRefsAreCounted) {
  Frame F;
  RegionManager Other{SafetyConfig::safeConfig(), std::size_t{16} << 20};
  RegionManager Uncounted{SafetyConfig::unsafeConfig(),
                          std::size_t{16} << 20};
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Other.newRegion();
  RegionHandle U = Uncounted.newRegion();
  CountOnlyNode *InA = rnew<CountOnlyNode>(A, 1);
  CountOnlyNode *InB = rnew<CountOnlyNode>(B, 2);
  InA->Next = InB;
  InB->Next = InA;
  EXPECT_EQ(A->outRefs(), 1);
  EXPECT_EQ(B->outRefs(), 1);

  // A pointer into a region that keeps no count is no out-ref.
  CountOnlyNode *Spare = rnew<CountOnlyNode>(A, 3);
  Spare->Next = rnew<CountOnlyNode>(U, 4);
  EXPECT_EQ(A->outRefs(), 1);

  InB->Next = nullptr;
  EXPECT_EQ(B->outRefs(), 0);
  std::uint64_t OtherThunks = Other.stats().CleanupThunksRun;
  EXPECT_FALSE(deleteRegion(B)) << "A still points into B";
  std::uint64_t Thunks = thunksRun();
  EXPECT_TRUE(deleteRegion(A));
  EXPECT_EQ(thunksRun(), Thunks + 2) << "A's out-ref into B forces its scan";
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_EQ(Other.stats().CleanupThunksRun, OtherThunks)
      << "B's cleared out-ref lets its scan be skipped";
  EXPECT_EQ(Other.stats().CleanupScansSkipped, 1u);
  EXPECT_TRUE(deleteRegion(U));
}

TEST_F(BarrierCountingTest, ResetRegionSkipsAgainInItsNextIncarnation) {
  Frame F;
  RegionHandle B = Mgr.newRegion();
  Region *A = Mgr.newRegion();
  CountOnlyNode *InA = rnew<CountOnlyNode>(A, 1);
  InA->Next = rnew<CountOnlyNode>(B, 2);
  EXPECT_EQ(A->outRefs(), 1);

  std::uint64_t Thunks = thunksRun();
  ASSERT_TRUE(Mgr.resetRegion(A));
  EXPECT_EQ(thunksRun(), Thunks + 1) << "the out-ref forces the scan";
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_EQ(A->outRefs(), 0);
  EXPECT_FALSE(A->mayFinalize());

  // The next incarnation holds only sameregion links.
  CountOnlyNode *Again = rnew<CountOnlyNode>(A, 3);
  Again->Next = rnew<CountOnlyNode>(A, 4);
  std::uint64_t Skipped = scansSkipped();
  ASSERT_TRUE(Mgr.resetRegion(A));
  EXPECT_EQ(thunksRun(), Thunks + 1);
  EXPECT_EQ(scansSkipped(), Skipped + 1);
  EXPECT_TRUE(Mgr.deleteRegionRaw(A));
  EXPECT_TRUE(deleteRegion(B));

  // With the scan off nothing releases A's out-ref; the reset still
  // starts the next incarnation without it.
  SafetyConfig NoCleanup = SafetyConfig::safeConfig();
  NoCleanup.CleanupScan = false;
  RegionManager Leaky{NoCleanup, std::size_t{16} << 20};
  Region *Holder = Leaky.newRegion();
  Region *Target = Leaky.newRegion();
  rnew<CountOnlyNode>(Holder, 5)->Next = rnew<CountOnlyNode>(Target, 6);
  EXPECT_EQ(Holder->outRefs(), 1);
  ASSERT_TRUE(Leaky.resetRegion(Holder));
  EXPECT_EQ(Holder->outRefs(), 0);
  EXPECT_EQ(Target->referenceCount(), 1) << "no scan, no release";
}

//===----------------------------------------------------------------------===//
// Static sameregion elision
//===----------------------------------------------------------------------===//

TEST_F(BarrierCountingTest, SameRegionPtrCrossRegionStoreDies) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  struct Linked {
    SameRegionPtr<Linked> Next;
  };
  Linked *InA = rnew<Linked>(A);
  Linked *InB = rnew<Linked>(B);
  InA->Next = InA; // sameregion: fine
  // Unhardened builds die on the containment assert; RGN_HARDEN builds
  // report the escape through rsan's fatal diagnostic first.
  EXPECT_DEATH(InA->Next = InB, "SameRegionPtr");
  InA->Next = nullptr;
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

//===----------------------------------------------------------------------===//
// Stores made on other threads
//===----------------------------------------------------------------------===//

TEST_F(BarrierCountingTest, ThreadExitFlushesBufferedIncrement) {
  // Regression test: when the barrier buffered its adjustments per
  // thread, a thread that exited holding a buffered +1 lost it, so this
  // deletion wrongly SUCCEEDED with InA->Next still pointing into B —
  // the exact use-after-free the counts exist to prevent.
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  Node *InB = rnew<Node>(B, 2);
  std::thread([&] {
    // The +1 for B is made on THIS thread, which never inspects a
    // count and exits right after.
    InA->Next = InB;
  }).join();
  EXPECT_EQ(B->referenceCount(), 1)
      << "+1 from the exited thread was lost";
  EXPECT_FALSE(deleteRegion(B))
      << "cross-region reference stored by an exited thread must still "
         "veto deletion";
  InA->Next = nullptr;
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, ThreadExitFlushesBufferedDecrement) {
  // The mirror image: the exiting thread clears the reference, and its
  // -1 must land or the deletion is refused forever (a leak).
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  InA->Next = rnew<Node>(B, 2);
  EXPECT_EQ(B->referenceCount(), 1);
  std::thread([&] { InA->Next = nullptr; }).join();
  EXPECT_EQ(B->referenceCount(), 0)
      << "-1 from the exited thread was lost";
  EXPECT_TRUE(deleteRegion(B))
      << "deletion must succeed once the exited thread's store cleared "
         "the last reference";
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, ManyExitingThreadsLeaveCountsExact) {
  // Thread churn with deltas that cancel across threads: every ±1 must
  // survive its thread. Serial joins keep the store ordering
  // well-defined (each thread sees the previous one's stores).
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  constexpr int kThreads = 16;
  Node *Holders[kThreads];
  Node *InB = rnew<Node>(B, 0);
  for (int I = 0; I != kThreads; ++I)
    Holders[I] = rnew<Node>(A, I);
  for (int I = 0; I != kThreads; ++I)
    std::thread([&, I] {
      Holders[I]->Next = InB;              // +1 B
      if (I % 2)
        Holders[I]->Next = nullptr;        // -1 B, same thread
    }).join();
  EXPECT_EQ(B->referenceCount(), kThreads / 2);
  for (int I = 0; I != kThreads; I += 2)
    Holders[I]->Next = nullptr;
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, LiveWorkerStoreVetoesDeletion) {
  // Regression test: a cross-region store made by a thread that is
  // still running must veto the owner's deletion as soon as the owner
  // can see the store. When the barrier kept its +1 in a per-thread
  // buffer until thread exit, this deletion wrongly SUCCEEDED with
  // InA->Next still pointing into B.
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  Node *InB = rnew<Node>(B, 2);
  std::atomic<bool> Stored{false};
  std::atomic<bool> Checked{false};
  std::thread Worker([&] {
    InA->Next = InB; // +1 on B
    Stored.store(true, std::memory_order_release);
    while (!Checked.load(std::memory_order_acquire))
      std::this_thread::yield();
    InA->Next = nullptr; // -1 on B, after the owner has looked
  });
  while (!Stored.load(std::memory_order_acquire))
    std::this_thread::yield();
  const long long Count = B->referenceCount();
  const bool Deleted = deleteRegion(B);
  Checked.store(true, std::memory_order_release);
  Worker.join();
  EXPECT_EQ(Count, 1) << "the live worker's +1 must be visible";
  ASSERT_FALSE(Deleted)
      << "a reference stored by a live thread must veto deletion";
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, WorkerOutRefReleasedByOwnerDelete) {
  // A worker's cross-region store moves A's out-reference count as
  // well as B's count; after the join the owner's deletion of A must
  // see it, run A's cleanup scan and so release B.
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  CountOnlyNode *InA = rnew<CountOnlyNode>(A, 1);
  CountOnlyNode *InB = rnew<CountOnlyNode>(B, 2);
  std::thread([&] { InA->Next = InB; }).join();
  EXPECT_EQ(A->outRefs(), 1);
  EXPECT_EQ(B->referenceCount(), 1);
  EXPECT_FALSE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
  EXPECT_EQ(B->referenceCount(), 0) << "A's cleanup released B";
  EXPECT_TRUE(deleteRegion(B));
}

//===----------------------------------------------------------------------===//
// Parallel deletion sees barrier counts too
//===----------------------------------------------------------------------===//

TEST(ParallelBufferedCountingTest, TryDeleteFlushesPendingCounts) {
  // A safe-config manager behind a ParallelSpace: a barrier adjustment
  // must be visible to tryDelete's inspection, and a refusal
  // by the owning manager must leave the shared record retryable
  // instead of aborting (the old path asserted).
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};
  par::ParallelSpace Space;
  par::ThreadSlot Tid(Space);

  Region *Home = Mgr.newRegion();
  par::SharedRegion *SHome = Space.share(Home);
  Region *Target = Mgr.newRegion();
  par::SharedRegion *STarget = Space.share(Target);

  Node *Holder = rnew<Node>(Home, 0);
  // Cross-region store through the ordinary barrier: +1 on Target.
  Holder->Next = rnew<Node>(Target, 1);
  EXPECT_FALSE(Space.tryDelete(STarget))
      << "manager-side count must veto shared deletion";
  EXPECT_EQ(Space.liveSharedRegions(), 2u) << "refusal keeps the record";

  Holder->Next = nullptr;
  EXPECT_TRUE(Space.tryDelete(STarget)) << "retry succeeds once cleared";
  EXPECT_FALSE(Space.tryDelete(STarget)) << "second delete is a no-op";
  EXPECT_TRUE(Space.tryDelete(SHome));
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

TEST(ParallelBufferedCountingTest, UnregisterThreadBanksBalances) {
  // An exiting thread's local-count balances stay in its slot: sums
  // (and so deletability) are unchanged, and the freed slot index is
  // reissued to a thread that adds to them.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  par::ParallelSpace Space;
  par::SharedRegion *S = Space.share(Mgr.newRegion());

  unsigned TidA = Space.registerThread();
  Space.addRef(S, TidA);
  Space.unregisterThread(TidA);
  EXPECT_EQ(S->totalCount(), 1) << "the balance survives the exit";

  unsigned TidB = Space.registerThread();
  EXPECT_EQ(TidB, TidA) << "slot index is recycled";
  Space.dropRef(S, TidB);
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
  Space.unregisterThread(TidB);
}

} // namespace
