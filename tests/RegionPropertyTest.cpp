//===- tests/RegionPropertyTest.cpp - Model-checked safety properties -----===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Randomized property tests: a reference model tracks every pointer we
// create (heap fields, globals, registered locals) and predicts, for
// each region, the paper's deletion rule. After every random operation
// batch the library's reference counts and deleteRegion verdicts must
// match the model exactly.
//
//===----------------------------------------------------------------------===//

#include "region/Debug.h"
#include "region/Metrics.h"
#include "region/Parallel.h"
#include "region/Pool.h"
#include "region/Regions.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace regions;

namespace {

struct Node {
  int Id = 0;
  RegionPtr<Node> Out; ///< one heap reference per node keeps the model simple
};

/// Node with the RegionCountOnly marker: its regions skip the cleanup
/// scan whenever they hold no out-reference.
struct CountOnlyNode {
  int Id = 0;
  RegionPtr<CountOnlyNode> Out;
  using RegionCountOnly = CountOnlyNode;
};

/// One global slot per test run and node type.
template <class NodeT> RegionPtr<NodeT> GlobalSlotOf;

/// The oracle: predicts each region's reference count from first
/// principles (paper §4.2: count pointers from other regions, global
/// storage, and scanned stack frames; sameregion pointers and
/// unscanned locals are never counted).
struct Model {
  struct HeapEdge {
    int FromRegion; ///< region holding the pointer
    int ToRegion;   ///< region pointed into
  };
  std::map<const void *, HeapEdge> HeapEdges; ///< keyed by slot address
  int GlobalTarget = -1;                      ///< region id or -1

  long long expectedCount(int RegionId, bool CountsOn) const {
    if (!CountsOn)
      return 0;
    long long N = 0;
    for (const auto &[Slot, Edge] : HeapEdges)
      if (Edge.ToRegion == RegionId && Edge.FromRegion != RegionId)
        ++N;
    if (GlobalTarget == RegionId)
      ++N;
    return N;
  }

  /// Whether a slot in \p RegionId points into another region: what
  /// its cleanup scan would have to release.
  bool hasOutEdge(int RegionId) const {
    for (const auto &[Slot, Edge] : HeapEdges)
      if (Edge.FromRegion == RegionId && Edge.ToRegion != RegionId)
        return true;
    return false;
  }
};

struct RegionPropertyTest : ::testing::TestWithParam<std::uint64_t> {
  void SetUp() override {
    GlobalSlotOf<Node> = nullptr;
    GlobalSlotOf<CountOnlyNode> = nullptr;
  }
};

/// Random cross-region, sameregion and global stores on NodeT, checked
/// against the oracle; then regions are deleted in rounds until none is
/// left. With a
/// RegionCountOnly NodeT a deletion must run the cleanup scan exactly
/// when the oracle says the region still points out of itself.
template <class NodeT> void countsMatchTheModel(std::uint64_t Seed) {
  constexpr bool kMayFinalize = detail::mayFinalize<NodeT>;
  RegionPtr<NodeT> &GlobalSlot = GlobalSlotOf<NodeT>;
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{256} << 20};
  Prng Rng(Seed);
  Model Oracle;

  constexpr int kRegions = 6;
  constexpr int kNodesPerRegion = 8;
  std::vector<Region *> Regions;
  std::vector<std::vector<NodeT *>> Nodes(kRegions);
  for (int R = 0; R != kRegions; ++R) {
    Regions.push_back(Mgr.newRegion());
    for (int N = 0; N != kNodesPerRegion; ++N)
      Nodes[R].push_back(rnew<NodeT>(Regions[static_cast<unsigned>(R)]));
  }

  auto CheckAllCounts = [&](const char *When) {
    for (int R = 0; R != kRegions; ++R)
      ASSERT_EQ(Regions[R]->referenceCount(),
                Oracle.expectedCount(R, true))
          << When << ": region " << R;
  };

  for (int Step = 0; Step != 3000; ++Step) {
    int FromR = static_cast<int>(Rng.nextBelow(kRegions));
    int FromN = static_cast<int>(Rng.nextBelow(kNodesPerRegion));
    NodeT *Holder = Nodes[FromR][FromN];
    switch (Rng.nextBelow(4)) {
    case 0: { // point a heap field at a random node
      int ToR = static_cast<int>(Rng.nextBelow(kRegions));
      int ToN = static_cast<int>(Rng.nextBelow(kNodesPerRegion));
      Holder->Out = Nodes[ToR][ToN];
      Oracle.HeapEdges[&Holder->Out] = {FromR, ToR};
      break;
    }
    case 1: // clear a heap field
      Holder->Out = nullptr;
      Oracle.HeapEdges.erase(&Holder->Out);
      break;
    case 2: { // retarget the global
      int ToR = static_cast<int>(Rng.nextBelow(kRegions));
      GlobalSlot = Nodes[ToR][0];
      Oracle.GlobalTarget = ToR;
      break;
    }
    case 3: // clear the global
      GlobalSlot = nullptr;
      Oracle.GlobalTarget = -1;
      break;
    }
    if (Step % 250 == 0)
      CheckAllCounts("mid-run");
  }
  CheckAllCounts("final");

  // Deletion verdicts must match the oracle for every region, round
  // after round. Between rounds every edge into one random survivor is
  // cleared, so that it becomes deletable, and so may regions whose
  // only out-edges pointed at it (with no out-edge left to release).
  for (int Round = 0; Round <= kRegions; ++Round) {
    for (int R = 0; R != kRegions; ++R) {
      if (!Regions[R])
        continue;
      bool Expect = Oracle.expectedCount(R, true) == 0;
      Region *Target = Regions[R];
      std::uint64_t ThunksBefore = Mgr.stats().CleanupThunksRun;
      bool Got = Mgr.deleteRegionRaw(Target);
      EXPECT_EQ(Got, Expect) << "region " << R;
      if (!Got)
        continue;
      std::uint64_t Thunks = Mgr.stats().CleanupThunksRun - ThunksBefore;
      bool Scanned = kMayFinalize || Oracle.hasOutEdge(R);
      ASSERT_EQ(Thunks, Scanned ? std::uint64_t{kNodesPerRegion} : 0u)
          << "region " << R << ": the scan must run iff it has work";
      // Deleting the region dropped its outgoing edges; fix the model.
      for (auto It = Oracle.HeapEdges.begin();
           It != Oracle.HeapEdges.end();) {
        if (It->second.FromRegion == R || It->second.ToRegion == R)
          It = Oracle.HeapEdges.erase(It);
        else
          ++It;
      }
      if (Oracle.GlobalTarget == R) {
        // The global still points into freed pages: clear it without
        // barrier effects (regionOf is already null for freed pages).
        GlobalSlot = nullptr;
        Oracle.GlobalTarget = -1;
      }
      Regions[R] = nullptr;
      // Verify the survivors immediately: the cleanup scan must have
      // decremented exactly the dead region's outgoing references.
      for (int S = 0; S != kRegions; ++S) {
        if (!Regions[S])
          continue;
        ASSERT_EQ(Regions[S]->referenceCount(),
                  Oracle.expectedCount(S, true))
            << "after deleting region " << R << ", survivor " << S;
      }
    }
    std::vector<int> Live;
    for (int R = 0; R != kRegions; ++R)
      if (Regions[R])
        Live.push_back(R);
    if (Live.empty())
      break;
    int Freed = Live[Rng.nextBelow(Live.size())];
    for (auto It = Oracle.HeapEdges.begin();
         It != Oracle.HeapEdges.end();) {
      if (It->second.ToRegion != Freed || It->second.FromRegion == Freed) {
        ++It;
        continue;
      }
      *static_cast<RegionPtr<NodeT> *>(const_cast<void *>(It->first)) =
          nullptr;
      It = Oracle.HeapEdges.erase(It);
    }
    if (Oracle.GlobalTarget == Freed) {
      GlobalSlot = nullptr;
      Oracle.GlobalTarget = -1;
    }
  }
  for (int R = 0; R != kRegions; ++R)
    EXPECT_EQ(Regions[R], nullptr) << "region " << R << " never deleted";
}

TEST_P(RegionPropertyTest, CountsMatchTheModel) {
  countsMatchTheModel<Node>(GetParam());
}

TEST_P(RegionPropertyTest, CountsMatchTheModelCountOnlyNode) {
  countsMatchTheModel<CountOnlyNode>(GetParam());
}

TEST_P(RegionPropertyTest, LocalsNeverAffectCountsUntilScan) {
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{128} << 20};
  Prng Rng(GetParam() * 977 + 5);
  rt::Frame Outer;

  Region *R = Mgr.newRegion();
  std::vector<Node *> Pool;
  for (int N = 0; N != 16; ++N)
    Pool.push_back(rnew<Node>(R));

  // Churn registered locals wildly: counts must stay untouched.
  {
    rt::Ref<Node> A, B, C;
    for (int Step = 0; Step != 2000; ++Step) {
      rt::Ref<Node> *Target =
          Rng.nextBelow(3) == 0 ? &A : Rng.nextBelow(2) ? &B : &C;
      *Target = Rng.nextBool(0.2)
                    ? nullptr
                    : Pool[Rng.nextBelow(Pool.size())];
      ASSERT_EQ(R->referenceCount(), 0) << "locals are deferred";
    }
    // Now force a scan from a callee frame: exactly the live locals
    // pointing into R must be counted.
    {
      rt::Frame Inner;
      rt::RuntimeStack::current().scanForDelete();
      long long Live = (A.get() != nullptr) + (B.get() != nullptr) +
                       (C.get() != nullptr);
      ASSERT_EQ(R->referenceCount(), Live);
    }
    ASSERT_EQ(R->referenceCount(), 0) << "unscan on return";
    A = nullptr;
    B = nullptr;
    C = nullptr;
  }
  EXPECT_TRUE(Mgr.deleteRegionRaw(R));
}

TEST_P(RegionPropertyTest, RandomScopeNestingBalances) {
  // Randomly nested frames with scans at random depths: after
  // everything unwinds, every region's count must be zero again.
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{128} << 20};
  Prng Rng(GetParam() * 31 + 7);
  Region *R = Mgr.newRegion();
  std::vector<Node *> Pool;
  for (int N = 0; N != 8; ++N)
    Pool.push_back(rnew<Node>(R));

  struct Rec {
    static void go(Prng &Rng, Region *R, std::vector<Node *> &Pool,
                   int Depth) {
      rt::Frame F;
      rt::Ref<Node> L1 = Pool[Rng.nextBelow(Pool.size())];
      rt::Ref<Node> L2 =
          Rng.nextBool(0.5) ? Pool[Rng.nextBelow(Pool.size())] : nullptr;
      if (Rng.nextBool(0.3))
        rt::RuntimeStack::current().scanForDelete();
      if (Depth < 12 && Rng.nextBool(0.7))
        go(Rng, R, Pool, Depth + 1);
      if (Rng.nextBool(0.3))
        rt::RuntimeStack::current().scanForDelete();
      // Mutate locals after possible scans (the localWrite slow path
      // when our frame was scanned by a callee's deletion).
      L1 = Pool[Rng.nextBelow(Pool.size())];
      L2 = nullptr;
    }
  };
  {
    rt::Frame Top;
    Rec::go(Rng, R, Pool, 0);
    Rec::go(Rng, R, Pool, 0);
  }
  EXPECT_EQ(R->referenceCount(), 0)
      << "scan/unscan/localWrite must balance exactly";
  EXPECT_TRUE(Mgr.deleteRegionRaw(R));
}

TEST_P(RegionPropertyTest, ResetMatchesDeletePlusNewObservably) {
  // rpool parity: a region recycled in place with resetRegion must be
  // observationally identical to one deleted and recreated — same
  // stats totals and rstat histograms, walkable Figure-7 pages, clean
  // hardened metadata, and the same refusal protocol while counted
  // references or live locals pend. Two managers run the same random
  // workload, one per strategy.
  RegionManager MgrA{SafetyConfig::safeConfig(), std::size_t{128} << 20};
  RegionManager MgrB{SafetyConfig::safeConfig(), std::size_t{128} << 20};
  Prng Rng(GetParam() * 131 + 17);
  Region *A = MgrA.newRegion(); // recycled in place every round
  Region *B = MgrB.newRegion(); // deleted and recreated every round

  for (int Round = 0; Round != 25; ++Round) {
    // One random workload, applied identically to both regions: raw
    // blobs across every size class (bump pages and large-object runs)
    // plus scanned nodes with sameregion links for the cleanup walk.
    for (unsigned I = 1 + Rng.nextBelow(20); I != 0; --I) {
      std::size_t Size = std::size_t{16} << Rng.nextBelow(11); // ≤ 16 KB
      MgrA.allocRaw(A, Size);
      MgrB.allocRaw(B, Size);
    }
    for (unsigned I = Rng.nextBelow(8); I != 0; --I) {
      Node *NA = rnew<Node>(A);
      Node *NB = rnew<Node>(B);
      NA->Out = NA; // sameregion: walked at cleanup, never counted
      NB->Out = NB;
    }
    ASSERT_EQ(A->allocCount(), B->allocCount());
    ASSERT_EQ(A->requestedBytes(), B->requestedBytes());

    if (Rng.nextBool(0.4)) {
      // Pending external references refuse a reset exactly as they
      // refuse a deletion; both leave the region untouched.
      A->rcAdd(1);
      B->rcAdd(1);
      EXPECT_FALSE(MgrA.resetRegion(A));
      Region *Handle = B;
      EXPECT_FALSE(MgrB.deleteRegionRaw(Handle));
      EXPECT_EQ(Handle, B) << "refusal leaves the handle intact";
      EXPECT_GT(A->allocCount(), 0u) << "refused reset changes nothing";
      A->rcAdd(-1);
      B->rcAdd(-1);
    }

    if (Rng.nextBool(0.4)) {
      // A live local refuses a reset exactly as it refuses a deletion:
      // in the top frame through the top-frame count, in a caller's
      // frame through the stack scan. The raw deletion handle is not
      // registered, so only the locals count.
      rt::Frame Outer;
      rt::RegionHandle LocalA = A;
      rt::RegionHandle LocalB = B;
      auto ExpectRefused = [&] {
        EXPECT_FALSE(MgrA.resetRegion(A));
        Region *Handle = B;
        EXPECT_FALSE(MgrB.deleteRegionRaw(Handle));
        EXPECT_EQ(Handle, B) << "refusal leaves the handle intact";
      };
      if (Rng.nextBool(0.5)) {
        ExpectRefused();
      } else {
        rt::Frame Inner;
        ExpectRefused();
      }
      EXPECT_GT(A->allocCount(), 0u) << "refused reset changes nothing";
    }

    RsanReport Before = rsanCheckRegion(A);
    if (Before.Checked) {
      EXPECT_TRUE(Before.clean()) << "round " << Round << " pre-reset";
    }

    ASSERT_TRUE(MgrA.resetRegion(A));
    ASSERT_TRUE(MgrB.deleteRegionRaw(B));
    B = MgrB.newRegion();

    // The recycled region reads as freshly created: empty, clean
    // metadata, and a terminating Figure-7 walk over the reset page.
    RsanReport After = rsanCheckRegion(A);
    if (After.Checked) {
      EXPECT_TRUE(After.clean()) << "round " << Round << " post-reset";
    }
    EXPECT_EQ(A->allocCount(), 0u);
    EXPECT_EQ(A->requestedBytes(), 0u);
    EXPECT_EQ(A->referenceCount(), 0);

    // Observable manager totals stay in lockstep across strategies.
    const RegionStats SA = MgrA.stats();
    const RegionStats SB = MgrB.stats();
    ASSERT_EQ(SA.TotalRegions, SB.TotalRegions);
    ASSERT_EQ(SA.LiveRegions, SB.LiveRegions);
    ASSERT_EQ(SA.TotalAllocs, SB.TotalAllocs);
    ASSERT_EQ(SA.TotalRequestedBytes, SB.TotalRequestedBytes);
    ASSERT_EQ(SA.MaxRegionBytes, SB.MaxRegionBytes);
    ASSERT_EQ(SA.MaxLiveRequestedBytes, SB.MaxLiveRequestedBytes);
    ASSERT_EQ(SA.CleanupThunksRun, SB.CleanupThunksRun);
    ASSERT_EQ(SA.BarrierStores, SB.BarrierStores);
    ASSERT_EQ(SA.BarrierSameRegion, SB.BarrierSameRegion);
    ASSERT_EQ(SA.BarrierAdjustments, SB.BarrierAdjustments);
    ASSERT_EQ(SA.ResetRefusals, SB.DeleteFailures)
        << "each strategy's refusals tick its own counter in lockstep";
    const MetricsSnapshot MA = MgrA.metrics();
    const MetricsSnapshot MB = MgrB.metrics();
    for (unsigned I = 0; I != MetricsSnapshot::kLogBuckets; ++I) {
      ASSERT_EQ(MA.RegionSizeClasses[I], MB.RegionSizeClasses[I])
          << "size-class bucket " << I;
      ASSERT_EQ(MA.RegionLifetimes[I], MB.RegionLifetimes[I])
          << "lifetime bucket " << I;
    }
  }
  // Final deletion proves the recycled region's pages walk to their
  // end markers one last time (the cleanup scan traverses them all).
  EXPECT_TRUE(MgrA.deleteRegionRaw(A));
  EXPECT_TRUE(MgrB.deleteRegionRaw(B));
}

TEST_P(RegionPropertyTest, LiveBytesMatchTheOracle) {
  // The manager keeps live requested bytes as one running total and
  // samples Table 2's "max live" watermark from it at retirement. An
  // oracle that knows every in-use region's bytes checks both after
  // each operation: direct and pooled creation, every allocation path,
  // delete, reset, pool release (which may trim), a full trim, and a
  // quiesced manager's shared region retired from another thread.
  // Pooled regions hold no bytes, so the oracle leaves them out.
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{256} << 20};
  Prng Rng(GetParam() * 7919 + 3);
  std::map<Region *, std::uint64_t> Live; ///< in-use region -> bytes
  std::uint64_t MaxLive = 0;
  auto Check = [&](const char *Op) {
    std::uint64_t Sum = 0;
    for (const auto &[R, Bytes] : Live) {
      ASSERT_EQ(R->requestedBytes(), Bytes) << "after " << Op;
      Sum += Bytes;
    }
    MaxLive = std::max(MaxLive, Sum);
    RegionStats S = Mgr.stats();
    ASSERT_EQ(S.LiveRequestedBytes, Sum) << "after " << Op;
    ASSERT_EQ(S.MaxLiveRequestedBytes, MaxLive) << "after " << Op;
  };
  auto Pick = [&] {
    auto It = Live.begin();
    std::advance(It, Rng.nextBelow(Live.size()));
    return It->first;
  };

  {
    // Small budgets: releases trim the oldest cached region, and a
    // region that outgrows the page budget is deleted, not parked.
    RegionPool Pool(Mgr, {/*MaxRegions=*/3, /*MaxRetainedPages=*/24});
    for (int Step = 0; Step != 600; ++Step) {
      const char *Op = "newRegion";
      switch (Live.empty() ? 0 : Rng.nextBelow(10)) {
      case 0:
        Live[Mgr.newRegion()] = 0;
        break;
      case 1:
        Op = "acquire";
        Live[Pool.acquire()] = 0;
        break;
      case 2:
      case 3:
      case 4: {
        Op = "alloc";
        Region *R = Pick();
        std::size_t Size = 1 + Rng.nextBelow(std::size_t{96}
                                             << Rng.nextBelow(8));
        switch (Rng.nextBelow(4)) {
        case 0:
          Mgr.allocRaw(R, Size);
          break;
        case 1:
          Mgr.allocRawZeroed(R, Size);
          break;
        case 2:
          rnew<Node>(R);
          Size = sizeof(Node);
          break;
        default:
          rnewArray<Node>(R, Size % 300);
          Size = sizeof(std::size_t) + Size % 300 * sizeof(Node);
          break;
        }
        Live[R] += Size;
        break;
      }
      case 5: {
        Op = "delete";
        Region *R = Pick();
        Live.erase(R);
        ASSERT_TRUE(Mgr.deleteRegionRaw(R));
        break;
      }
      case 6: {
        Op = "reset";
        Region *R = Pick();
        Live[R] = 0;
        ASSERT_TRUE(Mgr.resetRegion(R));
        break;
      }
      case 7:
      case 8: {
        Op = "release";
        Region *R = Pick();
        Live.erase(R);
        ASSERT_TRUE(Pool.release(R));
        break;
      }
      default:
        Op = "trimAll";
        Pool.trimAll();
        break;
      }
      ASSERT_NO_FATAL_FAILURE(Check(Op));
    }
    EXPECT_GT(Mgr.metrics().Pool.Trims, 0u) << "no release ever trimmed";
  }

  Region *Shared = Mgr.newRegion();
  Mgr.allocRaw(Shared, 100);
  Live[Shared] = 100;
  ASSERT_NO_FATAL_FAILURE(Check("alloc"));
  {
    par::ParallelSpace Space;
    par::SharedRegion *S = Space.share(Shared);
    Space.quiesce(Mgr);
    bool Deleted = false;
    std::thread([&] { Deleted = Space.tryDelete(S); }).join();
    ASSERT_TRUE(Deleted);
  }
  Live.erase(Shared);
  ASSERT_NO_FATAL_FAILURE(Check("tryDelete from another thread"));
  while (!Live.empty()) {
    Region *R = Live.begin()->first;
    Live.erase(R);
    ASSERT_TRUE(Mgr.deleteRegionRaw(R));
    ASSERT_NO_FATAL_FAILURE(Check("delete"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
                         [](const ::testing::TestParamInfo<std::uint64_t> &I) {
                           return "seed" + std::to_string(I.param);
                         });

} // namespace
