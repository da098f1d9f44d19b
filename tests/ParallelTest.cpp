//===- tests/ParallelTest.cpp - Parallel region extension tests -----------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Tests the §1 parallel extension: per-thread local reference counts,
// deletion when the sum is zero, and atomic-exchange pointer writes
// keeping the sum exact under contention.
//
//===----------------------------------------------------------------------===//

#include "region/Parallel.h"
#include "region/Regions.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace regions;
using namespace regions::par;

namespace {

struct ParallelTest : ::testing::Test {
  ParallelSpace Space;
};

TEST_F(ParallelTest, RegisterThreadsGetDistinctSlots) {
  unsigned A = Space.registerThread();
  unsigned B = Space.registerThread();
  EXPECT_NE(A, B);
}

TEST_F(ParallelTest, ShareAndDeleteWithZeroCount) {
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  SharedRegion *S = Space.share(Mgr.newRegion());
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
  EXPECT_FALSE(Space.tryDelete(S)) << "second delete is a no-op";
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

TEST_F(ParallelTest, PositiveCountBlocksDeletion) {
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  unsigned Tid = Space.registerThread();
  SharedRegion *S = Space.share(Mgr.newRegion());
  Space.addRef(S, Tid);
  EXPECT_FALSE(Space.tryDelete(S));
  Space.dropRef(S, Tid);
  EXPECT_TRUE(Space.tryDelete(S));
}

TEST_F(ParallelTest, CrossThreadCountsSumToZero) {
  // Thread A creates a reference; thread B destroys it. A's local count
  // is +1, B's is -1 — negative local counts are fine, the sum governs.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  unsigned TidA = Space.registerThread();
  unsigned TidB = Space.registerThread();
  SharedRegion *S = Space.share(Mgr.newRegion());
  Space.addRef(S, TidA);
  EXPECT_EQ(S->totalCount(), 1);
  Space.dropRef(S, TidB);
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
}

TEST_F(ParallelTest, SharedExchangeAdjustsLocalCounts) {
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  unsigned Tid = Space.registerThread();
  SharedRegion *S = Space.share(Mgr.newRegion());
  int *Obj = rnew<int>(S->region(), 42);
  std::atomic<int *> Slot{nullptr};
  // Install: +1 on this thread. The displaced null resolves to no
  // region; the caller names only the region of the value it installs.
  int *Old = Space.sharedExchange(Slot, Obj, S, Tid);
  EXPECT_EQ(Old, nullptr);
  EXPECT_EQ(S->totalCount(), 1);
  // Replace with null: the displaced Obj resolves to S through the
  // page map and share()'s binding — no hint involved.
  Old = Space.sharedExchange<int>(Slot, nullptr, nullptr, Tid);
  EXPECT_EQ(Old, Obj);
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
}

TEST_F(ParallelTest, ResolvingExchangeIgnoresNonRegionValues) {
  // Stack/global/malloc pointers pass through shared slots uncounted:
  // the resolve classifies them as not-in-any-region and drops nothing.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  unsigned Tid = Space.registerThread();
  SharedRegion *S = Space.share(Mgr.newRegion());
  int StackVal = 5;
  std::atomic<int *> Slot{&StackVal};
  int *Obj = rnew<int>(S->region(), 42);
  EXPECT_EQ(Space.sharedExchange(Slot, Obj, S, Tid), &StackVal);
  EXPECT_EQ(S->totalCount(), 1) << "displaced stack pointer: no drop";
  EXPECT_EQ(Space.sharedExchange(Slot, &StackVal, nullptr, Tid), Obj);
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
}

TEST_F(ParallelTest, ResolvingExchangeIgnoresPrivateRegionValues) {
  // A pointer into a region that was never share()d resolves to a null
  // binding: the region is private to its owner, no count to adjust.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  unsigned Tid = Space.registerThread();
  Region *Priv = Mgr.newRegion();
  int *PrivObj = rnew<int>(Priv, 1);
  SharedRegion *S = Space.share(Mgr.newRegion());
  int *Obj = rnew<int>(S->region(), 2);
  std::atomic<int *> Slot{PrivObj};
  EXPECT_EQ(Space.sharedExchange(Slot, Obj, S, Tid), PrivObj);
  EXPECT_EQ(S->totalCount(), 1) << "displaced private-region pointer: no drop";
  Space.sharedExchange<int>(Slot, nullptr, nullptr, Tid);
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
  EXPECT_TRUE(Mgr.deleteRegionRaw(Priv));
}

TEST_F(ParallelTest, ResolvingExchangeCrossRegion) {
  // The bug this API exists for, deterministically: a slot holding a
  // value from region A is overwritten with a value from region B. The
  // drop must land on A — the displaced reference's region — found by
  // resolution, not on anything the caller guessed.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  unsigned Tid = Space.registerThread();
  SharedRegion *SA = Space.share(Mgr.newRegion());
  SharedRegion *SB = Space.share(Mgr.newRegion());
  int *ObjA = rnew<int>(SA->region(), 1);
  int *ObjB = rnew<int>(SB->region(), 2);
  std::atomic<int *> Slot{nullptr};
  Space.sharedExchange(Slot, ObjA, SA, Tid);
  EXPECT_EQ(SA->totalCount(), 1);
  EXPECT_EQ(SB->totalCount(), 0);
  // Cross-region overwrite: +1 on B, and the displaced value resolves
  // to A for the -1.
  EXPECT_EQ(Space.sharedExchange(Slot, ObjB, SB, Tid), ObjA);
  EXPECT_EQ(SA->totalCount(), 0) << "drop must resolve to region A";
  EXPECT_EQ(SB->totalCount(), 1);
  EXPECT_FALSE(Space.tryDelete(SB)) << "B is live in the slot";
  EXPECT_TRUE(Space.tryDelete(SA)) << "A's count must be exactly zero";
  Space.sharedExchange<int>(Slot, nullptr, nullptr, Tid);
  EXPECT_EQ(SB->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(SB));
}

TEST_F(ParallelTest, CrossRegionRacingExchangesKeepSumsExact) {
  // Regression for the pre-resolving API: threads race install/clear
  // on ONE slot with values from TWO shared regions. A caller-supplied
  // "old region" is a pre-exchange guess about a post-exchange fact —
  // under this race the guessed drops systematically land on the wrong
  // region (one sum permanently high: leak; the other prematurely
  // zero: use-after-free at tryDelete). Resolution makes both sums
  // exact regardless of interleaving.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  SharedRegion *SA = Space.share(Mgr.newRegion());
  SharedRegion *SB = Space.share(Mgr.newRegion());
  int *ObjA = rnew<int>(SA->region(), 1);
  int *ObjB = rnew<int>(SB->region(), 2);
  std::atomic<int *> Slot{nullptr};

  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != kThreads; ++T) {
    Threads.emplace_back([&, T] {
      unsigned Tid = Space.registerThread();
      for (int I = 0; I != kIters; ++I) {
        switch ((I + T) % 3) {
        case 0:
          Space.sharedExchange(Slot, ObjA, SA, Tid);
          break;
        case 1:
          Space.sharedExchange(Slot, ObjB, SB, Tid);
          break;
        default:
          Space.sharedExchange<int>(Slot, nullptr, nullptr, Tid);
          break;
        }
      }
    });
  }
  for (auto &T : Threads)
    T.join();

  int *Final = Slot.load();
  EXPECT_EQ(SA->totalCount(), Final == ObjA ? 1 : 0)
      << "A's sum must be exactly its slot occupancy";
  EXPECT_EQ(SB->totalCount(), Final == ObjB ? 1 : 0)
      << "B's sum must be exactly its slot occupancy";
  // tryDelete accept/refuse must follow the slot: the occupied region
  // refuses (its reference is live), the other deletes.
  unsigned Tid = Space.registerThread();
  if (Final) {
    SharedRegion *Live = Final == ObjA ? SA : SB;
    SharedRegion *Dead = Final == ObjA ? SB : SA;
    EXPECT_FALSE(Space.tryDelete(Live)) << "live slot reference";
    EXPECT_TRUE(Space.tryDelete(Dead));
    Space.sharedExchange<int>(Slot, nullptr, nullptr, Tid);
    EXPECT_TRUE(Space.tryDelete(Live));
  } else {
    EXPECT_TRUE(Space.tryDelete(SA));
    EXPECT_TRUE(Space.tryDelete(SB));
  }
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

TEST_F(ParallelTest, QuiesceHandsDeletionToNonOwnerThread) {
  // The ROADMAP cross-thread hand-off: an owner that is permanently
  // done with its manager quiesces it into the space; a non-owner
  // thread's tryDelete may then run the authoritative deletion.
  auto Mgr = std::make_unique<RegionManager>(SafetyConfig::unsafeConfig());
  EXPECT_FALSE(Space.managerQuiesced(*Mgr));
  SharedRegion *S = nullptr;
  std::thread Owner([&] {
    unsigned Tid = Space.registerThread();
    S = Space.share(Mgr->newRegion());
    Space.addRef(S, Tid); // keep it alive past the owner's exit
    Space.quiesce(*Mgr);
  });
  Owner.join();
  EXPECT_TRUE(Space.managerQuiesced(*Mgr));
  // This thread never touched Mgr; the hand-off makes its tryDelete
  // legitimate once the count drains.
  unsigned Tid = Space.registerThread();
  EXPECT_FALSE(Space.tryDelete(S)) << "owner's pin is visible";
  Space.dropRef(S, Tid);
  EXPECT_TRUE(Space.tryDelete(S)) << "non-owner delete after quiesce";
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
  EXPECT_EQ(Mgr->liveRegionCount(), 0u);
}

TEST_F(ParallelTest, ManyThreadsChurnOneSlot) {
  // The paper's claim: atomic exchange keeps counts exact under data
  // races. N threads hammer one shared slot with install/clear pairs;
  // afterwards the sum must equal exactly the surviving reference.
  RegionManager OwnerMgr{SafetyConfig::unsafeConfig()};
  SharedRegion *S = Space.share(OwnerMgr.newRegion());
  int *Obj = rnew<int>(S->region(), 7);
  std::atomic<int *> Slot{nullptr};

  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != kThreads; ++T) {
    Threads.emplace_back([&, T] {
      unsigned Tid = Space.registerThread();
      for (int I = 0; I != kIters; ++I) {
        // Each displaced value's count is dropped by the displacing
        // thread, so the slot's content is counted exactly once.
        int *New = (I + T) % 2 ? Obj : nullptr;
        Space.sharedExchange(Slot, New, New ? S : nullptr, Tid);
      }
    });
  }
  for (auto &T : Threads)
    T.join();

  std::int64_t Expected = Slot.load() ? 1 : 0;
  EXPECT_EQ(S->totalCount(), Expected)
      << "atomic exchange must keep the summed count exact";
  // Clear the slot and delete.
  unsigned Tid = Space.registerThread();
  Space.sharedExchange<int>(Slot, nullptr, nullptr, Tid);
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
}

TEST_F(ParallelTest, ThreadsBuildInPrivateRegionsAndShare) {
  // The paper's usage model: threads allocate in their own regions
  // (no allocator synchronization) and publish references through
  // shared slots.
  constexpr int kThreads = 4;
  std::atomic<int *> Results[kThreads] = {};
  std::vector<SharedRegion *> Shared(kThreads);
  // Per-thread managers, owned beyond the threads' lifetimes so
  // published pointers stay valid until the main thread deletes.
  std::vector<std::unique_ptr<RegionManager>> Managers;
  for (int T = 0; T != kThreads; ++T)
    Managers.push_back(std::make_unique<RegionManager>(
        SafetyConfig::unsafeConfig(), std::size_t{64} << 20));
  {
    std::vector<std::thread> Threads;
    std::atomic<int> Ready{0};
    for (int T = 0; T != kThreads; ++T) {
      Threads.emplace_back([&, T] {
        unsigned Tid = Space.registerThread();
        // Thread-private manager: allocation needs no locks.
        RegionManager &Mgr = *Managers[static_cast<std::size_t>(T)];
        Region *R = Mgr.newRegion();
        SharedRegion *S = Space.share(R);
        Shared[static_cast<std::size_t>(T)] = S;
        int *Val = rnew<int>(R, T * 100);
        Space.sharedExchange(Results[T], Val, S, Tid);
        ++Ready;
        while (Ready.load() != kThreads)
          std::this_thread::yield();
        // Read a neighbour's published value.
        int *Peer = Results[(T + 1) % kThreads].load();
        EXPECT_EQ(*Peer, ((T + 1) % kThreads) * 100);
      });
    }
    for (auto &T : Threads)
      T.join();
  }
  // Main thread unpublishes and deletes everything.
  unsigned Tid = Space.registerThread();
  for (int T = 0; T != kThreads; ++T) {
    EXPECT_FALSE(Space.tryDelete(Shared[T])) << "still referenced";
    // Cross-arena resolve: the displaced value lives in thread T's
    // manager, not in any arena this thread allocated from.
    Space.sharedExchange<int>(Results[T], nullptr, nullptr, Tid);
    EXPECT_TRUE(Space.tryDelete(Shared[T]));
  }
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

TEST_F(ParallelTest, VisiblyNonZeroCountRefusesLockFree) {
  // The optimistic fast path: when the relaxed sum is visibly
  // non-zero, tryDelete must refuse without touching the shard lock.
  // The refusal tallies are bumped only on the lock-free paths, so
  // they are the observable proof.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  unsigned Tid = Space.registerThread();
  SharedRegion *S = Space.share(Mgr.newRegion());
  EXPECT_EQ(Space.lockFreeRefusals(), 0u);
  Space.addRef(S, Tid);
  EXPECT_FALSE(Space.tryDelete(S));
  EXPECT_EQ(Space.lockFreeRefusals(), 1u)
      << "a pinned region's refusal must be served by the relaxed sum";
  EXPECT_FALSE(Space.tryDelete(S));
  EXPECT_EQ(Space.lockFreeRefusals(), 2u);
  Space.dropRef(S, Tid);
  EXPECT_TRUE(Space.tryDelete(S));
  EXPECT_EQ(Space.lockFreeRefusals(), 2u)
      << "a successful delete takes the locked path, not the counter";
}

/// Calls tryDelete on the pinned \p S \p N times; returns how many
/// calls wrongly succeeded.
int refuseRepeatedly(ParallelSpace &Space, SharedRegion *S, int N) {
  int Accepted = 0;
  for (int I = 0; I != N; ++I)
    Accepted += Space.tryDelete(S);
  return Accepted;
}

TEST_F(ParallelTest, RefusalTallyIsExactUnderConcurrentRefusers) {
  // Registered threads bump their own index's tally with a plain load
  // and store; unregistered ones share the atomic fallback. Neither
  // may lose an increment when all of them refuse at once.
  constexpr int kRegistered = 4, kUnregistered = 2, kTries = 10000;
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  SharedRegion *S = Space.share(Mgr.newRegion());
  unsigned Pin = Space.registerThread();
  Space.addRef(S, Pin);
  std::atomic<int> Ready{0};
  std::atomic<int> Accepted{0};
  auto Refuser = [&](bool Register) {
    std::unique_ptr<ThreadSlot> Slot;
    if (Register)
      Slot = std::make_unique<ThreadSlot>(Space);
    Ready.fetch_add(1);
    while (Ready.load() != kRegistered + kUnregistered) {
    }
    Accepted += refuseRepeatedly(Space, S, kTries);
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T != kRegistered + kUnregistered; ++T)
    Threads.emplace_back(Refuser, T < kRegistered);
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Accepted.load(), 0);
  EXPECT_EQ(Space.lockFreeRefusals(),
            std::uint64_t{kTries} * (kRegistered + kUnregistered));
  Space.dropRef(S, Pin);
  EXPECT_TRUE(Space.tryDelete(S));
  Space.unregisterThread(Pin);
}

TEST_F(ParallelTest, ReissuedIndexAddsToEarlierHoldersTally) {
  // A tally belongs to its index: the next holder keeps counting on it,
  // and RegLock orders the old holder's last store before the new
  // holder's first load, so nothing is lost at the hand-over.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  SharedRegion *S = Space.share(Mgr.newRegion());
  unsigned Pin = Space.registerThread();
  Space.addRef(S, Pin);
  unsigned First = 0, Second = 0;
  std::thread([&] {
    ThreadSlot Slot(Space);
    First = Slot;
    EXPECT_EQ(refuseRepeatedly(Space, S, 300), 0);
  }).join();
  EXPECT_EQ(Space.lockFreeRefusals(), 300u);
  std::thread([&] {
    ThreadSlot Slot(Space);
    Second = Slot;
    EXPECT_EQ(refuseRepeatedly(Space, S, 500), 0);
  }).join();
  EXPECT_EQ(Second, First) << "the index is reissued";
  EXPECT_EQ(Space.lockFreeRefusals(), 800u);
  Space.dropRef(S, Pin);
  EXPECT_TRUE(Space.tryDelete(S));
  Space.unregisterThread(Pin);
}

TEST_F(ParallelTest, ThreadRegisteredInTwoSpacesIsCountedInBoth) {
  // A thread tallies under its latest registration only; its refusals
  // in the other space go to that space's fallback. Either way each
  // space counts every one of its own refusals, while another thread
  // holding an index in the first space refuses alongside.
  ParallelSpace Other;
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  SharedRegion *S = Space.share(Mgr.newRegion());
  SharedRegion *T = Other.share(Mgr.newRegion());
  unsigned PinS = Space.registerThread();
  unsigned PinT = Other.registerThread();
  Space.addRef(S, PinS);
  Other.addRef(T, PinT);
  std::thread Both([&] {
    ThreadSlot InSpace(Space);
    {
      ThreadSlot InOther(Other);
      EXPECT_EQ(refuseRepeatedly(Space, S, 7000), 0);
      EXPECT_EQ(refuseRepeatedly(Other, T, 11000), 0);
    }
    EXPECT_EQ(refuseRepeatedly(Space, S, 13000), 0);
  });
  std::thread Neighbour([&] {
    ThreadSlot InSpace(Space);
    EXPECT_EQ(refuseRepeatedly(Space, S, 5000), 0);
  });
  Both.join();
  Neighbour.join();
  EXPECT_EQ(Space.lockFreeRefusals(), 25000u);
  EXPECT_EQ(Other.lockFreeRefusals(), 11000u);
  Space.dropRef(S, PinS);
  Other.dropRef(T, PinT);
  EXPECT_TRUE(Space.tryDelete(S));
  EXPECT_TRUE(Other.tryDelete(T));
  Other.unregisterThread(PinT);
  Space.unregisterThread(PinS);
}

TEST_F(ParallelTest, GenerationMovesByOneAtEachBindAndRetire) {
  // share() and tryDelete's retire step each bump the stamp by exactly
  // one under the shard lock: odd while bound, even once retired, and
  // the region's binding carries the bound value.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  Region *R = Mgr.newRegion();
  unsigned Home = ParallelSpace::shardOf(R);
  SharedRegion *S = Space.share(R);
  std::uint64_t Gen = S->generation();
  EXPECT_EQ(Gen, 1u) << "a fresh record's first binding";
  EXPECT_EQ(R->sharedBindingGen(), Gen);
  ASSERT_TRUE(Space.tryDelete(S));
  EXPECT_EQ(S->generation(), Gen + 1);
  EXPECT_EQ(S->generation() % 2, 0u);
  // Hardened builds never pool records, so there is no rebinding.
  if (detail::kRsanEnabled)
    return;

  std::vector<Region *> Kept;
  Region *Same = nullptr;
  while (!Same) {
    Region *C = Mgr.newRegion();
    if (ParallelSpace::shardOf(C) == Home)
      Same = C;
    else
      Kept.push_back(C);
  }
  SharedRegion *Again = Space.share(Same);
  ASSERT_EQ(Again, S) << "the record must come back from the shard pool";
  EXPECT_EQ(Again->generation(), Gen + 2);
  EXPECT_EQ(Same->sharedBindingGen(), Gen + 2);
  ASSERT_TRUE(Space.tryDelete(Again));
  EXPECT_EQ(Again->generation(), Gen + 3);
  for (Region *C : Kept)
    Mgr.deleteRegionRaw(C);
}

TEST_F(ParallelTest, ManyRegionsAcrossShardsDeleteInAnyOrder) {
  // Spread enough regions that every shard sees traffic, then delete
  // in an order unrelated to creation; re-share afterwards so pooled
  // records get reused with clean state (counts zeroed, generation and
  // Deleting flags reset).
  RegionManager Mgr{SafetyConfig::unsafeConfig(), std::size_t{64} << 20};
  constexpr int kRegions = 64;
  std::vector<SharedRegion *> Shared;
  bool ShardSeen[kNumShards] = {};
  for (int I = 0; I != kRegions; ++I) {
    Region *R = Mgr.newRegion();
    ShardSeen[ParallelSpace::shardOf(R)] = true;
    Shared.push_back(Space.share(R));
  }
  int ShardsHit = 0;
  for (bool Seen : ShardSeen)
    ShardsHit += Seen;
  EXPECT_GT(ShardsHit, 1) << "64 regions must spread past one shard";
  EXPECT_EQ(Space.liveSharedRegions(), static_cast<std::size_t>(kRegions));
  // Delete every third, then the rest back-to-front: exercises the
  // swap-pop index maintenance in each shard's live table.
  for (int I = 0; I < kRegions; I += 3) {
    EXPECT_TRUE(Space.tryDelete(Shared[I])) << "region " << I;
    Shared[I] = nullptr;
  }
  for (int I = kRegions - 1; I >= 0; --I) {
    if (Shared[I]) {
      EXPECT_TRUE(Space.tryDelete(Shared[I])) << "region " << I;
    }
  }
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
  // Reuse pooled records: fresh shares must behave like new ones.
  unsigned Tid = Space.registerThread();
  for (int I = 0; I != kRegions; ++I) {
    SharedRegion *S = Space.share(Mgr.newRegion());
    EXPECT_EQ(S->totalCount(), 0) << "pooled record must come back clean";
    Space.addRef(S, Tid);
    EXPECT_FALSE(Space.tryDelete(S));
    Space.dropRef(S, Tid);
    EXPECT_TRUE(Space.tryDelete(S)) << "pooled Deleting flag must reset";
  }
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

/// One thread takes +1 on \p S and unregisters; the thread its index is
/// reissued to drops it. unregisterThread touches no record, so the
/// balance waits with the index, and only the sum decides deletion.
/// Returns the index.
unsigned handOverOneReference(ParallelSpace &Space, SharedRegion *S) {
  unsigned First = 0;
  std::thread([&] {
    First = Space.registerThread();
    Space.addRef(S, First);
    Space.unregisterThread(First);
  }).join();
  EXPECT_EQ(S->localCount(First), 1) << "the balance stays with the index";
  EXPECT_EQ(S->totalCount(), 1);
  unsigned Second = 0;
  std::thread([&] {
    Second = Space.registerThread();
    Space.dropRef(S, Second);
  }).join();
  EXPECT_EQ(Second, First) << "the index is reissued";
  EXPECT_EQ(S->localCount(Second), 0);
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
  Space.unregisterThread(Second);
  return Second;
}

TEST_F(ParallelTest, UnregisteredBalanceStaysInItsSlot) {
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  EXPECT_EQ(handOverOneReference(Space, Space.share(Mgr.newRegion())), 0u);
}

TEST_F(ParallelTest, UnregisteredBalanceBeyondTheArrayStaysDetached) {
  // The same hand-over for an index issued after the region was shared,
  // past the indices in use when share() cleared its slots. Every record
  // has a slot for every index, so the balance stays in that slot,
  // detached from any live thread, until the index is reissued.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  SharedRegion *S = Space.share(Mgr.newRegion());
  std::vector<unsigned> Held;
  for (unsigned I = 0; I != 8; ++I)
    Held.push_back(Space.registerThread());
  EXPECT_EQ(handOverOneReference(Space, S), 8u) << "issued after share()";
  for (unsigned Tid : Held)
    Space.unregisterThread(Tid);
}

TEST_F(ParallelTest, EveryIndexCountsOnARecordSharedBeforeRegistration) {
  // The record is shared while no index is issued yet; then kMaxThreads
  // threads register, and each takes a reference and drops it. Sums
  // read every issued index, so they are exact at each step, and of the
  // deleters racing after the drops at most one accepts.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  SharedRegion *S = Space.share(Mgr.newRegion());
  Space.quiesce(Mgr); // any worker may run the destructive step
  std::atomic<unsigned> Added{0};
  std::atomic<bool> Drop{false};
  std::atomic<unsigned> Accepted{0};
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I != kMaxThreads; ++I)
    Workers.emplace_back([&] {
      ThreadSlot Tid(Space);
      Space.addRef(S, Tid);
      Added.fetch_add(1, std::memory_order_release);
      while (!Drop.load(std::memory_order_acquire))
        std::this_thread::yield();
      Space.dropRef(S, Tid);
      if (Space.tryDelete(S))
        Accepted.fetch_add(1, std::memory_order_relaxed);
    });
  while (Added.load(std::memory_order_acquire) != kMaxThreads)
    std::this_thread::yield();
  EXPECT_EQ(S->totalCount(), static_cast<std::int64_t>(kMaxThreads));
  for (unsigned I = 0; I != kMaxThreads; ++I)
    EXPECT_EQ(S->localCount(I), 1) << "index " << I;
  EXPECT_FALSE(Space.tryDelete(S));
  Drop.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(S->totalCount(), 0);
  // Racing relaxed sums may all have refused; after the joins the sum
  // is exact, so this attempt accepts exactly when no worker did.
  bool Late = Space.tryDelete(S);
  EXPECT_EQ(Accepted.load() + (Late ? 1u : 0u), 1u)
      << "exactly one tryDelete accepts";
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

#if !RGN_HARDEN_ENABLED
TEST_F(ParallelTest, RetiredRecordsStayInTheirShard) {
  // A retired record is pooled in the shard that allocated it and only
  // that shard's next share() reuses it: its shard index is fixed, so
  // tryDelete can find the lock without reading the record's region.
  // A region hashing to another shard must get a different record.
  // (Hardened builds never pool records at all.)
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  unsigned Tid = Space.registerThread();
  Region *R = Mgr.newRegion();
  unsigned Home = ParallelSpace::shardOf(R);
  SharedRegion *First = Space.share(R);
  ASSERT_TRUE(Space.tryDelete(First));
  // Keep candidate regions live so each one takes a fresh page.
  std::vector<Region *> Kept;
  Region *Other = nullptr, *Same = nullptr;
  while (!Other || !Same) {
    Region *C = Mgr.newRegion();
    Kept.push_back(C);
    if (ParallelSpace::shardOf(C) == Home) {
      if (!Same)
        Same = C;
    } else if (!Other) {
      Other = C;
    }
  }
  SharedRegion *Away = Space.share(Other);
  EXPECT_NE(Away, First) << "a record must not cross shards";
  SharedRegion *Back = Space.share(Same);
  EXPECT_EQ(Back, First) << "a retired record must serve its own shard";
  ASSERT_TRUE(Space.tryDelete(Away));
  ASSERT_TRUE(Space.tryDelete(Back));
  for (Region *C : Kept)
    if (C != Other && C != Same)
      Mgr.deleteRegionRaw(C);
  Space.unregisterThread(Tid);
}

TEST_F(ParallelTest, ReusedRecordStartsWithEverySlotZero) {
  // A record retires when its counts *sum* to zero, not when each slot
  // is zero: here the last occupant ends at +1 on thread 0 and -1 on
  // thread 1. share() clears only non-zero slots on reuse, so it must
  // still find and clear both.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  unsigned Tid0 = Space.registerThread();
  unsigned Tid1 = Space.registerThread();
  ASSERT_EQ(Tid0, 0u);
  ASSERT_EQ(Tid1, 1u);
  Region *R = Mgr.newRegion();
  unsigned Home = ParallelSpace::shardOf(R);
  SharedRegion *First = Space.share(R);
  Space.addRef(First, Tid0);
  Space.dropRef(First, Tid1);
  ASSERT_EQ(First->localCount(Tid0), 1);
  ASSERT_EQ(First->localCount(Tid1), -1);
  ASSERT_TRUE(Space.tryDelete(First));

  std::vector<Region *> Kept;
  Region *Same = nullptr;
  while (!Same) {
    Region *C = Mgr.newRegion();
    if (ParallelSpace::shardOf(C) == Home)
      Same = C;
    else
      Kept.push_back(C);
  }
  SharedRegion *S = Space.share(Same);
  ASSERT_EQ(S, First) << "the record must come back from the shard pool";
  for (unsigned I = 0; I != kMaxThreads; ++I)
    EXPECT_EQ(S->localCount(I), 0) << "slot " << I;
  Space.addRef(S, Tid1);
  EXPECT_EQ(S->totalCount(), 1);
  EXPECT_EQ(S->localCount(Tid1), 1);
  EXPECT_FALSE(Space.tryDelete(S));
  Space.dropRef(S, Tid1);
  EXPECT_TRUE(Space.tryDelete(S));
  for (Region *C : Kept)
    Mgr.deleteRegionRaw(C);
  Space.unregisterThread(Tid1);
  Space.unregisterThread(Tid0);
}
#endif

TEST_F(ParallelTest, DoubleUnregisterDies) {
  // Releasing a slot twice would let two live threads share one index
  // (their adjustments would merge); the debug check must catch it.
  // Asserts stay on in every build type here, so no NDEBUG guard.
  unsigned Tid = Space.registerThread();
  Space.unregisterThread(Tid);
  EXPECT_DEATH(Space.unregisterThread(Tid), "double unregisterThread");
}

TEST_F(ParallelTest, AdjustingWithAnIndexPastTheArrayDies) {
  // Every record holds kMaxThreads slots and no more; an index
  // registerThread cannot have issued must not write past them.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  SharedRegion *S = Space.share(Mgr.newRegion());
  EXPECT_DEATH(Space.addRef(S, kMaxThreads), "not a thread index");
  EXPECT_DEATH(S->localCount(kMaxThreads), "not a thread index");
  EXPECT_TRUE(Space.tryDelete(S));
}

} // namespace
