//===- tests/ThreadStressTest.cpp - TSan-clean multithreaded stress -------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Multithreaded stress aimed at the thread-safety story: concurrent
// barrier stores inside per-thread managers and from short-lived
// threads into one manager, thread churn through a ParallelSpace
// (register/addRef/dropRef/unregister racing with tryDelete), and
// armed tracing under the same churn. Run under TSan these tests must
// be clean; in any build the counts must come out exact after joins.
//
//===----------------------------------------------------------------------===//

#include "region/Metrics.h"
#include "region/Parallel.h"
#include "region/Pool.h"
#include "region/Regions.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace regions;

namespace {

struct Node {
  explicit Node(int V) : Value(V) {}
  int Value;
  RegionPtr<Node> Next;
};

//===----------------------------------------------------------------------===//
// Per-thread managers and short-lived storing threads
//===----------------------------------------------------------------------===//

TEST(ThreadStressTest, PerThreadManagersChurnIndependently) {
  // Each thread runs its own manager — the design's intended mode.
  // The only shared state is the arena span and its page map, which
  // the barrier's region lookups read while kThreads managers claim,
  // write and free their own slots at once.
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (int T = 0; T != kThreads; ++T)
    Threads.emplace_back([&Failures] {
      RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};
      rt::Frame F;
      for (int I = 0; I != kRounds; ++I) {
        rt::RegionHandle A = Mgr.newRegion();
        rt::RegionHandle B = Mgr.newRegion();
        Node *NA = rnew<Node>(A, I);
        NA->Next = rnew<Node>(B, I + 1); // cross-region: +1 on B
        if (deleteRegion(B)) // must refuse: A still points in
          Failures.fetch_add(1, std::memory_order_relaxed);
        NA->Next = nullptr; // -1 on B
        if (!deleteRegion(B) || !deleteRegion(A))
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
}

TEST(ThreadStressTest, ExitFlushesRaceWithMainThreadInspection) {
  // Worker threads concurrently adjust counts and exit at once. Each
  // thread targets its own region (exact counting of one region's RC
  // across threads is ParallelSpace's job, below), so the threads
  // share no count. After the joins every delta must have landed
  // exactly once.
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};
  rt::Frame F;
  rt::RegionHandle Home = Mgr.newRegion();
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  rt::RegionHandle Targets[kThreads];
  Node *Slots[kThreads];
  Node *InTarget[kThreads];
  for (int T = 0; T != kThreads; ++T) {
    Targets[T] = Mgr.newRegion();
    Slots[T] = rnew<Node>(Home, T);
    InTarget[T] = rnew<Node>(Targets[T], T);
  }

  for (int W = 0; W != kRounds; ++W) {
    std::vector<std::thread> Wave;
    for (int T = 0; T != kThreads; ++T)
      Wave.emplace_back([&, W, T] {
        if (W & 1) {
          Slots[T]->Next = nullptr; // -1, right before exit
        } else {
          Slots[T]->Next = InTarget[T]; // +1, right before exit
        }
      });
    for (std::thread &T : Wave)
      T.join();
    long long Expected = (W & 1) ? 0 : 1;
    for (int T = 0; T != kThreads; ++T)
      EXPECT_EQ(Targets[T]->referenceCount(), Expected)
          << "round " << W << " target " << T
          << ": every joined thread's delta must have landed";
  }
  for (int T = 0; T != kThreads; ++T) {
    Slots[T]->Next = nullptr;
    EXPECT_TRUE(deleteRegion(Targets[T]));
  }
  EXPECT_TRUE(deleteRegion(Home));
}

//===----------------------------------------------------------------------===//
// ParallelSpace: thread churn against shared regions
//===----------------------------------------------------------------------===//

TEST(ThreadStressTest, SharedRegionChurnKeepsSumExact) {
  // kThreads threads churn refs on one shared region while repeatedly
  // registering and unregistering (slot recycling under contention).
  // After all joins the sum of local counts must be exactly zero and
  // deletion must succeed first try.
  par::ParallelSpace Space;
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  par::SharedRegion *S = Space.share(Mgr.newRegion());

  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  std::vector<std::thread> Threads;
  for (int T = 0; T != kThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != kRounds; ++I) {
        par::ThreadSlot Slot(Space); // register/unregister churn
        Space.addRef(S, Slot);
        Space.addRef(S, Slot);
        Space.dropRef(S, Slot);
        Space.dropRef(S, Slot);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

TEST(ThreadStressTest, SharedExchangeRacesStayBalanced) {
  // The paper's shared-slot write under real contention: every thread
  // exchanges the same atomic slot between nullptr and an object in
  // the shared region. Whatever interleaving happens, the adjustments
  // pair off; after a final owned store of nullptr the sum is zero.
  par::ParallelSpace Space;
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  Region *R = Mgr.newRegion();
  int *Obj = rnewArray<int>(R, 4);
  par::SharedRegion *S = Space.share(R);

  std::atomic<int *> Slot{nullptr};
  constexpr int kThreads = 8;
  constexpr int kRounds = 500;
  std::vector<std::thread> Threads;
  for (int T = 0; T != kThreads; ++T)
    Threads.emplace_back([&] {
      par::ThreadSlot Tid(Space);
      for (int I = 0; I != kRounds; ++I) {
        // Install: new value is in S, displaced value (if any) too.
        Space.sharedExchange(Slot, Obj, S, Tid);
        // Clear: new value is non-region null, displaced may be in S.
        Space.sharedExchange<int>(Slot, nullptr, nullptr, Tid);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  // Drop whatever the raced exchanges left installed; the displaced
  // value (if any) resolves to S without being named.
  Space.sharedExchange<int>(Slot, nullptr, nullptr,
                            Space.registerThread());
  EXPECT_EQ(S->totalCount(), 0)
      << "every displaced reference must pair with exactly one drop";
  EXPECT_TRUE(Space.tryDelete(S));
}

//===----------------------------------------------------------------------===//
// Sharded create/delete synchronization
//===----------------------------------------------------------------------===//

TEST(ThreadStressTest, ShardedDistinctRegionChurn) {
  // The tentpole workload: every thread cycles its *own* regions
  // (create → share → publish → unpublish → tryDelete) through one
  // shared space. Distinct regions hash to (mostly) distinct shards,
  // so nothing here should serialize; TSan must see no races and
  // every cycle's delete must succeed first try — each thread only
  // deletes regions its own manager owns, so the manager-quiescence
  // contract holds per thread.
  par::ParallelSpace Space;
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != kThreads; ++T)
    Threads.emplace_back([&] {
      RegionManager Mgr{SafetyConfig::unsafeConfig(), std::size_t{64} << 20};
      par::ThreadSlot Tid(Space);
      std::atomic<int *> Slot{nullptr};
      for (int I = 0; I != kRounds; ++I) {
        par::SharedRegion *S = Space.share(Mgr.newRegion());
        int *Obj = rnew<int>(S->region(), I);
        Space.sharedExchange(Slot, Obj, S, Tid);
        if (Space.tryDelete(S)) { // published: must refuse
          Failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Space.sharedExchange<int>(Slot, nullptr, nullptr, Tid);
        if (!Space.tryDelete(S)) // unpublished: must accept
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
  EXPECT_GT(Space.lockFreeRefusals(), 0u)
      << "published-region refusals must be served lock-free";
}

TEST(ThreadStressTest, ConcurrentTryDeleteRacesDeletingFlag) {
  // Many threads hammer tryDelete on the *same* pinned region: every
  // call must refuse (the pin is visible in the relaxed sum), nothing
  // may free, and the refusals must not take the shard lock. Then the
  // pin is dropped and the same threads race one tryDelete each
  // against the Deleting flag: exactly one may win.
  par::ParallelSpace Space;
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  par::SharedRegion *S = Space.share(Mgr.newRegion());
  unsigned Pin = Space.registerThread();
  Space.addRef(S, Pin);

  constexpr int kThreads = 8;
  constexpr int kAttempts = 500;
  {
    std::vector<std::thread> Threads;
    for (int T = 0; T != kThreads; ++T)
      Threads.emplace_back([&] {
        for (int I = 0; I != kAttempts; ++I)
          if (Space.tryDelete(S))
            ADD_FAILURE() << "pinned region must never delete";
      });
    for (std::thread &T : Threads)
      T.join();
  }
  EXPECT_EQ(Space.liveSharedRegions(), 1u);
  EXPECT_GE(Space.lockFreeRefusals(),
            static_cast<std::uint64_t>(kThreads) * kAttempts)
      << "every pinned-region refusal is lock-free";

  // Unpin; the happens-before edge for the counts is the threads'
  // construction below. Racing deleters arbitrate through the
  // Deleting CAS: one winner, losers refuse without stampeding.
  Space.dropRef(S, Pin);
  std::atomic<int> Wins{0};
  {
    std::vector<std::thread> Threads;
    for (int T = 0; T != kThreads; ++T)
      Threads.emplace_back([&] {
        if (Space.tryDelete(S))
          Wins.fetch_add(1, std::memory_order_relaxed);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  EXPECT_EQ(Wins.load(), 1) << "exactly one racing deleter may win";
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
  Space.unregisterThread(Pin);
}

TEST(ThreadStressTest, ThreadSlotChurnAcrossShardsKeepsSumsExact) {
  // Register/unregister churn racing against ref traffic on regions
  // spread over many shards. A reissued index inherits its slot's
  // balances, so after the joins every region's sum must be exactly
  // zero: no hand-over may lose or double-count a balance, whichever
  // shard the region landed on.
  par::ParallelSpace Space;
  RegionManager Mgr{SafetyConfig::unsafeConfig(), std::size_t{64} << 20};
  constexpr int kRegions = 16;
  par::SharedRegion *Shared[kRegions];
  for (int R = 0; R != kRegions; ++R)
    Shared[R] = Space.share(Mgr.newRegion());

  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  std::vector<std::thread> Threads;
  for (int T = 0; T != kThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != kRounds; ++I) {
        par::ThreadSlot Slot(Space); // the next holder inherits the slot
        par::SharedRegion *S = Shared[(T + I) % kRegions];
        Space.addRef(S, Slot);
        Space.addRef(S, Slot);
        Space.dropRef(S, Slot);
        Space.dropRef(S, Slot);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int R = 0; R != kRegions; ++R) {
    EXPECT_EQ(Shared[R]->totalCount(), 0) << "region " << R;
    EXPECT_TRUE(Space.tryDelete(Shared[R])) << "region " << R;
  }
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

//===----------------------------------------------------------------------===//
// Resolving exchanges and the deletion hand-off
//===----------------------------------------------------------------------===//

TEST(ThreadStressTest, CrossRegionExchangeRacesResolveExact) {
  // TSan stress variant of the cross-region regression: threads race
  // install/clear on ONE slot with values from TWO shared regions
  // while a poller hammers tryDelete on both. Each drop must land on
  // the region the displaced value actually points into — resolved
  // after the exchange — so after the joins both sums are exactly the
  // slot occupancy plus the pins. A caller-guessed "old region" cannot
  // get this right under any schedule.
  par::ParallelSpace Space;
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  par::SharedRegion *SA = Space.share(Mgr.newRegion());
  par::SharedRegion *SB = Space.share(Mgr.newRegion());
  int *ObjA = rnew<int>(SA->region(), 1);
  int *ObjB = rnew<int>(SB->region(), 2);
  // Pins: keep both sums visibly positive so the poller's every answer
  // is a lock-free refusal and nothing can free mid-race.
  unsigned Pin = Space.registerThread();
  Space.addRef(SA, Pin);
  Space.addRef(SB, Pin);

  std::atomic<int *> Slot{nullptr};
  std::atomic<bool> Stop{false};
  constexpr int kThreads = 6;
  constexpr int kRounds = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != kThreads; ++T)
    Threads.emplace_back([&, T] {
      par::ThreadSlot Tid(Space);
      for (int I = 0; I != kRounds; ++I) {
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
  std::thread Poller([&] {
    while (!Stop.load(std::memory_order_acquire))
      if (Space.tryDelete(SA) || Space.tryDelete(SB))
        ADD_FAILURE() << "pinned regions must never delete mid-race";
  });
  for (std::thread &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_release);
  Poller.join();

  int *Final = Slot.load();
  EXPECT_EQ(SA->totalCount(), Final == ObjA ? 2 : 1)
      << "A's sum must be its pin plus its slot occupancy";
  EXPECT_EQ(SB->totalCount(), Final == ObjB ? 2 : 1)
      << "B's sum must be its pin plus its slot occupancy";
  Space.sharedExchange<int>(Slot, nullptr, nullptr, Pin);
  Space.dropRef(SA, Pin);
  Space.dropRef(SB, Pin);
  EXPECT_TRUE(Space.tryDelete(SA));
  EXPECT_TRUE(Space.tryDelete(SB));
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

TEST(ThreadStressTest, QuiescedManagersRetiredByRacingWorkers) {
  // The cross-thread deletion hand-off under stress: owner threads
  // create, share, and pin regions, quiesce their managers into the
  // space, and exit for good. Worker threads then unpin (one drop per
  // region, partitioned by an atomic ticket) and race tryDelete over
  // every region: exactly one deleter may win each, and the
  // destructive step for one manager's regions — scattered over
  // different shards — must serialize through that manager's hand-off
  // lock. Run under TSan this proves non-owner deletion is race-free.
  par::ParallelSpace Space;
  constexpr int kOwners = 4;
  constexpr int kRegionsPer = 16;
  constexpr int kTotal = kOwners * kRegionsPer;
  std::unique_ptr<RegionManager> Managers[kOwners];
  par::SharedRegion *Shared[kTotal];
  {
    std::vector<std::thread> Owners;
    for (int O = 0; O != kOwners; ++O)
      Owners.emplace_back([&, O] {
        Managers[O] = std::make_unique<RegionManager>(
            SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
        unsigned Tid = Space.registerThread();
        for (int R = 0; R != kRegionsPer; ++R) {
          par::SharedRegion *S = Space.share(Managers[O]->newRegion());
          Space.addRef(S, Tid); // pinned until a worker unpins it
          Shared[O * kRegionsPer + R] = S;
        }
        Space.quiesce(*Managers[O]);
        Space.unregisterThread(Tid); // pins stay in the owner's slot
      });
    for (std::thread &T : Owners)
      T.join();
  }
  for (int O = 0; O != kOwners; ++O)
    EXPECT_TRUE(Space.managerQuiesced(*Managers[O]));
  EXPECT_EQ(Space.liveSharedRegions(), static_cast<std::size_t>(kTotal));

  constexpr int kWorkers = 8;
  std::atomic<int> Wins{0};
  {
    // Wave 1: each pin dropped exactly once, workers partition by
    // ticket. Counts go negative on the dropping worker's slot; only
    // the sums matter.
    std::atomic<int> Ticket{0};
    std::vector<std::thread> Workers;
    for (int W = 0; W != kWorkers; ++W)
      Workers.emplace_back([&] {
        par::ThreadSlot Tid(Space);
        for (int I; (I = Ticket.fetch_add(1, std::memory_order_relaxed)) <
                    kTotal;)
          Space.dropRef(Shared[I], Tid);
      });
    for (std::thread &T : Workers)
      T.join();
  }
  {
    // Wave 2: every worker races one tryDelete per region. None of
    // these threads ever touched the owning managers; quiesce() makes
    // their deletions legitimate and the hand-off lock serializes them.
    std::vector<std::thread> Workers;
    for (int W = 0; W != kWorkers; ++W)
      Workers.emplace_back([&] {
        par::ThreadSlot Tid(Space);
        for (int I = 0; I != kTotal; ++I)
          if (Space.tryDelete(Shared[I]))
            Wins.fetch_add(1, std::memory_order_relaxed);
      });
    for (std::thread &T : Workers)
      T.join();
  }
  EXPECT_EQ(Wins.load(), kTotal) << "exactly one winner per region";
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
  for (int O = 0; O != kOwners; ++O)
    EXPECT_EQ(Managers[O]->liveRegionCount(), 0u)
        << "every quiesced manager fully drained by non-owners";
}

TEST(ThreadStressTest, QuiescedZeroCountRecordsRacingDeleters) {
  // Every deleter of a zero-count record of a quiesced manager passes
  // the lock-free sum check at once, so all of them race the winner's
  // destructive step, which nulls the record's region pointer through
  // deleteRegionRaw. The losers must reach their shard (and their
  // refusal) without reading that pointer. A per-region start gate
  // lines the deleters up on the same record.
  par::ParallelSpace Space;
  constexpr int kOwners = 2;
  constexpr int kRegionsPer = 64;
  constexpr int kTotal = kOwners * kRegionsPer;
  std::unique_ptr<RegionManager> Managers[kOwners];
  par::SharedRegion *Shared[kTotal];
  {
    std::vector<std::thread> Owners;
    for (int O = 0; O != kOwners; ++O)
      Owners.emplace_back([&, O] {
        Managers[O] = std::make_unique<RegionManager>(
            SafetyConfig::unsafeConfig(), std::size_t{64} << 20);
        for (int R = 0; R != kRegionsPer; ++R)
          Shared[O * kRegionsPer + R] = Space.share(Managers[O]->newRegion());
        Space.quiesce(*Managers[O]);
      });
    for (std::thread &T : Owners)
      T.join();
  }

  constexpr int kWorkers = 4;
  std::atomic<int> Arrived{0};
  std::atomic<int> Wins[kTotal] = {};
  {
    std::vector<std::thread> Workers;
    for (int W = 0; W != kWorkers; ++W)
      Workers.emplace_back([&] {
        par::ThreadSlot Tid(Space);
        for (int I = 0; I != kTotal; ++I) {
          Arrived.fetch_add(1);
          // Spin, not yield: a yielding waiter wakes after the
          // first deleter has already won, and the race never opens.
          // Yield only if the gate stays shut for long (oversubscribed
          // runners).
          for (unsigned Spins = 0; Arrived.load() < (I + 1) * kWorkers;)
            if (++Spins % (1u << 16) == 0)
              std::this_thread::yield();
          if (Space.tryDelete(Shared[I]))
            Wins[I].fetch_add(1, std::memory_order_relaxed);
        }
      });
    for (std::thread &T : Workers)
      T.join();
  }
  for (int I = 0; I != kTotal; ++I)
    EXPECT_EQ(Wins[I].load(), 1) << "exactly one winner for region " << I;
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
  for (int O = 0; O != kOwners; ++O)
    EXPECT_EQ(Managers[O]->liveRegionCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Armed tracing under churn
//===----------------------------------------------------------------------===//

TEST(ThreadStressTest, ConcurrentPoolChurnStaysExact) {
  // rpool's intended deployment: one RegionPool per worker thread over
  // that worker's own manager, churning region-per-request cycles
  // while tracing is armed (the pool's trace events ride the same TLS
  // ring machinery as everything else). TSan must see no races between
  // the workers, the trace registry, or the pool counters; after the
  // joins every per-manager count must be exact.
  rstat::armTracing(1 << 10);
  constexpr int kThreads = 6;
  constexpr int kRequests = 300;
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (int T = 0; T != kThreads; ++T)
    Threads.emplace_back([&Failures] {
      RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};
      RegionPool Pool{Mgr};
      for (int I = 0; I != kRequests; ++I) {
        Region *R = Pool.acquire();
        Mgr.allocRaw(R, 64);
        Mgr.allocRaw(R, 2048);
        if (I % 8 == 0)
          Mgr.allocRaw(R, 3 * kPageSize); // large run: retained too
        if (!Pool.release(R))
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
      PoolStats P = Mgr.metrics().Pool;
      // Cold miss on the first acquire, hits ever after; every release
      // parked (the default budget dwarfs this footprint).
      if (P.Misses != 1 || P.Hits != std::uint64_t{kRequests} - 1 ||
          P.Releases != std::uint64_t{kRequests})
        Failures.fetch_add(1, std::memory_order_relaxed);
      if (Mgr.stats().ResetRegions != std::uint64_t{kRequests})
        Failures.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(rstat::tracedEventCount(), 0u);
  rstat::disarmTracing();
}

TEST(ThreadStressTest, ArmedTracingSurvivesThreadChurn) {
  // Threads attach (via manager construction), record region events,
  // and exit while other threads are still recording and the main
  // thread concurrently polls counters and disarms mid-flight. TSan
  // must see no races; the rings must retain the exited threads'
  // events for export.
  rstat::armTracing(1 << 10);
  constexpr int kThreads = 6;
  std::vector<std::thread> Threads;
  for (int T = 0; T != kThreads; ++T)
    Threads.emplace_back([] {
      RegionManager Mgr{SafetyConfig::safeConfig()};
      for (int I = 0; I != 50; ++I) {
        Region *R = Mgr.newRegion();
        Mgr.allocRaw(R, 64);
        Mgr.deleteRegionRaw(R);
      }
    });
  // Poll from the controlling thread while workers run.
  std::size_t Seen = 0;
  for (int I = 0; I != 100; ++I)
    Seen = rstat::tracedEventCount();
  for (std::thread &T : Threads)
    T.join();
  Seen = rstat::tracedEventCount();
  EXPECT_GT(Seen, 0u) << "exited workers' rings survive in the registry";
  rstat::disarmTracing();
  EXPECT_EQ(rstat::tracedEventCount(), Seen)
      << "disarm stops recording but loses nothing";
}

} // namespace
