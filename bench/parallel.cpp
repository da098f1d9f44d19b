//===- bench/parallel.cpp - Parallel extension microbenchmarks ------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Measures the §1 parallel extension: the atomic-exchange shared-slot
// write with per-thread local counts (the paper's claim that only
// region creation and deletion need global synchronization), thread
// slot register/unregister churn, and the synchronized create/delete
// path itself. Each benchmark reports items_per_second so ns/op can be
// read directly (e.g. `./build/bench/parallel --benchmark_format=json`);
// quote numbers from a Release build only.
//
//===----------------------------------------------------------------------===//

#include "region/Parallel.h"
#include "region/Regions.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>

using namespace regions;
using namespace regions::par;

namespace {

constexpr int kBatch = 1024;
constexpr int kMaxBenchThreads = 8;

/// Shared state for the multi-threaded benchmarks. Thread 0 populates
/// the manager-owned parts before the iteration barrier (the standard
/// benchmark idiom); the other threads only touch them inside the
/// timed loop.
struct ExchangeState {
  ParallelSpace Space;
  std::unique_ptr<RegionManager> Mgr;
  SharedRegion *S = nullptr;
  int *Obj[kMaxBenchThreads] = {};
  struct alignas(64) PaddedSlot {
    std::atomic<int *> Ptr{nullptr};
  };
  PaddedSlot Slots[kMaxBenchThreads];
  std::atomic<int *> ContendedSlot{nullptr};
} GState;

void setUpShared(benchmark::State &State) {
  GState.Mgr =
      std::make_unique<RegionManager>(SafetyConfig::unsafeConfig());
  GState.S = GState.Space.share(GState.Mgr->newRegion());
  for (int T = 0; T != kMaxBenchThreads; ++T) {
    GState.Obj[T] = rnew<int>(GState.S->region(), T);
    GState.Slots[T].Ptr.store(nullptr, std::memory_order_relaxed);
  }
  GState.ContendedSlot.store(nullptr, std::memory_order_relaxed);
  (void)State;
}

void tearDownShared(benchmark::State &State) {
  // Clear every slot (dropping whatever reference it still holds) from
  // this thread — only the summed count matters — then delete. The
  // resolving exchange classifies each displaced value itself.
  ThreadSlot Tid(GState.Space);
  for (auto &Slot : GState.Slots)
    GState.Space.sharedExchange<int>(Slot.Ptr, nullptr, nullptr, Tid);
  GState.Space.sharedExchange<int>(GState.ContendedSlot, nullptr, nullptr,
                                   Tid);
  if (!GState.Space.tryDelete(GState.S))
    State.SkipWithError("shared region still referenced at teardown");
  GState.S = nullptr;
  GState.Mgr.reset();
}

/// The paper's shared-slot write on an uncontended (per-thread) slot:
/// one atomic exchange plus two uncounted local-count bumps — the
/// parallel fast path, no locks and no cross-thread communication. The
/// displaced value's region is found after the exchange (page-map
/// probe plus the Region → SharedRegion binding walk and its generation
/// check), the only form that stays correct under cross-region races.
void BM_SharedExchangeResolved(benchmark::State &State) {
  if (State.thread_index() == 0)
    setUpShared(State);
  ThreadSlot Tid(GState.Space);
  for (auto _ : State) {
    SharedRegion *S = GState.S;
    int *Obj = GState.Obj[State.thread_index()];
    auto &Slot = GState.Slots[State.thread_index()].Ptr;
    for (int I = 0; I != kBatch; ++I) {
      int *New = (I & 1) ? Obj : nullptr;
      GState.Space.sharedExchange(Slot, New, New ? S : nullptr, Tid);
    }
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
  if (State.thread_index() == 0)
    tearDownShared(State);
}
BENCHMARK(BM_SharedExchangeResolved)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8);

/// Every thread hammers the same slot: the exchange itself serializes
/// on the cache line, but the count adjustments stay thread-local, so
/// the slowdown measures the hardware, not the bookkeeping.
void BM_SharedExchangeContended(benchmark::State &State) {
  if (State.thread_index() == 0)
    setUpShared(State);
  ThreadSlot Tid(GState.Space);
  for (auto _ : State) {
    SharedRegion *S = GState.S;
    int *Obj = GState.Obj[State.thread_index()];
    for (int I = 0; I != kBatch; ++I) {
      int *New = (I & 1) ? Obj : nullptr;
      GState.Space.sharedExchange(GState.ContendedSlot, New,
                                  New ? S : nullptr, Tid);
    }
  }
  State.SetItemsProcessed(State.iterations() * kBatch);
  if (State.thread_index() == 0)
    tearDownShared(State);
}
BENCHMARK(BM_SharedExchangeContended)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8);

/// Thread slot churn: registerThread/unregisterThread pairs, which
/// take the space's registration lock and touch no shared record.
/// Worker-pool workloads pay this on every thread lifecycle.
void BM_ThreadRegistration(benchmark::State &State) {
  constexpr int kRegBatch = 64;
  if (State.thread_index() == 0)
    setUpShared(State);
  for (auto _ : State) {
    for (int I = 0; I != kRegBatch; ++I) {
      ThreadSlot Slot(GState.Space);
      benchmark::DoNotOptimize(Slot.tid());
    }
  }
  State.SetItemsProcessed(State.iterations() * kRegBatch);
  if (State.thread_index() == 0)
    tearDownShared(State);
}
BENCHMARK(BM_ThreadRegistration)->Threads(1)->Threads(2)->Threads(4);

/// Pins GState.S alive for the tryDelete benchmarks: registers a slot,
/// takes a reference, and releases the slot. The balance stays in that
/// slot (its index's next holder adds to it), so every tryDelete sees a
/// sum of one and refuses lock-free.
void pinShared(benchmark::State &State) {
  setUpShared(State);
  ThreadSlot Tid(GState.Space);
  GState.Space.addRef(GState.S, Tid);
}

void unpinShared(benchmark::State &State) {
  {
    ThreadSlot Tid(GState.Space);
    GState.Space.dropRef(GState.S, Tid);
  }
  tearDownShared(State);
}

void refuseBatch(benchmark::State &State) {
  constexpr int kTryBatch = 64;
  for (auto _ : State) {
    SharedRegion *S = GState.S;
    for (int I = 0; I != kTryBatch; ++I)
      benchmark::DoNotOptimize(GState.Space.tryDelete(S));
  }
  State.SetItemsProcessed(State.iterations() * kTryBatch);
}

/// Failed deletion attempts under contention, from threads that hold no
/// thread slot: each refusal sums every local count (the pin keeps the
/// sum at one) and ticks the space's shared fallback refusal tally.
/// This is the cost of *checking* the paper's deletion condition.
void BM_TryDeleteContended(benchmark::State &State) {
  if (State.thread_index() == 0)
    pinShared(State);
  refuseBatch(State);
  if (State.thread_index() == 0)
    unpinShared(State);
}
BENCHMARK(BM_TryDeleteContended)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

/// The same refusals from threads that each hold a ThreadSlot, as the
/// pipeline's producer and consumer do: each refusal ticks only the
/// caller's own per-index tally, so the rows should scale with threads.
void BM_TryDeleteRefusedRegistered(benchmark::State &State) {
  if (State.thread_index() == 0)
    pinShared(State);
  {
    ThreadSlot Tid(GState.Space);
    refuseBatch(State);
  }
  if (State.thread_index() == 0)
    unpinShared(State);
}
BENCHMARK(BM_TryDeleteRefusedRegistered)->Threads(1)->Threads(2)->Threads(4);

/// Creates a region, publishes it as shared through \p Space and
/// deletes it again, once per iteration.
void shareDeleteCycles(benchmark::State &State, ParallelSpace &Space) {
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  for (auto _ : State) {
    SharedRegion *S = Space.share(Mgr.newRegion());
    rnew<int>(S->region(), 1);
    bool Deleted = Space.tryDelete(S);
    benchmark::DoNotOptimize(Deleted);
  }
  State.SetItemsProcessed(State.iterations());
}

/// The synchronized slow path the paper confines to region lifetime:
/// create a region, publish it as shared, delete it again. The thread
/// holds no ThreadSlot, so this is the fallback path: share() and the
/// accepting tryDelete each take the region's shard lock.
void BM_ShareDeleteCycle(benchmark::State &State) {
  ParallelSpace Space;
  shareDeleteCycles(State, Space);
}
BENCHMARK(BM_ShareDeleteCycle);

/// The same cycle from a registered thread, as the pipeline's producer
/// runs it: share() reuses the record the last tryDelete pooled on the
/// thread's own index, and the accepting tryDelete's one locked
/// instruction is the Deleting CAS. No shard lock on either side.
void BM_ShareDeleteCycleRegistered(benchmark::State &State) {
  ParallelSpace Space;
  ThreadSlot Tid(Space);
  shareDeleteCycles(State, Space);
}
BENCHMARK(BM_ShareDeleteCycleRegistered);

/// The sharded claim: distinct regions created by distinct threads
/// synchronize on distinct locks, so the create/delete slow path
/// itself scales. Each thread cycles regions from its own manager
/// through one shared space — under the old single space mutex this
/// serialized completely.
void BM_ShareDeleteCycleDistinct(benchmark::State &State) {
  shareDeleteCycles(State, GState.Space);
}
BENCHMARK(BM_ShareDeleteCycleDistinct)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8);

/// The distinct-region churn from registered threads: each thread
/// reuses its own index's records, so the rows take no lock at all.
void BM_ShareDeleteCycleDistinctRegistered(benchmark::State &State) {
  ThreadSlot Tid(GState.Space);
  shareDeleteCycles(State, GState.Space);
}
BENCHMARK(BM_ShareDeleteCycleDistinctRegistered)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8);

/// Bounded SPSC ring for the pipeline benchmark: one producer, one
/// consumer, release/acquire head/tail. Runs end drained, so the
/// monotonically wrapping indices never need resetting between
/// benchmark repetitions.
struct alignas(64) SpscRing {
  static constexpr unsigned kCap = 64;
  struct Entry {
    SharedRegion *S;
    int *Payload;
  };
  Entry Buf[kCap];
  alignas(64) std::atomic<unsigned> Head{0}; ///< consumer cursor
  alignas(64) std::atomic<unsigned> Tail{0}; ///< producer cursor

  bool tryPush(Entry E) {
    unsigned T = Tail.load(std::memory_order_relaxed);
    if (T - Head.load(std::memory_order_acquire) == kCap)
      return false;
    Buf[T % kCap] = E;
    Tail.store(T + 1, std::memory_order_release);
    return true;
  }
  bool tryPop(Entry &E) {
    unsigned H = Head.load(std::memory_order_relaxed);
    if (Tail.load(std::memory_order_acquire) == H)
      return false;
    E = Buf[H % kCap];
    Head.store(H + 1, std::memory_order_release);
    return true;
  }
};

struct PipeState {
  SpscRing Msg[kMaxBenchThreads / 2]; ///< producer -> consumer
  SpscRing Ret[kMaxBenchThreads / 2]; ///< consumer -> producer
} GPipe;

/// Message-passing pipeline, the paper's intended cross-thread shape:
/// producers allocate request regions from private managers, share
/// them, pin them with a local count, and pass pointers through a
/// ring; consumers read the payload, poll tryDelete (which must
/// refuse lock-free — the producer's pin is visible in the relaxed
/// sum), and hand the region back; the producer, whose manager owns
/// the region, drops its pin and deletes. Even thread indices
/// produce, odd ones consume; regions are deleted only by the thread
/// whose manager created them, so manager quiescence holds by
/// construction.
void BM_Pipeline(benchmark::State &State) {
  constexpr int kPipeBatch = 64;
  const int Pair = State.thread_index() / 2;
  const bool Producer = (State.thread_index() % 2) == 0;
  SpscRing &Msg = GPipe.Msg[Pair];
  SpscRing &Ret = GPipe.Ret[Pair];
  ThreadSlot Tid(GState.Space);

  if (Producer) {
    RegionManager Mgr{SafetyConfig::unsafeConfig()};
    int Outstanding = 0;
    auto DrainReturns = [&] {
      SpscRing::Entry E;
      while (Ret.tryPop(E)) {
        GState.Space.dropRef(E.S, Tid); // release the pin: sum hits 0
        if (!GState.Space.tryDelete(E.S))
          std::abort(); // returned region must delete first try
        --Outstanding;
      }
    };
    for (auto _ : State) {
      for (int I = 0; I != kPipeBatch; ++I) {
        SharedRegion *S = GState.Space.share(Mgr.newRegion());
        int *Req = rnew<int>(S->region(), I);
        GState.Space.addRef(S, Tid); // pin before publishing
        while (!Msg.tryPush({S, Req})) {
          DrainReturns(); // never park on a full ring holding returns
          std::this_thread::yield();
        }
        ++Outstanding;
        DrainReturns();
      }
    }
    while (Outstanding != 0) {
      DrainReturns();
      std::this_thread::yield();
    }
  } else {
    for (auto _ : State) {
      for (int I = 0; I != kPipeBatch; ++I) {
        SpscRing::Entry E;
        while (!Msg.tryPop(E))
          std::this_thread::yield();
        GState.Space.addRef(E.S, Tid); // claim while reading
        benchmark::DoNotOptimize(*E.Payload);
        // Polling deletion from the non-owner side: the pins make
        // this a guaranteed lock-free refusal, never a free.
        if (GState.Space.tryDelete(E.S))
          std::abort();
        GState.Space.dropRef(E.S, Tid);
        while (!Ret.tryPush(E))
          std::this_thread::yield();
      }
    }
  }
  State.SetItemsProcessed(State.iterations() * kPipeBatch);
}
BENCHMARK(BM_Pipeline)->Threads(2)->Threads(4)->Threads(8);

} // namespace

BENCHMARK_MAIN();
