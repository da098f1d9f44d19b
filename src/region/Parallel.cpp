//===- region/Parallel.cpp - Regions for explicit parallelism -------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "region/Parallel.h"
#include "support/Compiler.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace regions;
using namespace regions::par;

namespace {

/// The space and index of the calling thread's latest registration:
/// whose refusal tally its lock-free tryDelete refusals go to. Cleared
/// by the matching unregisterThread (or that space's destruction on
/// this thread), so a later space at the same address, or the index's
/// next holder, never finds a stale writer here.
thread_local RGN_CONSTINIT const ParallelSpace *GTallySpace = nullptr;
thread_local RGN_CONSTINIT unsigned GTallyTid = 0;

} // namespace

ParallelSpace::~ParallelSpace() {
  if (GTallySpace == this)
    GTallySpace = nullptr;
  for (Shard &Sh : Shards) {
    while (SharedRegion *S = Sh.AllRecords) {
      Sh.AllRecords = S->NextInShard;
      // A live record's region outlives it; drop the binding so no
      // later (buggy) resolve walks into freed record storage. Retired
      // records have no region: tryDelete's deleteRegionRaw nulled R.
      if (S->R)
        S->R->clearSharedBinding();
      delete S;
    }
  }
  QuiescedManager *Q = QuiescedHead.load(std::memory_order_relaxed);
  while (Q) {
    QuiescedManager *Next = Q->Next;
    delete Q;
    Q = Next;
  }
}

SharedRegion *par::resolveSharedStale(const Region *R, const SharedRegion *S,
                                      std::uint64_t Gen) {
  (void)S;
  rstat::traceEvent(rstat::EventKind::ResolveStale, R->id(),
                    static_cast<std::uint32_t>(Gen));
  if constexpr (detail::kRsanEnabled)
    reportFatalError(
        "rsan: stale shared-region resolve: the displaced value's region "
        "binding was torn by a concurrent retire/rebind (a reference was "
        "still in flight when its region's record was retired)");
  // Conservative: treat the value as not-shared and drop no count. That
  // can at worst leave a sum high (a deletion delayed), never adjust a
  // record that no longer serves this region.
  return nullptr;
}

unsigned ParallelSpace::registerThread() {
  // rstat lazy attach: worker threads usually reach the library first
  // through here. No-op (one relaxed load) when tracing is disarmed.
  rstat::attachThread();
  std::lock_guard<std::mutex> Guard(RegLock);
  unsigned Tid;
  if (!FreeTids.empty()) {
    Tid = FreeTids.back();
    FreeTids.pop_back();
  } else {
    Tid = NextThread.load(std::memory_order_relaxed);
    if (Tid == kMaxThreads)
      reportFatalError("ParallelSpace: too many threads registered");
    // Relaxed is enough: this store is sequenced before every
    // adjustment the new holder makes, which is all a sum relies on
    // (SharedRegion::totalCount()).
    NextThread.store(Tid + 1, std::memory_order_relaxed);
  }
  // Taking RegLock ordered the index's previous holder's last tally
  // store before this thread's first load, as for the count slots.
  GTallySpace = this;
  GTallyTid = Tid;
  return Tid;
}

void ParallelSpace::unregisterThread(unsigned Tid) {
  // The slot keeps its balances. Releasing RegLock here and taking it
  // in registerThread orders this thread's last relaxed store to the
  // slot before the next holder's first load; the same goes for the
  // index's refusal tally, which this thread stops writing here.
  if (GTallySpace == this && GTallyTid == Tid)
    GTallySpace = nullptr;
  std::lock_guard<std::mutex> Guard(RegLock);
  assert(Tid < NextThread.load(std::memory_order_relaxed) &&
         "unregistering a slot that was never issued");
  assert(std::find(FreeTids.begin(), FreeTids.end(), Tid) ==
             FreeTids.end() &&
         "double unregisterThread: slot is already free, a reissued "
         "thread would silently share it");
  FreeTids.push_back(Tid);
}

SharedRegion *ParallelSpace::share(Region *R) {
  assert(R && "sharing a null region");
  // Record reuse: the shard FreePool first, then a fresh allocation.
  // A record is born in R's shard and only ever pooled back into it, so
  // its ShardIdx never changes after this allocation.
  unsigned ShardIdx = shardOf(R);
  Shard &Sh = Shards[ShardIdx];
  std::lock_guard<std::mutex> Guard(Sh.Lock);
  SharedRegion *S = Sh.FreePool;
  if (S) {
    Sh.FreePool = S->NextFree;
    S->NextFree = nullptr;
    // A retired record's sum is zero, not each slot (+1 on one thread,
    // -1 on another). Clear only the slots that are not zero already:
    // the rest are lines other threads' tryDelete sums keep cached,
    // and rewriting a zero would invalidate them on every share. Every
    // adjustment of the record's last occupancy happened before its
    // retirement under this lock, so the issued count read here covers
    // each index that made one.
    for (unsigned I = 0, E = NextThread.load(std::memory_order_relaxed);
         I != E; ++I)
      if (S->Local[I].Count.load(std::memory_order_relaxed) != 0)
        S->Local[I].Count.store(0, std::memory_order_relaxed);
    S->Deleting.store(false, std::memory_order_relaxed);
  } else {
    S = new SharedRegion();
    S->Issued = &NextThread;
    S->ShardIdx = ShardIdx;
    S->NextInShard = Sh.AllRecords;
    Sh.AllRecords = S;
  }
  S->R = R;
  S->RegionId = R->id();
  // Publish the Region → record binding resolving exchanges walk. The
  // generation moves odd (bound); a resolver that reads this binding
  // together with this stamp knows the record still serves R. The
  // release stores here and in bindShared order the whole record setup
  // above before the record reads as live or the binding becomes
  // visible. Gen only changes under this shard lock, so a plain load
  // bumps it.
  assert(!R->sharedBinding() && "share: region is already shared");
  std::uint64_t Gen = S->Gen.load(std::memory_order_relaxed) + 1;
  S->Gen.store(Gen, std::memory_order_release);
  assert(Gen % 2 == 1 && "bound records carry odd generations");
  R->bindShared(S, Gen);
  ++Sh.LiveCount;
  rstat::traceEvent(rstat::EventKind::ShareRegion, S->RegionId, ShardIdx);
  return S;
}

bool ParallelSpace::tryDelete(SharedRegion *S) {
  if (S->retired())
    return false;
  // Optimistic refusal: a visibly non-zero relaxed sum means this call
  // could only refuse, so refuse without a lock. Polling threads
  // ("is the request region dead yet?") pay reads only and never
  // convoy behind each other. Spurious non-zero is impossible for the
  // caller's own contribution (its slot holds its own writes);
  // cross-thread counts in flight can at worst turn an
  // accept into a refuse, which the contract allows at any time.
  //
  // A sum that looks zero arbitrates instead. Exactly one concurrent
  // deleter wins the Deleting flag and runs the authoritative locked
  // recheck; losers refuse lock-free instead of stampeding the shard
  // lock. A successful delete keeps the flag set (the record is pooled
  // with it), so stale retries keep failing here or at the retired
  // check above.
  bool Expected = false;
  if (S->totalCount() != 0 ||
      !S->Deleting.compare_exchange_strong(Expected, true,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
    countLockFreeRefusal();
    rstat::traceEvent(rstat::EventKind::TryDeleteRefused, S->RegionId,
                      /*LockFree=*/1);
    return false;
  }
  // The record's shard, not R's: ShardIdx is fixed at allocation,
  // while a racing winner nulls S->R through deleteRegionRaw.
  Shard &Sh = Shards[S->ShardIdx];
  std::lock_guard<std::mutex> Guard(Sh.Lock);
  // Authoritative recheck under the shard lock, same condition the
  // single-mutex design enforced: the summed local counts must agree,
  // and the owning manager has the last word (counted references from
  // its own heap, live stack locals). A refusal leaves the record live
  // so a later attempt can succeed.
  if (S->totalCount() != 0) {
    S->Deleting.store(false, std::memory_order_release);
    rstat::traceEvent(rstat::EventKind::TryDeleteRefused, S->RegionId,
                      /*LockFree=*/0);
    return false;
  }
  // The sum is authoritatively zero: no displaced-but-undropped
  // reference exists (it would carry a +1 somewhere), so no resolver
  // can legitimately be mid-walk through R's binding. Retire the
  // binding *before* the destructive step — deleteRegionRaw recycles
  // R's pages, and the binding must never be readable from recycled
  // memory — and restore it on a manager veto, under this same shard
  // lock, so the region's shared identity survives a refusal.
  Region *R = S->R;
  RegionManager &Mgr = R->manager();
  std::uint64_t BindGen = R->sharedBindingGen();
  R->clearSharedBinding();
  bool Destroyed;
  if (QuiescedManager *Q = findQuiesced(&Mgr)) {
    // Cross-thread hand-off: the owner declared the manager
    // permanently quiescent, so any thread may run the destructive
    // step — but managers are not thread-safe, so concurrent deleters
    // of this manager's regions (possibly on other shards) serialize
    // on its hand-off lock.
    std::lock_guard<std::mutex> Handoff(Q->Lock);
    Destroyed = Mgr.deleteRegionRaw(S->R);
    if (Destroyed)
      rstat::traceEvent(rstat::EventKind::TryDeleteHandoff, S->RegionId,
                        static_cast<std::uint32_t>(&Sh - Shards));
  } else {
    Destroyed = Mgr.deleteRegionRaw(S->R);
  }
  if (!Destroyed) {
    R->bindShared(S, BindGen);
    S->Deleting.store(false, std::memory_order_release);
    rstat::traceEvent(rstat::EventKind::TryDeleteRefused, S->RegionId,
                      /*LockFree=*/0);
    return false;
  }
  // Retire the record: the generation moves even, so stale tryDelete
  // calls stop at the retired check, and any (record, generation) pair
  // a racing resolver tore off a stale region binding fails its check
  // instead of naming this record. Still under the shard lock, so a
  // plain load bumps it; the release pairs with retired()'s acquire.
  S->Gen.store(S->Gen.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  // Pool the record. Under RGN_HARDEN it is never reused (it stays on
  // the shard's chain until the space dies): a stale handle then always
  // finds it retired (see rsanCheckLive) rather than the record's next
  // occupant.
  --Sh.LiveCount;
  if constexpr (!detail::kRsanEnabled) {
    S->NextFree = Sh.FreePool;
    Sh.FreePool = S;
  }
  rstat::traceEvent(rstat::EventKind::TryDeleteOk, S->RegionId,
                    static_cast<std::uint32_t>(&Sh - Shards));
  return true;
}

void ParallelSpace::countLockFreeRefusal() {
  if (RGN_LIKELY(GTallySpace == this)) {
    // This thread holds index GTallyTid here and is its tally's only
    // writer, so no increment can fall between the load and the store.
    std::atomic<std::uint64_t> &N = Refusals[GTallyTid].N;
    N.store(N.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  } else {
    FallbackRefusals.N.fetch_add(1, std::memory_order_relaxed);
  }
}

void ParallelSpace::quiesce(RegionManager &Mgr) {
  auto *Entry = new QuiescedManager;
  Entry->Mgr = &Mgr;
  std::lock_guard<std::mutex> Guard(QuiesceLock);
  QuiescedManager *Head = QuiescedHead.load(std::memory_order_relaxed);
  for (QuiescedManager *Q = Head; Q; Q = Q->Next)
    assert(Q->Mgr != &Mgr && "quiesce: manager already quiesced");
  (void)Head;
  Entry->Next = Head;
  // Release so a deleter whose lock-free head probe sees the entry
  // also sees its fields (list traversal does not retake the lock's
  // ordering on the probe-only path).
  QuiescedHead.store(Entry, std::memory_order_release);
  // Releasing QuiesceLock publishes everything the owner did with Mgr
  // to any deleter that later finds the entry under the same lock.
  rstat::traceEvent(rstat::EventKind::ManagerQuiesced,
                    Mgr.liveRegionCount());
}

bool ParallelSpace::managerQuiesced(const RegionManager &Mgr) const {
  return findQuiesced(&Mgr) != nullptr;
}

ParallelSpace::QuiescedManager *
ParallelSpace::findQuiesced(const RegionManager *Mgr) const {
  // Fast path: a space where nothing ever quiesced pays one relaxed
  // load here, not a mutex round-trip per successful tryDelete. A
  // deleter entitled to find Mgr's entry synchronized with the owner's
  // quiesce() by other means (thread join, message), so its probe
  // cannot miss the entry.
  if (!QuiescedHead.load(std::memory_order_acquire))
    return nullptr;
  std::lock_guard<std::mutex> Guard(QuiesceLock);
  for (QuiescedManager *Q = QuiescedHead.load(std::memory_order_relaxed);
       Q; Q = Q->Next)
    if (Q->Mgr == Mgr)
      return Q;
  return nullptr;
}
