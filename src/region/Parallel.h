//===- region/Parallel.h - Regions for explicit parallelism ----*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's parallel extension (§1): "region-based memory management
/// can be used nearly unchanged in an explicitly-parallel programming
/// language. The only operations that require synchronization amongst
/// all processes are region creation and deletion. Each process keeps a
/// local reference count for each region which counts the references
/// created or deleted by that process. A region can be deleted if the
/// sum of all its local reference counts is zero. Writes of references
/// to regions must be done with an atomic exchange ... however the
/// local reference counts can be adjusted without synchronization or
/// communication."
///
/// Model: each thread owns a RegionManager (allocation never races);
/// regions shared between threads are registered with a ParallelSpace,
/// which keeps one cache-line-padded local count per thread. Shared
/// pointer slots are std::atomic; sharedExchange() performs the atomic
/// exchange and adjusts only the calling thread's local counts — a
/// thread's count may go negative (it dropped references another
/// thread created); only the sum matters.
///
/// The synchronization the paper confines to creation and deletion is
/// *sharded*: every SharedRegion hashes (by the creating region's
/// address) onto one of kNumShards cache-line-padded shards, each with
/// its own lock, live-record count, and pooled-record free list.
/// share()/tryDelete() on regions in distinct shards never touch the
/// same lock or lines, so a server workload cycling one region per
/// request scales with threads instead of convoying on one mutex.
/// Only thread-slot issuance (registerThread/unregisterThread) remains
/// a small global critical section; the number of indices it has issued
/// is published through an atomic, so sums and share() read only the
/// issued prefix of each record's count array without taking it.
///
/// tryDelete() is optimistic: it takes a lock-free relaxed sum first,
/// and refuses without any lock when the sum is visibly non-zero —
/// polling "is it dead yet" costs reads plus one plain store to the
/// caller's own refusal tally, no locked instruction. Concurrent
/// deleters of the same region are arbitrated by a per-record Deleting
/// CAS flag, so losers refuse lock-free instead of stampeding the shard
/// lock; only a zero-looking sum takes the shard lock for the
/// authoritative recheck, where the owning manager still has the last
/// word. The accept/refuse semantics are unchanged: refusing is always
/// conservative-safe, and a zero sum is rechecked under the lock before
/// anything is freed.
///
/// Every SharedRegion holds one count slot per possible thread index
/// (kMaxThreads, inline), so every index has its own slot in every
/// record, whenever it was issued. A slot belongs to its index, not to
/// one thread: unregisterThread() leaves the exiting thread's balances
/// where they are, and the index's next holder adds to them. Deletion
/// reads only sums, so nothing has to move. SharedRegion records are
/// pooled per shard: tryDelete returns the record to its shard's free
/// list and the shard's next share() reuses it.
///
/// The shared-slot write is *self-resolving*: the paper requires the
/// atomic exchange precisely so the process knows which reference was
/// overwritten, and under cross-region races only the exchange's
/// return value knows — any region the caller guessed *before* the
/// exchange can be wrong the moment another thread stores a pointer
/// into a different region through the same slot. sharedExchange()
/// therefore maps the displaced pointer back to its record after the
/// exchange: page map first (regionOf names the region), then the
/// Region → SharedRegion binding share() published (names the record),
/// generation-checked so a record retired and rebound mid-resolve is
/// never mistaken for the old occupant.
///
/// Deletion normally ends on the owning thread — managers are not
/// thread-safe, so the authoritative recheck's deleteRegionRaw must
/// not race the owner. quiesce(manager) relaxes that: an owner that is
/// permanently done with its manager registers it with the space, and
/// from then on tryDelete may retire that manager's regions from any
/// thread, serializing deleters through a per-manager hand-off lock.
///
//===----------------------------------------------------------------------===//

#ifndef REGION_PARALLEL_H
#define REGION_PARALLEL_H

#include "region/PageMap.h"
#include "region/Region.h"
#include "support/Compiler.h"
#include "support/Harden.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <vector>

namespace regions {
namespace par {

/// Cap on simultaneously registered threads (slot indices in flight);
/// unregisterThread() recycles indices, so total thread count over a
/// space's lifetime is unbounded.
inline constexpr unsigned kMaxThreads = 32;

/// Shard count for create/delete synchronization. Power of two; eight
/// shards already out-number the arenas most workloads run (one per
/// thread manager), so distinct regions land on distinct locks with
/// high probability while the per-space footprint stays at eight
/// cache-line-padded entries.
inline constexpr unsigned kNumShards = 8;

/// A region shared between threads, with per-thread local counts.
class SharedRegion {
public:
  Region *region() const { return R; }

  /// Sum of all local counts: the region's true external reference
  /// count. Relaxed reads — exact once the counting threads' writes
  /// happen-before the call (after a join, or through the message
  /// channel that handed this record over); a mid-flight racy sum is
  /// a mere snapshot, which is why tryDelete's lock-free use of it
  /// can only *refuse*, never free.
  ///
  /// Only the indices the space has issued are read. That loses no
  /// adjustment the sum must see: a thread's registration (the store
  /// that raised the issued count past its index, or for a reissued
  /// index the RegLock hand-over that follows it) happens-before each
  /// of its adjustments, so whenever an adjustment happens-before this
  /// call, so does a store of an issued count above its index, and
  /// even a relaxed load of the count returns that value or a later
  /// (larger) one. An index never issued has never been adjusted.
  std::int64_t totalCount() const {
    std::int64_t Sum = 0;
    for (unsigned I = 0, E = Issued->load(std::memory_order_relaxed); I != E;
         ++I)
      Sum += Local[I].Count.load(std::memory_order_relaxed);
    return Sum;
  }

  /// Slot \p Tid's count — the adjustments of every thread that has
  /// held that index, not only its current holder (diagnostics and
  /// tests; the sum above is what deletion reads).
  std::int64_t localCount(unsigned Tid) const {
    assert(Tid < kMaxThreads && "not a thread index");
    return Local[Tid].Count.load(std::memory_order_relaxed);
  }

  /// Occupancy stamp: odd while the record serves a region, even while
  /// retired/pooled. share() bumps it when (re)binding the record to a
  /// region and copies the new value into the region's binding;
  /// tryDelete bumps it again at retirement. A resolver that read a
  /// region's (record, generation) pair compares against this — equal
  /// means the record still serves that region, unequal means the pair
  /// was torn by a concurrent retire/rebind and must not be used.
  std::uint64_t generation() const {
    return Gen.load(std::memory_order_relaxed);
  }

private:
  friend class ParallelSpace;

  struct alignas(64) PaddedCount {
    // One writer per slot: the thread holding index Tid (see adjust());
    // RegLock hands the slot from one holder to the next. share()
    // clears it while no thread adjusts it; other threads only read
    // it, under the deletion protocol.
    std::atomic<std::int64_t> Count{0};
  };

  SharedRegion() = default;

  /// One slot per possible index: 2 KiB of malloc'd memory per record
  /// (kMaxThreads lines), outside the region arena.
  PaddedCount Local[kMaxThreads];
  Region *R = nullptr;
  /// The owning space's issued-index count (ParallelSpace::NextThread):
  /// how much of Local sums and share() read. Set once at allocation.
  const std::atomic<unsigned> *Issued = nullptr;
  unsigned RegionId = 0;  ///< cached R->id(): traceable after R dies
  /// The shard that allocated this record and pools it. Set once, under
  /// that shard's lock, before the record is first published; records
  /// never change shard, so tryDelete finds its lock without reading R.
  unsigned ShardIdx = 0;
  SharedRegion *NextFree = nullptr; ///< free-list link while pooled
  /// Chains every record one shard ever allocated, for the destructor.
  SharedRegion *NextInShard = nullptr;
  /// Deletion arbitration: the CAS winner owns the authoritative
  /// locked recheck; losers refuse lock-free instead of queueing on
  /// the shard lock. Left set by a successful delete (the record is
  /// pooled with it) and cleared on refusal or reuse.
  std::atomic<bool> Deleting{false};
  /// Occupancy stamp; see generation(). Even means retired (or never
  /// bound), so stale tryDelete calls check it first (acquire) and
  /// return cheaply. Written only under the shard lock (share(),
  /// tryDelete's retire step), so a plain load and a release store bump
  /// it; resolvers read it lock-free, hence the atomic.
  std::atomic<std::uint64_t> Gen{0};

  bool retired() const {
    return Gen.load(std::memory_order_acquire) % 2 == 0;
  }
};

/// Out-of-line cold tail of resolveSharedRegion(): the (record,
/// generation) pair read through \p R's binding was torn by a
/// concurrent retire/rebind. Traces a resolve-stale event and treats
/// the pointer as not-shared (drops no count — conservative: can delay
/// a deletion, never corrupts another region's sum). Under RGN_HARDEN
/// a torn pair is impossible in a correct program (the displaced
/// reference itself keeps the sum non-zero, which blocks retirement),
/// so it is diagnosed fatally instead.
SharedRegion *resolveSharedStale(const Region *R, const SharedRegion *S,
                                 std::uint64_t Gen);

/// Maps a pointer displaced from a shared slot to the SharedRegion
/// record holding its counts, or nullptr when the pointer is not in a
/// currently-shared region (null, stack/global/malloc memory, a
/// private region, or a region this space never saw). Page-map first:
/// regionOf() names the region, the region's binding — published by
/// share(), retired by tryDelete() — names the record, and the
/// generation stamp proves the record still serves *this* region
/// rather than having been pooled and rebound between the two loads.
///
/// Liveness: while the displaced reference is still undropped, the sum
/// of the region's local counts is at least one (whoever installed the
/// reference added it), so tryDelete refuses and both the Region
/// metadata and the binding stay readable for the resolve window. This
/// is the same argument that makes the counting protocol sound; a
/// program that reaches a resolve with a reference the counts never
/// saw was already broken before the resolve. The page-map entry the
/// probe reads belongs to that region's manager's slot, which no other
/// manager's birth or death writes (region/PageMap.h).
inline SharedRegion *resolveSharedRegion(const void *Ptr) {
  Region *R = regionOf(Ptr);
  if (!R)
    return nullptr;
  SharedRegion *S = R->sharedBinding();
  if (!S)
    return nullptr;
  std::uint64_t Gen = R->sharedBindingGen();
  if (RGN_UNLIKELY(S->generation() != Gen))
    return resolveSharedStale(R, S, Gen);
  return S;
}

/// Coordinates shared regions between threads (the paper's global
/// synchronization point for creation and deletion, sharded so
/// distinct regions never contend).
class ParallelSpace {
public:
  ParallelSpace() = default;
  ParallelSpace(const ParallelSpace &) = delete;
  ParallelSpace &operator=(const ParallelSpace &) = delete;
  ~ParallelSpace();

  /// Assigns the calling context a thread slot [0, kMaxThreads),
  /// reusing indices released by unregisterThread. Registration is the
  /// one remaining global critical section (slot issuance must be
  /// unique across shards); it is short and off every per-region path.
  /// The calling thread also becomes the writer of that index's refusal
  /// tally (its latest registration, in whichever space, is the one it
  /// tallies under), so register and release an index on the thread
  /// that uses it, as ThreadSlot does.
  unsigned registerThread();

  /// Releases thread slot \p Tid for reuse by a later registerThread.
  /// Touches no shared record: the thread's balances stay in slot
  /// \p Tid, where the index's next holder adds to them, so every sum
  /// is unchanged. RegLock orders this thread's last adjustment before
  /// the next holder's first. The thread must make no further
  /// adjustments under this index; releasing an index twice is a
  /// debug-checked error (it would let two live threads share one
  /// slot). Prefer the ThreadSlot RAII wrapper.
  void unregisterThread(unsigned Tid);

  /// Wraps a region created by the calling thread's manager as shared.
  /// Creation synchronizes on the region's shard lock only (paper's
  /// requirement, narrowed). The creating handle is not counted: like
  /// deleteregion's *x, the creator transfers its reference into the
  /// space. Publishes the Region → record binding (with a fresh
  /// generation stamp) that resolveSharedRegion() walks, so from the
  /// moment share() returns, resolving exchanges classify pointers
  /// into \p R without the caller's help. The returned record is owned
  /// by the space and may be pooled for reuse after a successful
  /// tryDelete (under RGN_HARDEN it is instead retired for good, so
  /// stale handles stay detectable) — holding a SharedRegion* past
  /// that point is a use-after-free in spirit even though the storage
  /// stays valid.
  SharedRegion *share(Region *R);

  /// Adjusts the calling thread's local count for \p S — no
  /// synchronization, no communication (paper's fast path).
  void addRef(SharedRegion *S, unsigned Tid) { adjust(S, Tid, 1); }
  void dropRef(SharedRegion *S, unsigned Tid) { adjust(S, Tid, -1); }

  /// The paper's shared-slot write, resolving form: atomically
  /// exchanges \p Slot to \p NewVal and adjusts only the calling
  /// thread's local counts — an addRef on \p NewShared (the record of
  /// the region \p NewVal points into; null installs an uncounted /
  /// non-region value), and a dropRef on whichever record the
  /// *displaced* value resolves to through the page map and the
  /// share()-published binding (resolveSharedRegion()). The caller
  /// names the region of the value it installs — it owns that value,
  /// no race can change where it points — but never the region of the
  /// value it displaces: under cross-region races only the exchange's
  /// return value knows that, which is exactly why the paper demands
  /// the write be an atomic exchange. Returns the previous value.
  template <class T>
  T *sharedExchange(std::atomic<T *> &Slot, T *NewVal,
                    SharedRegion *NewShared, unsigned Tid) {
    if (NewShared)
      addRef(NewShared, Tid);
    T *Old = Slot.exchange(NewVal, std::memory_order_acq_rel);
    if (SharedRegion *OldShared = resolveSharedRegion(Old))
      dropRef(OldShared, Tid);
    return Old;
  }

  /// Attempts to delete the shared region with the optimistic
  /// protocol — a lock-free relaxed sum that refuses immediately when
  /// visibly non-zero, a Deleting CAS that turns concurrent
  /// same-region deleters away lock-free, and only then the shard lock
  /// for the authoritative recheck, where the owning manager agrees no
  /// other counted or stack reference survives before the region is
  /// destroyed. On failure nothing changes and a later attempt may succeed. The
  /// caller must guarantee the owning manager is quiescent: either the
  /// calling thread owns it, or it was handed off via quiesce() — in
  /// which case the destructive step runs under that manager's
  /// hand-off lock so concurrent non-owner deleters never race inside
  /// the (thread-unsafe) manager.
  bool tryDelete(SharedRegion *S);

  /// Declares \p Mgr permanently quiescent: the owning thread promises
  /// to make no further use of it — no allocation, no region creation,
  /// no direct deletion — for the rest of the space's lifetime. Must
  /// be called by the owning thread (it is the promise). From then on
  /// any thread's tryDelete may retire \p Mgr's shared regions: the
  /// ROADMAP cross-thread deletion hand-off. The manager must outlive
  /// the space or its last shared region, whichever dies first.
  void quiesce(RegionManager &Mgr);

  /// Whether \p Mgr has been quiesced into this space (diagnostics).
  bool managerQuiesced(const RegionManager &Mgr) const;

  /// Number of shared regions not yet deleted (diagnostics). Takes each
  /// shard's lock in turn, so it is exact whenever the space is
  /// quiescent and a snapshot otherwise.
  std::size_t liveSharedRegions() const {
    std::size_t N = 0;
    for (const Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Guard(Sh.Lock);
      N += Sh.LiveCount;
    }
    return N;
  }

  /// tryDelete refusals that never touched a shard lock (the visibly
  /// non-zero sum and lost-CAS paths). Diagnostics/tests: proves the
  /// polling path stays lock-free. The sum of one tally per thread
  /// index plus the fallback tally of callers that hold no index here;
  /// relaxed reads, so exact once the refusing threads' work
  /// happens-before the call (join, or a message), like totalCount().
  std::uint64_t lockFreeRefusals() const {
    std::uint64_t N = FallbackRefusals.N.load(std::memory_order_relaxed);
    for (const RefusalTally &T : Refusals)
      N += T.N.load(std::memory_order_relaxed);
    return N;
  }

  /// Which shard \p R's SharedRegion record lives in (diagnostics).
  static unsigned shardOf(const Region *R) {
    // Regions sit in their own first page, so the page number is the
    // identity; a Fibonacci multiply spreads consecutive pages (one
    // manager's back-to-back regions) across shards.
    auto Page =
        reinterpret_cast<std::uintptr_t>(R) >> kPageShift;
    return static_cast<unsigned>((Page * 0x9E3779B97F4A7C15ull) >> 32) &
           (kNumShards - 1);
  }

private:
  /// One synchronization domain: lock, live count and pooled records,
  /// all written under the lock. Padded so neighbouring shards' locks
  /// never false-share; with no lock-free counter in it, a shard fits
  /// one line wherever the mutex leaves room.
  struct alignas(64) Shard {
    mutable std::mutex Lock;
    SharedRegion *FreePool = nullptr;   ///< deleted records for reuse
    SharedRegion *AllRecords = nullptr; ///< every record, via NextInShard
    std::size_t LiveCount = 0;          ///< records serving a region
  };
  static_assert(sizeof(std::mutex) + 3 * sizeof(void *) > 64 ||
                    sizeof(Shard) == 64,
                "a shard must fit one cache line");

  /// A lock-free refusal counter on its own line. Refusals[Tid] has one
  /// writer, the thread holding index Tid, so it is bumped with a
  /// relaxed load and store (see countLockFreeRefusal()); like a count
  /// slot it belongs to the index, and RegLock hands it from one holder
  /// to the next.
  struct alignas(64) RefusalTally {
    std::atomic<std::uint64_t> N{0};
  };

  /// One permanently-quiesced manager (see quiesce()). Non-owner
  /// deleters serialize the destructive deleteRegionRaw through Lock.
  /// Entries are appended under QuiesceLock and never removed — the
  /// list is searched by pointer identity only, so a dead manager's
  /// entry is inert — and freed with the space.
  struct QuiescedManager {
    RegionManager *Mgr;
    QuiescedManager *Next;
    std::mutex Lock;
  };

  /// The hand-off entry for \p Mgr, or null when it never quiesced.
  /// Spaces that never quiesce answer from a lock-free head probe;
  /// otherwise takes QuiesceLock. The returned entry is stable for
  /// the space's lifetime. Called on tryDelete's destruction path.
  QuiescedManager *findQuiesced(const RegionManager *Mgr) const;

  /// RGN_HARDEN: fatal when a count adjustment reaches a record whose
  /// region was already deleted — a stale handle that, with pooling,
  /// would silently adjust the record's next occupant (pooling is
  /// disabled under harden precisely so this stays detectable).
  static void rsanCheckLive(const SharedRegion *S) {
    if constexpr (detail::kRsanEnabled) {
      if (S->retired())
        reportFatalError(
            "rsan: count adjustment on a retired SharedRegion record "
            "(stale shared-region handle)");
    }
  }

  /// Adds \p Delta to thread \p Tid's count for \p S. The slot has one
  /// writer, thread \p Tid, so a relaxed load and store suffice: no
  /// other thread's write can fall between them, and readers see
  /// either value.
  static void adjust(SharedRegion *S, unsigned Tid, std::int64_t Delta) {
    rsanCheckLive(S);
    assert(Tid < kMaxThreads && "not a thread index");
    std::atomic<std::int64_t> &C = S->Local[Tid].Count;
    C.store(C.load(std::memory_order_relaxed) + Delta,
            std::memory_order_relaxed);
  }

  /// Counts one lock-free tryDelete refusal: on the calling thread's
  /// own tally when it registered here, else on the shared fallback.
  void countLockFreeRefusal();

  Shard Shards[kNumShards];
  RefusalTally Refusals[kMaxThreads];
  /// Refusals by threads holding no index in this space (or whose
  /// latest registration was in another space): many writers, so it
  /// keeps the atomic add.
  RefusalTally FallbackRefusals;

  // Quiesced-manager registry (cross-thread deletion hand-off). The
  // head is atomic so tryDelete can skip the lock entirely in spaces
  // where nothing ever quiesced; mutations still serialize on
  // QuiesceLock.
  mutable std::mutex QuiesceLock;
  std::atomic<QuiescedManager *> QuiescedHead{nullptr};

  // Thread-slot issuance: the one global critical section left.
  std::mutex RegLock;
  std::vector<unsigned> FreeTids; ///< recycled thread slots
  /// Indices issued so far (never falls: freed indices are reissued
  /// from FreeTids). Written under RegLock; read relaxed by sums and
  /// share() on any shard through SharedRegion::Issued (see
  /// SharedRegion::totalCount() for why that read sees every index an
  /// exact sum needs).
  std::atomic<unsigned> NextThread{0};
};

/// RAII thread registration: registers on construction, releases the
/// slot on destruction.
class ThreadSlot {
public:
  explicit ThreadSlot(ParallelSpace &S) : Space(S), Id(S.registerThread()) {}
  ThreadSlot(const ThreadSlot &) = delete;
  ThreadSlot &operator=(const ThreadSlot &) = delete;
  ~ThreadSlot() { Space.unregisterThread(Id); }

  unsigned tid() const { return Id; }
  operator unsigned() const { return Id; }

private:
  ParallelSpace &Space;
  unsigned Id;
};

} // namespace par
} // namespace regions

#endif // REGION_PARALLEL_H
