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
/// narrowed to what still needs it. A thread registered with the space
/// creates and retires shared regions without a lock: tryDelete puts a
/// retired SharedRegion record on a free list owned by the retiring
/// thread's index, and that index's next share() pops it with plain
/// loads and stores. The list has one writer, the thread holding the
/// index, and RegLock hands it from one holder to the next, exactly as
/// it hands over the index's count slots and refusal tally. The rest is
/// *sharded*: every record is allocated in, and owned until the space
/// dies by, one of kNumShards cache-line-padded shards (chosen by the
/// creating region's address), and a shard's lock is taken only to
/// allocate a record or to pool and unpool through the shard's free
/// list, for a caller that holds no index here or whose own list is
/// empty (share) or full (tryDelete). Only thread-slot issuance
/// (registerThread/unregisterThread) is a global critical section; the
/// number of indices it has issued is published through an atomic, so
/// sums and share() read only the issued prefix of each record's count
/// array without taking it.
///
/// tryDelete() is optimistic: it takes a lock-free relaxed sum first,
/// and refuses without any lock when the sum is visibly non-zero —
/// polling "is it dead yet" costs reads plus one plain store to the
/// caller's own refusal tally, no locked instruction. A zero-looking
/// sum arbitrates through a per-record Deleting CAS, kept off the line
/// that sums and resolvers read: losers refuse lock-free, and the
/// winner is the record's only writer until it clears the flag or
/// pools the record, so it rechecks the sum and retires the record
/// with no shard lock, after the owning manager (which has the last
/// word) agrees. The accept/refuse semantics are unchanged: refusing is
/// always conservative-safe, and a zero sum is rechecked after the CAS
/// before anything is freed.
///
/// Every SharedRegion holds one count slot per possible thread index
/// (kMaxThreads, inline), so every index has its own slot in every
/// record, whenever it was issued. A slot belongs to its index, not to
/// one thread: unregisterThread() leaves the exiting thread's balances
/// where they are, and the index's next holder adds to them. Deletion
/// reads only sums, so nothing has to move. A pooled record's next
/// share() may serve a region of any shard; under RGN_HARDEN records
/// are never pooled, so a stale handle stays detectable.
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

/// Retired records one thread index keeps for its own next share()
/// calls. A thread that retires more than it shares (a consumer
/// deleting what a producer shares) pools the excess by shard, where
/// the sharing threads' locked path finds it, so the records a space
/// allocates stay bounded by its peak live count plus this many per
/// index. 64 covers the bench/e2e pipeline's 64 messages in flight.
inline constexpr unsigned kIndexPoolRecords = 64;

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
  // The readers' line: Issued and Gen are what every sum, resolver and
  // stale-tryDelete check loads, so nothing written per deletion
  // attempt lives here.
  Region *R = nullptr;
  /// The owning space's issued-index count (ParallelSpace::NextThread):
  /// how much of Local sums and share() read. Set once at allocation.
  const std::atomic<unsigned> *Issued = nullptr;
  unsigned RegionId = 0;  ///< cached R->id(): traceable after R dies
  /// The shard that allocated this record and owns it (AllRecords).
  /// Set once, under that shard's lock, before the record is first
  /// published. A caller with no index of its own pools the record back
  /// into this shard, so tryDelete finds the lock without reading R.
  unsigned ShardIdx = 0;
  SharedRegion *NextFree = nullptr; ///< free-list link while pooled
  /// Chains every record one shard ever allocated, for the destructor
  /// and liveSharedRegions().
  SharedRegion *NextInShard = nullptr;
  /// Occupancy stamp; see generation(). Even means retired (or never
  /// bound), so stale tryDelete calls check it first (acquire) and
  /// return cheaply. One writer at a time: share() while it binds a
  /// record that only it holds (popped from a free list or freshly
  /// allocated), and tryDelete's retire step, which runs only after
  /// winning Deleting. So a plain load and a release store bump it;
  /// resolvers read it lock-free, hence the atomic.
  std::atomic<std::uint64_t> Gen{0};
  /// Deletion arbitration, on a line of its own: the CAS winner is the
  /// record's only writer and runs the authoritative recheck and the
  /// retire step; losers refuse lock-free. Apart from Gen and Issued,
  /// so the CAS takes no line another core keeps reading. Left set by
  /// a successful delete (the record is pooled with it) and cleared on
  /// refusal or reuse.
  alignas(64) std::atomic<bool> Deleting{false};

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
  /// tally and record free list (its latest registration, in whichever
  /// space, is the one it tallies and pools under), so register and
  /// release an index on the thread that uses it, as ThreadSlot does.
  unsigned registerThread();

  /// Releases thread slot \p Tid for reuse by a later registerThread.
  /// Touches no shared record: the thread's balances stay in slot
  /// \p Tid, where the index's next holder adds to them, so every sum
  /// is unchanged, and the index's pooled records wait for that holder
  /// too. RegLock orders this thread's last adjustment (and list or
  /// tally store) before the next holder's first. The thread must make
  /// no further adjustments under this index; releasing an index twice
  /// is a debug-checked error (it would let two live threads share one
  /// slot). Prefer the ThreadSlot RAII wrapper.
  void unregisterThread(unsigned Tid);

  /// Wraps a region created by the calling thread's manager as shared.
  /// A registered caller reuses a record from its own index's free list
  /// with no lock; otherwise creation synchronizes on the region's shard
  /// lock only (paper's requirement, narrowed), to pop that shard's
  /// free list or allocate. The creating handle is not counted: like
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
  /// visibly non-zero, a Deleting CAS that turns concurrent same-region
  /// deleters away lock-free, and then, for the CAS winner alone, the
  /// authoritative recheck, where the owning manager agrees no other
  /// counted or stack reference survives before the region is
  /// destroyed. A registered winner pools the record on its own index
  /// with no lock. On failure nothing changes and a later attempt may
  /// succeed. The caller must guarantee the owning manager is
  /// quiescent: either the calling thread owns it, or it was handed off
  /// via quiesce() — in which case the destructive step runs under that
  /// manager's hand-off lock so concurrent non-owner deleters never
  /// race inside the (thread-unsafe) manager.
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

  /// Number of shared regions not yet deleted (diagnostics): the
  /// records with an odd generation on every shard's chain, each shard
  /// walked under its lock. Exact whenever the space is quiescent, a
  /// snapshot otherwise.
  std::size_t liveSharedRegions() const;

  /// tryDelete refusals made before winning the Deleting flag (the
  /// visibly non-zero sum and lost-CAS paths). Diagnostics/tests: proves
  /// the polling path stays free of locked instructions. The sum of one
  /// tally per thread index plus the fallback tally of callers that hold
  /// no index here; relaxed reads, so exact once the refusing threads'
  /// work happens-before the call (join, or a message), like
  /// totalCount().
  std::uint64_t lockFreeRefusals() const {
    std::uint64_t N = FallbackRefusals.load(std::memory_order_relaxed);
    for (const IndexLine &I : Indices)
      N += I.Refusals.load(std::memory_order_relaxed);
    return N;
  }

  /// The shard share(\p R) locks when it cannot reuse a record from
  /// the caller's own index: whose free list it pops and which chain a
  /// new record joins (diagnostics, tests).
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
  /// One synchronization domain for what a thread index cannot do on
  /// its own: allocating a record, and pooling or unpooling for a
  /// caller with no index here (or an empty or full index list). Both
  /// fields are written under the lock. Padded so neighbouring shards'
  /// locks never false-share; a shard fits one line wherever the mutex
  /// leaves room.
  struct alignas(64) Shard {
    mutable std::mutex Lock;
    SharedRegion *FreePool = nullptr;   ///< retired records for reuse
    SharedRegion *AllRecords = nullptr; ///< every record, via NextInShard
  };
  static_assert(sizeof(std::mutex) + 2 * sizeof(void *) > 64 ||
                    sizeof(Shard) == 64,
                "a shard must fit one cache line");

  /// What one thread index owns in this space, on a line of its own:
  /// its lock-free refusal tally and its free list of retired records.
  /// Indices[Tid] has one writer, the thread holding index Tid, so the
  /// tally is bumped with a relaxed load and store (see
  /// countLockFreeRefusal()) and the list is pushed and popped with
  /// plain ones. Like a count slot it belongs to the index, and RegLock
  /// hands it from one holder to the next. The list needs no flush or
  /// drain: every record on it stays chained on its shard's AllRecords.
  struct alignas(64) IndexLine {
    std::atomic<std::uint64_t> Refusals{0};
    SharedRegion *FreeRecords = nullptr; ///< via NextFree
    unsigned NumFree = 0; ///< length of FreeRecords, <= kIndexPoolRecords
    /// The holding thread's identity, set by registerThread and cleared
    /// by unregisterThread, both under RegLock. A thread whose index
    /// another thread released still names the index in its
    /// thread-local binding; finding another holder here (or none)
    /// sends it to the fallback paths instead of onto this line.
    std::atomic<const void *> Holder{nullptr};
  };

  /// The calling thread's line when its latest registration is in this
  /// space and still holds that index, else null.
  IndexLine *ownIndex();

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
  IndexLine Indices[kMaxThreads];
  /// Refusals by threads holding no index in this space (or whose
  /// latest registration was in another space): many writers, so it
  /// keeps the atomic add, on a line of its own.
  alignas(64) std::atomic<std::uint64_t> FallbackRefusals{0};

  // Quiesced-manager registry (cross-thread deletion hand-off). The
  // head is atomic so tryDelete can skip the lock entirely in spaces
  // where nothing ever quiesced; mutations still serialize on
  // QuiesceLock.
  alignas(64) mutable std::mutex QuiesceLock;
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
