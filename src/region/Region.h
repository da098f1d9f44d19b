//===- region/Region.h - Explicit region memory management -----*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core of the paper: page-based regions with cheap allocation and
/// whole-region deallocation, plus the *safe* variant in which
/// deleteRegion succeeds only when no external references remain.
///
/// Paper interface (Figure 2)   → this library
///   Region newregion()          → RegionManager::newRegion()
///   ralloc(r, size, cleanup)    → rnew<T>(R, args...) (cleanup = ~T())
///   rarrayalloc(r, n, sz, cl)   → rnewArray<T>(R, n)
///   rstralloc(r, size)          → allocRaw / rnew<T> for trivial T
///   regionof(x)                 → regionOf(Ptr)  (see PageMap.h)
///   deleteregion(&r)            → deleteRegion(Handle) (see RegionPtr.h)
///
/// Layout follows §4.1: regions allocate from 4 KB pages with bump
/// allocation on the newest page; each region has two sub-allocators,
/// one for objects that may contain region pointers ("normal", with a
/// per-object cleanup header and a NULL end marker per page) and one for
/// pointer-free data ("str", headerless). The region structure itself
/// lives in the region's first page, offset by successive multiples of
/// 64 bytes to reduce cache conflicts between region structures. The
/// rest of that page goes to whichever sub-allocator first asks for a
/// page with a request that fits there, so a region whose data is all
/// pointer-free does not leave its first page almost empty.
///
/// Extension beyond the paper's prototype (§4.1 footnote): allocations
/// larger than a page are supported via dedicated page runs, without
/// affecting the cost of small allocations.
///
//===----------------------------------------------------------------------===//

#ifndef REGION_REGION_H
#define REGION_REGION_H

#include "region/PageMap.h"
#include "support/Align.h"
#include "support/Compiler.h"
#include "support/Harden.h"
#include "support/PageSource.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace regions {

class RegionManager;
struct MetricsSnapshot;

namespace rt {
struct SlotNode;
} // namespace rt

namespace par {
class SharedRegion;
} // namespace par

namespace detail {

/// One contiguous run of pages owned by a region, as an (index, length)
/// pair relative to the manager's arena base. Regions grow by grabbing
/// geometrically growing runs and record each one here, so deletion
/// frees O(runs) instead of walking O(pages) of chained headers.
struct PageRun {
  std::uint32_t PageIdx;
  std::uint32_t NumPages;
};

/// Buckets in the rstat region histograms (region/Metrics.h): log2
/// buckets over 64-bit counts — bucket 0 for zero, bucket n for values
/// in (2^(n-2), 2^(n-1)].
inline constexpr unsigned kMetricsLogBuckets = 33;

/// Histogram bucket for \p Value under the scheme above.
inline unsigned metricsBucket(std::uint64_t Value) {
  if (Value == 0)
    return 0;
  unsigned Log = 64u - static_cast<unsigned>(__builtin_clzll(Value));
  return Log < kMetricsLogBuckets ? Log : kMetricsLogBuckets - 1;
}

} // namespace detail

/// Cleanup header stored before every object in a normal page (the
/// paper's \c cleanup_t). The thunk finalizes one object (running
/// destructors, which decrement cross-region reference counts via
/// RegionPtr) and returns the payload size so the region scan can
/// advance (§4.2.4, Figure 7). For arrays the payload begins with the
/// element count.
using ScanThunk = std::size_t (*)(void *Payload);

/// Which safety mechanisms are active (§4.2 / Figure 11). The paper's
/// "safe" library enables all four; its "unsafe" library disables all
/// reference-count support. Individual toggles exist so the Figure 11
/// harness can attribute the cost of each component.
struct SafetyConfig {
  /// Maintain exact reference counts on heap/global pointer writes
  /// (the Figure 5 write barriers).
  bool RefCounts = true;
  /// Maintain the high-water-mark protocol: deleteRegion scans the
  /// shadow stack, frame pops unscan, and deletion honours live locals.
  bool StackScan = true;
  /// Run cleanup thunks (finalizers / cross-region decrements) when a
  /// region is deleted.
  bool CleanupScan = true;
  /// Clear memory returned by the normal allocator, as the paper's
  /// ralloc does (required in C@ so region pointers start NULL).
  bool ZeroMemory = true;

  static constexpr SafetyConfig safeConfig() { return SafetyConfig{}; }
  static constexpr SafetyConfig unsafeConfig() {
    return SafetyConfig{false, false, false, false};
  }
};

/// Counters for the paper's tables and cost breakdowns. All sizes are
/// programmer-requested bytes (headers and page slack excluded); the
/// OS-level number is RegionManager::osBytes().
///
/// LiveRequestedBytes is exact at every moment: each allocation adds to
/// it and each retirement (delete or reset) subtracts the region's
/// bytes. The other per-allocation counters (TotalAllocs,
/// TotalRequestedBytes, MaxRegionBytes, the barrier counts) are kept on
/// each region and folded in when it retires and on demand in
/// RegionManager::stats(). Live bytes only fall at retirement, so
/// sampling MaxLiveRequestedBytes there and at stats() time observes
/// every peak.
struct RegionStats {
  std::uint64_t TotalAllocs = 0;
  std::uint64_t TotalRequestedBytes = 0;
  std::uint64_t LiveRequestedBytes = 0;
  std::uint64_t MaxLiveRequestedBytes = 0;
  std::uint64_t TotalRegions = 0;
  std::uint64_t LiveRegions = 0;
  std::uint64_t MaxLiveRegions = 0;
  std::uint64_t MaxRegionBytes = 0; ///< largest single region, requested bytes
  std::uint64_t DeleteAttempts = 0;
  std::uint64_t DeleteFailures = 0;
  // In-place recycling (rpool; region/Pool.h). A successful reset ends
  // one logical region and starts another in the same storage, so it
  // bumps TotalRegions like newRegion while LiveRegions stays put.
  std::uint64_t ResetRegions = 0;  ///< successful in-place resets
  std::uint64_t ResetRefusals = 0; ///< resets refused on live references
  std::uint64_t CleanupThunksRun = 0;
  /// Retirements (deletes and resets) whose cleanup scan was skipped
  /// because the region had nothing to undo: no out-references and no
  /// thunk that may finalize (Region::outRefs, Region::mayFinalize).
  std::uint64_t CleanupScansSkipped = 0;
  // Write-barrier behaviour (Figure 5 paths).
  std::uint64_t BarrierStores = 0;        ///< barriered pointer stores
  std::uint64_t BarrierSameRegion = 0;    ///< stores skipped as sameregion
  std::uint64_t BarrierAdjustments = 0;   ///< actual count increments+decrements
};

/// Counters for the rpool region-recycling layer (region/Pool.h),
/// aggregated per manager across every RegionPool built over it and
/// surfaced through MetricsSnapshot. Cold: bumped only on the pool's
/// acquire/release/trim paths, never on allocation.
struct PoolStats {
  std::uint64_t Hits = 0;     ///< acquire() served from the cache
  std::uint64_t Misses = 0;   ///< acquire() fell through to newRegion
  std::uint64_t Releases = 0; ///< release() parked a reset region
  std::uint64_t Trims = 0;    ///< regions deleted to honour the budget
};

/// Result of an rsan validation walk over one region (RGN_HARDEN
/// builds; see RegionManager::rsanValidate and rsanCheckRegion in
/// region/Debug.h).
struct RsanReport {
  /// False when the build has no hardened metadata to check
  /// (RGN_HARDEN off): the walk was skipped, the counters mean nothing.
  bool Checked = false;
  std::uint64_t ObjectsChecked = 0;
  /// Objects whose red-zone canary was overwritten (heap overflow past
  /// the payload).
  std::uint64_t RedZoneViolations = 0;
  /// Corrupted size headers (an overflow that reached the *next*
  /// object's metadata, or a wild write).
  std::uint64_t MetadataViolations = 0;

  bool clean() const {
    return RedZoneViolations == 0 && MetadataViolations == 0;
  }
};

/// A region: a set of pages freed all at once. Instances live inside
/// their own first page and are created/destroyed exclusively through
/// RegionManager; the type is standard-layout and trivially destructible
/// because region deletion reclaims it as raw pages.
class Region {
public:
  /// Current reference count: the number of counted external references
  /// (from other regions, global storage, and scanned stack frames).
  long long referenceCount() const { return RC; }

  /// The manager that owns this region.
  RegionManager &manager() const { return *Mgr; }

  /// Number of objects allocated in this region so far.
  std::size_t allocCount() const { return NumAllocs; }

  /// Programmer-requested bytes allocated in this region so far.
  std::size_t requestedBytes() const { return ReqBytes; }

  /// Creation sequence number within the manager. resetRegion() stamps
  /// a fresh id, so a recycled region is a new logical region even
  /// though its storage (and address) survive.
  unsigned id() const { return Id; }

  /// Pages currently owned by this region across every recorded run
  /// (growth and large-object runs alike). O(runs) — cold; feeds the
  /// pool's retention-budget accounting and teardown tests.
  std::size_t ownedPages() const {
    std::size_t N = 0;
    for (std::uint32_t I = 0; I != NumRuns; ++I)
      N += runAt(I).NumPages;
    return N;
  }

  /// Adjusts the reference count. Internal: used by the write barrier
  /// and the shadow-stack scan; exposed for tests and advanced clients.
  void rcAdd(long long Delta) { RC += Delta; }

  /// Whether this region's manager maintains exact reference counts
  /// (a creation-time copy of SafetyConfig::RefCounts, so the write
  /// barrier never needs the manager's cache lines).
  bool countsRefs() const { return CountRefs; }

  /// Counted references stored *in* this region that point into other
  /// counting regions: the counts this region's cleanup scan would give
  /// back. The barrier's cross-region path maintains it through
  /// outRefsAdd (internal, like rcAdd).
  long long outRefs() const { return OutRefs.load(std::memory_order_relaxed); }
  void outRefsAdd(long long Delta) {
    OutRefs.fetch_add(Delta, std::memory_order_relaxed);
  }

  /// Whether some scanned allocation in this region carries a thunk
  /// that may run user code (a finalizer). Retiring a region runs its
  /// cleanup scan only if this is set or outRefs() is non-zero.
  bool mayFinalize() const { return MayFinalize; }

  /// \name Region → SharedRegion binding (parallel extension)
  /// The inverse of SharedRegion::region(): par::ParallelSpace::share()
  /// publishes the record here (while it holds the only handle) so a
  /// displaced pointer can be resolved page-map-first — regionOf(ptr)
  /// then sharedBinding() — to the record whose count it holds, instead
  /// of trusting a caller's pre-exchange guess. tryDelete() retires the
  /// binding before the region's pages are freed. The paired generation
  /// is a creation stamp copied from the record at bind time: a reader
  /// that raced record retirement detects the mismatch instead of
  /// adjusting a pooled-and-reused record's count (see Parallel.h,
  /// resolveSharedRegion()).
  /// @{
  par::SharedRegion *sharedBinding() const {
    return SharedRec.load(std::memory_order_acquire);
  }
  /// The generation the current binding was published with. Relaxed:
  /// ordered by the acquire load of the record pointer (the writer
  /// stores the generation first, then the pointer with release).
  std::uint64_t sharedBindingGen() const {
    return SharedRecGen.load(std::memory_order_relaxed);
  }
  void bindShared(par::SharedRegion *S, std::uint64_t Gen) {
    SharedRecGen.store(Gen, std::memory_order_relaxed);
    SharedRec.store(S, std::memory_order_release);
  }
  void clearSharedBinding() {
    SharedRec.store(nullptr, std::memory_order_release);
  }
  /// @}

  /// Barrier bookkeeping, kept on this region's own counters and
  /// folded into the manager's view at stats()/deletion time. A store
  /// is sameregion when its old and new values lie in one region
  /// (barrierAssign) or its slot lies in one of theirs
  /// (barrierCrossRegion); \p Adjustments counts its ±1 count changes.
  void noteSameRegionStore() { ++BarrierSameStores; }
  void noteBarrierStore(bool SameRegion, unsigned Adjustments) {
    if (SameRegion)
      ++BarrierSameStores;
    else
      ++BarrierOtherStores;
    BarrierAdjustments += Adjustments;
  }

  /// Barrier stores attributed to this region, by outcome.
  std::uint64_t barrierStores() const {
    return BarrierSameStores + BarrierOtherStores;
  }
  std::uint64_t barrierSameRegion() const { return BarrierSameStores; }
  std::uint64_t barrierAdjustments() const { return BarrierAdjustments; }

private:
  friend class RegionManager;

  /// Growth runs grow geometrically (1, 1, 2, 2, 4, 4, 8, 8, then
  /// kMaxRunPages pages — see carvePage) and are capped at
  /// PageSource::kMaxBin so every freed run recycles through an
  /// exact-size bin. Large-object runs do not advance the schedule.
  static constexpr std::uint32_t kMaxRunPages =
      static_cast<std::uint32_t>(PageSource::kMaxBin);

  /// Runs held inline in the region structure; a region only spills to
  /// the malloc'd overflow array past kInlineRuns runs (> 30 pages with
  /// the growth schedule above, i.e. regions past ~120 KB).
  static constexpr std::uint32_t kInlineRuns = 8;

  /// One bump allocator (§4.1 Figure 4's struct allocator): newest page
  /// plus the offset at which to allocate within it. Pages are chained
  /// through their PageHeader. ZeroTail mirrors the head page's
  /// kPageZeroTail flag so the allocation fast path never touches the
  /// page header's cache line.
  struct BumpList {
    char *Head = nullptr;
    std::uint32_t Offset = 0;
    std::uint32_t ZeroTail = 0;
  };

  RegionManager *Mgr = nullptr;
  BumpList Normal; ///< objects that may contain region pointers
  BumpList Str;    ///< pointer-free data (paper's rstralloc)
  char *LargeHead = nullptr; ///< chain of large-object page runs
  std::size_t NumAllocs = 0;
  std::size_t ReqBytes = 0;
  // Set by allocScanned, on the line the bump path already writes, when
  // a thunk may run user code; cleared only by resetRegion.
  bool MayFinalize = false;
  // The first page's remainder past this structure, until a bump list
  // adopts it: newRegion and resetRegion leave both lists empty, and
  // newPage gives the remainder to the first normal or str request that
  // fits before it carves a page, so a small region of either kind
  // lives in one page. FirstOffset is the remainder's start (0 once
  // adopted); FirstZeroTail says it reads zero. Both sit in the padding
  // before InlineRuns.
  std::uint8_t FirstZeroTail = 0;
  std::uint16_t FirstOffset = 0;
  // Run table: every page run this region owns (growth runs and large-
  // object runs alike), in grab order. InlineRuns[0] is always the
  // region's own first page. The overflow array is raw malloc storage —
  // Region must stay trivially destructible, and region pages cannot
  // hold it because deletion frees (and in hardened builds poisons)
  // those pages while iterating the table.
  detail::PageRun InlineRuns[kInlineRuns] = {};
  detail::PageRun *OverflowRuns = nullptr;
  std::uint32_t NumRuns = 0;
  std::uint32_t OverflowCap = 0;

  /// The run table as one indexable sequence: inline then overflow.
  detail::PageRun &runAt(std::uint32_t I) {
    return I < kInlineRuns ? InlineRuns[I] : OverflowRuns[I - kInlineRuns];
  }
  const detail::PageRun &runAt(std::uint32_t I) const {
    return I < kInlineRuns ? InlineRuns[I] : OverflowRuns[I - kInlineRuns];
  }

  // Carve cursor into the current (newest) growth run, as absolute page
  // indices: pages [RunCursor, RunEnd) are grabbed but not yet handed
  // to a bump list. RunZeroed carries the run's PageSource zero-state
  // to each carved page so the zero-tail fast path survives chunking.
  // GrowthRuns counts the growth runs grabbed so far, the first page
  // included, up to the schedule's cap: it alone picks the next run's
  // length, so large objects in between do not change the sizes a
  // region's growth runs take.
  std::uint32_t RunCursor = 0;
  std::uint32_t RunEnd = 0;
  std::uint16_t RunZeroed = 0;
  std::uint16_t GrowthRuns = 0;
  // Reserve window into the run table (rpool): runs [NextReserve,
  // ReserveEnd) were retained by resetRegion and are re-carved before
  // any fresh grab. ReserveEnd is frozen at reset time so runs recorded
  // later (large objects, new growth runs) can never be mistaken for
  // reservoir runs. Never-reset regions keep both at zero and pay one
  // always-false compare in carvePage.
  std::uint32_t NextReserve = 0;
  std::uint32_t ReserveEnd = 0;
  // Cold fields, placed so that the barrier line follows.
  unsigned Id = 0;
  Region *PrevLive = nullptr;
  // The barrier line: a counted cross-region store reads CountRefs,
  // adjusts RC and bumps the statistics counters, so all of them share
  // one cache line (checked in newRegion). OutRefs is adjusted on the
  // slot's region instead, and read next to RC when a region retires.
  // Threads storing into one region's slots, each pointing into its own
  // target, share no count but do share OutRefs, so it alone is atomic.
  std::uint64_t BarrierSameStores = 0;
  long long RC = 0;
  std::atomic<long long> OutRefs{0};
  bool CountRefs = false;
  std::uint64_t BarrierOtherStores = 0;
  std::uint64_t BarrierAdjustments = 0;
  Region *NextLive = nullptr;
  // The shared-record binding (see sharedBinding() above). Cold: only
  // share/tryDelete write it and only resolving exchanges read it, so
  // it sits here with the other deletion-time fields, off the bump and
  // barrier cache lines. Atomics keep Region trivially destructible.
  std::atomic<par::SharedRegion *> SharedRec{nullptr};
  std::atomic<std::uint64_t> SharedRecGen{0};
};

namespace detail {

enum class PageKind : std::uint16_t { Normal, Str, Large };

/// Page flag: every byte from the current bump offset to the end of the
/// page reads as zero. Set when the page arrived zeroed from the OS (or
/// was bulk-cleared on refill); lets the allocation fast path skip both
/// the per-object memset and the explicit end marker — the next header
/// slot is already the NULL the Figure-7 scan stops at.
inline constexpr std::uint16_t kPageZeroTail = 1;

/// Prefix of every page handed to a region. 16 bytes, covering the
/// paper's "eight bytes per page for the map of pages to regions and
/// the list of allocated pages" bookkeeping role.
struct PageHeader {
  char *Next;              ///< older page in the same list
  std::uint32_t ScanStart; ///< offset of the first object header
  PageKind Kind;
  std::uint16_t Flags;     ///< kPageZeroTail
};
static_assert(sizeof(PageHeader) == 16, "page header layout");

inline PageHeader *headerOf(char *Page) {
  return reinterpret_cast<PageHeader *>(Page);
}

/// Writes the NULL end marker the region scan stops at (Figure 7), if
/// there is room for another object header on the page. Hardened
/// builds reuse the same zero word as the str-page walk terminator (a
/// zero size-header word), and must lift the ASan bump-tail protection
/// covering the marker slot before storing into it.
inline void writeEndMarker(char *Page, std::uint32_t Offset) {
  if (Offset + sizeof(ScanThunk) <= kPageSize) {
    RGN_ASAN_UNPOISON(Page + Offset, sizeof(ScanThunk));
    *reinterpret_cast<ScanThunk *>(Page + Offset) = nullptr;
  }
}

/// Large-object block:
///   [PageHeader][NumPages][ScanThunk][payload...]            (lean)
///   [PageHeader][NumPages][ScanThunk][size hdr][payload][red zone]
///                                                           (hardened)
inline constexpr std::size_t kLargeNumPagesOff = sizeof(PageHeader);
inline constexpr std::size_t kLargeThunkOff = kLargeNumPagesOff + 8;
inline constexpr std::size_t kLargeSizeOff = kLargeThunkOff + 8;
inline constexpr std::size_t kLargePayloadOff = kLargeSizeOff + kRsanSizeHdr;

//===----------------------------------------------------------------------===//
// rsan object layout (RGN_HARDEN; all of it folds away when off)
//===----------------------------------------------------------------------===//

/// Stamps the hardened per-object metadata around a payload: the
/// tagged size header at \p Hdr and the canary-filled red zone right
/// after the \p Payload aligned bytes. The red zone is additionally
/// ASan-poisoned so an overflowing *read or write* traps immediately
/// under RGN_SANITIZE=address; without ASan the overwrite is caught by
/// the validation walk at deleteregion / rsanCheckRegion time.
RGN_ALWAYS_INLINE void rsanStampObject(char *Hdr, std::size_t Size,
                                       std::size_t Payload) {
#if RGN_HARDEN_ENABLED
  *reinterpret_cast<std::size_t *>(Hdr) = rsanTagSize(Size);
  char *RedZone = Hdr + kRsanSizeHdr + Payload;
  std::memset(RedZone, kRsanRedZoneCanary, kRsanRedZone);
  RGN_ASAN_POISON(RedZone, kRsanRedZone);
#else
  (void)Hdr;
  (void)Size;
  (void)Payload;
#endif
}

/// The write barrier's remainder for stores that cross regions:
/// classifies the slot through the same snapshot the caller used for
/// the old and new values, applies the ±1 count adjustments in place
/// (§4.2.2, Figure 5), and parks the statistics on the store's region
/// (see barrierAssign in RegionPtr.h). Each count sits on the line
/// countsRefs() has just loaded. The same adjustments, netted, move the
/// slot's region's out-reference count (Region::outRefs). Kept inline:
/// an out-of-line call forces the probe snapshot through the stack,
/// which costs more than the body.
RGN_ALWAYS_INLINE void barrierCrossRegion(void **Slot, Region *OldR,
                                          Region *NewR,
                                          const ArenaProbe &Probe) {
  Region *SlotR = Probe.lookup(Slot);
  // The adjustment tally and the out-reference delta are built inside
  // branches the counting logic takes anyway, and land in one store
  // each after them rather than one per adjustment.
  unsigned Adj = 0;
  long long Out = 0;
  bool Same = false;
  if (RGN_LIKELY(OldR != SlotR && NewR != SlotR)) {
    // Neither endpoint shares the slot's region, so the store is not
    // sameregion: the endpoint inequality tests double as the
    // adjustment guards, leaving only null and counting checks.
    if (OldR && OldR->countsRefs()) {
      OldR->rcAdd(-1);
      --Out;
      ++Adj;
    }
    if (NewR && NewR->countsRefs()) {
      NewR->rcAdd(+1);
      ++Out;
      ++Adj;
    }
  } else {
    // The slot lives in one endpoint's region; that side is an internal
    // reference while the other may still adjust. The endpoints differ,
    // so the store is sameregion unless the shared "region" is null (a
    // global or stack slot next to a null endpoint).
    Same = SlotR != nullptr;
    if (OldR && OldR != SlotR && OldR->countsRefs()) {
      OldR->rcAdd(-1);
      --Out;
      ++Adj;
    }
    if (NewR && NewR != SlotR && NewR->countsRefs()) {
      NewR->rcAdd(+1);
      ++Out;
      ++Adj;
    }
  }
  // Stats park on the store's region — the new value's region when
  // there is one, the old value's otherwise — matching the manager the
  // eager scheme attributed to.
  (NewR ? NewR : OldR)->noteBarrierStore(Same, Adj);
  // A global or stack slot has no region whose cleanup could release
  // the reference.
  if (Out && SlotR)
    SlotR->outRefsAdd(Out);
}

} // namespace detail

/// Owns an arena of pages and the regions carved from it. Distinct
/// managers are fully independent (each experiment backend gets its
/// own), but regionOf() resolves pointers across all live managers.
class RegionManager {
public:
  /// Creates a manager in the lowest free arena slot (region/PageMap.h).
  /// \p ReserveBytes bounds the total memory all of this manager's
  /// regions can ever hold (virtual reservation only); it may not exceed
  /// detail::kArenaSlotBytes. At most detail::kMaxArenas managers are
  /// live at once.
  explicit RegionManager(SafetyConfig Config = SafetyConfig::safeConfig(),
                         std::size_t ReserveBytes = std::size_t{1} << 30);

  RegionManager(const RegionManager &) = delete;
  RegionManager &operator=(const RegionManager &) = delete;

  /// Destroys the manager and reclaims every live region without
  /// running cleanups (the arena disappears wholesale).
  ~RegionManager();

  /// Creates a new, empty region (paper: newregion()) in one page: the
  /// region structure, then a remainder that the first normal or str
  /// allocation to fit adopts (see Region::FirstOffset).
  Region *newRegion();

  /// Allocates \p Size bytes of pointer-free storage in \p R (paper:
  /// rstralloc). The memory is uninitialized, has no per-object header,
  /// and is never scanned on deletion. Inline fast path: the common
  /// small allocation is a bounds test plus a bump of the region's
  /// str list, with no global state touched.
  void *allocRaw(Region *R, std::size_t Size);

  /// allocRaw, but the returned memory is guaranteed cleared. Cheaper
  /// than allocRaw + memset: pages that arrive zeroed from the OS skip
  /// the clear entirely.
  void *allocRawZeroed(Region *R, std::size_t Size);

  /// Allocates \p Size bytes in \p R with cleanup \p Thunk (paper:
  /// ralloc/rarrayalloc). The memory is cleared when ZeroMemory is
  /// configured. \p Thunk must be non-null; it runs when the region is
  /// deleted with CleanupScan enabled and must return the payload size.
  /// Inline fast path: on zero-tail pages the bump writes exactly one
  /// word (the object's thunk) — payload clearing and the scan's end
  /// marker are both implicit in the page's zero state.
  ///
  /// \p MayFinalize false promises that \p Thunk runs no user code: it
  /// only destroys RegionPtr members (or just reports a size). Such a
  /// thunk can only give back out-references, which the region counts
  /// (Region::outRefs), so deletion may skip it when there are none.
  void *allocScanned(Region *R, std::size_t Size, ScanThunk Thunk,
                     bool MayFinalize = true);

  /// Attempts to delete \p R (paper: deleteregion(&r)).
  ///
  /// \p HandleSlot is the storage holding the caller's reference being
  /// deleted (the paper's \c *x, which is excepted from the external-
  /// reference check); may be null for anonymous deletion. On success
  /// \c *HandleSlot is cleared without barrier bookkeeping.
  /// \p HandleCounted says the slot's reference is included in R's
  /// reference count (true for barriered global/heap handles).
  ///
  /// Deletion succeeds iff no other counted reference and no live local
  /// in the shadow stack refers to any object in R. Returns false and
  /// leaves the region (and \c *HandleSlot) untouched on failure.
  /// Prefer the typed wrappers deleteRegion() in RegionPtr.h.
  ///
  /// \p HandleNode, when the handle is a registered local (rt::Ref),
  /// is its shadow-stack node: the scanned/unscanned classification is
  /// then O(1) instead of a walk over every registered slot.
  bool deleteRegionImpl(Region *R, void **HandleSlot, bool HandleCounted,
                        const rt::SlotNode *HandleNode = nullptr);

  /// Deletes through an unregistered raw handle: no stack registration,
  /// no count contribution. Clears \p R on success.
  bool deleteRegionRaw(Region *&R) {
    return deleteRegionImpl(R, reinterpret_cast<void **>(&R), false);
  }

  /// Resets \p R to the freshly-created empty state **in place** (rpool
  /// layer 1; see region/Pool.h for the pooling layer built on it).
  ///
  /// Applies exactly deleteRegion's safety protocol — stack scan,
  /// external-reference refusal, rsan validation, cleanup thunks — but
  /// instead of returning pages to the PageSource it keeps every page
  /// run (growth and large-object runs alike, with their page-map
  /// entries) as a re-carve reservoir: carvePage and exact-fit
  /// allocLarge requests drain it before touching the source.
  /// The first page's remainder is unadopted again, as newRegion leaves
  /// it, and retained pages are re-poisoned under RGN_HARDEN. The region
  /// keeps its address but becomes a new logical region: a fresh id is
  /// stamped and the retired incarnation is folded into stats and the
  /// rstat lifetime histograms exactly as a deletion would. Retention
  /// is bounded by the caller, not here — RegionPool's page budget
  /// deletes regions whose reservoir outgrows it.
  ///
  /// Returns false (region untouched) when counted external references
  /// or live scanned locals remain, like deleteregion. Shared regions
  /// must go through ParallelSpace::tryDelete instead — resetting (or
  /// deleting) a region with a live SharedRegion binding is fatal.
  bool resetRegion(Region *R);

  const SafetyConfig &config() const { return Cfg; }

  /// Returns the aggregated statistics by value. Live regions' own
  /// counters are folded in here, as they are at retirement.
  RegionStats stats() const;

  /// Write access to the rpool counters for RegionPool; readers use
  /// metrics().Pool.
  PoolStats &poolStatsMutable() { return PoolCounters; }

  /// Bytes this manager has requested from the OS (Figure 8's metric).
  std::size_t osBytes() const { return Source.osBytes(); }

  /// Number of regions currently live.
  std::size_t liveRegionCount() const { return Stats.LiveRegions; }

  //===--------------------------------------------------------------------===//
  // rstat observability (region/Metrics.h, support/Trace.h)
  //===--------------------------------------------------------------------===//

  /// Captures a MetricsSnapshot of this manager: stats() exactly, the
  /// PageSource frontier/free-list/quarantine state, and the region
  /// size-class and lifetime histograms. Cold: walks the live-region
  /// list once. Defined in Metrics.cpp.
  MetricsSnapshot metrics() const;

  /// Heap introspection: prints every live region — reference count,
  /// allocation/byte totals, page runs, and the per-page chains with
  /// kind/flags/bytes-used — for debugging refused deletions at scale.
  /// Defined in Metrics.cpp.
  void dumpHeap(std::FILE *Out = stdout) const;

  /// Largest size allocScanned serves from a normal page; bigger
  /// requests take the large-object path transparently. Hardened
  /// builds shave off the per-object size header and red zone.
  static constexpr std::size_t maxSmallAlloc() {
    return kPageSize - sizeof(detail::PageHeader) - sizeof(ScanThunk) -
           detail::kRsanObjOverhead;
  }

  /// Largest size allocRaw serves from a str page.
  static constexpr std::size_t maxRawAlloc() {
    return kPageSize - sizeof(detail::PageHeader) - detail::kRsanObjOverhead;
  }

  //===--------------------------------------------------------------------===//
  // rsan (RGN_HARDEN builds; every entry point is a cheap no-op when off)
  //===--------------------------------------------------------------------===//

  /// Walks \p R's hardened per-object metadata (size headers, red-zone
  /// canaries) across normal, str, and large pages without running any
  /// cleanup. With \p FatalOnViolation the first corruption aborts via
  /// reportFatalError; otherwise violations are tallied in the report.
  /// Without RGN_HARDEN there is no metadata: returns Checked = false.
  RsanReport rsanValidate(const Region *R, bool FatalOnViolation = false) const;

  /// Re-budgets this manager's page quarantine (0 disables; deleted
  /// regions' pages then recycle immediately as in unhardened builds).
  void setQuarantineBudget(std::size_t Pages) {
    Source.setQuarantineBudget(Pages);
  }

  /// Pages of deleted regions currently held poisoned in quarantine.
  std::size_t quarantinedPages() const { return Source.quarantinedPages(); }

  /// Force-evicts the whole quarantine into the free lists (tests use
  /// this to provoke reuse of a specific deleted region's pages).
  void drainQuarantine() { Source.drainQuarantine(); }

private:
  /// Starts a fresh page on \p Kind's bump list for a request of \p Need
  /// bytes: the first page's remainder when it is unadopted and fits,
  /// a carved page otherwise.
  char *newPage(Region *R, detail::PageKind Kind, std::size_t Need);
  char *carvePage(Region *R, bool &Zeroed);
  void recordRun(Region *R, std::uint32_t PageIdx, std::uint32_t NumPages);
  void *allocRawSlow(Region *R, std::size_t Size, bool Zeroed);
  void *allocScannedSlow(Region *R, std::size_t Size, ScanThunk Thunk);
  void *allocLarge(Region *R, std::size_t Size, ScanThunk Thunk, bool Zeroed);
  void runCleanups(Region *R);
  /// deleteregion's safety protocol (§4.2), shared by deleteRegionImpl
  /// and resetRegion: scan the stack, refuse while any external
  /// reference other than the handle's is live (ticking DeleteFailures,
  /// or ResetRefusals when \p Reset), then validate hardened metadata
  /// and run the cleanups. True iff R may be retired.
  bool checkAndFinalize(Region *R, void **HandleSlot, bool HandleCounted,
                        const rt::SlotNode *HandleNode, bool Reset);
  /// Folds a retiring incarnation into Stats and the rstat histograms.
  void foldRetired(const Region *R);
  /// Unlinks R from the live list and frees its runs; returns the pages.
  std::size_t freeRegionMemory(Region *R);
  void setMapRange(const void *Page, std::size_t NumPages, Region *R);
  /// Counts one allocation of \p Size requested bytes, on the region
  /// and in the manager's live total.
  void noteAlloc(Region *R, std::size_t Size) {
    ++R->NumAllocs;
    R->ReqBytes += Size;
    Stats.LiveRequestedBytes += Size;
  }

  detail::ArenaSlot Slot; ///< declared first: outlives Source (PageMap.h)
  PageSource Source;      ///< carves inside Slot
  Region **Map;           ///< Slot's page map slice: page index -> region
  SafetyConfig Cfg;
  /// Region-lifecycle counters and LiveRequestedBytes are eager; the
  /// per-region counters cover retired incarnations only (live
  /// regions' shares are summed on demand).
  RegionStats Stats;
  PoolStats PoolCounters; ///< rpool activity (region/Pool.h)
  Region *LiveHead = nullptr;
  unsigned NextRegionId = 0;
  /// rstat histograms over *retired* regions, bumped in
  /// foldRetired (a cold path — the histograms are region-
  /// granularity precisely so the allocation fast path stays
  /// untouched). Live regions' size classes are summed on demand by
  /// metrics(). Buckets are metricsBucket() of final requested bytes
  /// and of lifetime on the region-creation logical clock.
  std::uint64_t DeadSizeClasses[detail::kMetricsLogBuckets] = {};
  std::uint64_t DeadLifetimes[detail::kMetricsLogBuckets] = {};
};

//===----------------------------------------------------------------------===//
// Allocation fast paths (paper §4.1: "about 16 instructions")
//===----------------------------------------------------------------------===//

// Hardened builds widen each object to [size hdr][payload][red zone]
// (str) or [thunk][size hdr][payload][red zone] (normal); the kRsan*
// constants are zero otherwise, so the shared arithmetic below
// constant-folds back to the lean layout and these paths compile to
// exactly the unhardened instructions.

RGN_ALWAYS_INLINE void *RegionManager::allocRaw(Region *R, std::size_t Size) {
  assert(R && R->Mgr == this && "region belongs to another manager");
  Region::BumpList &B = R->Str;
  std::size_t Payload = alignTo(Size, kDefaultAlignment);
  std::size_t Need = detail::kRsanObjOverhead + Payload;
  if (RGN_LIKELY(B.Head && Size <= maxRawAlloc() &&
                 B.Offset + Need <= kPageSize)) {
    char *Base = B.Head + B.Offset;
    B.Offset += static_cast<std::uint32_t>(Need);
    noteAlloc(R, Size);
    if constexpr (detail::kRsanEnabled) {
      RGN_ASAN_UNPOISON(Base, Need);
      detail::rsanStampObject(Base, Size, Payload);
      if (!B.ZeroTail) // terminate the str-page metadata walk
        detail::writeEndMarker(B.Head, B.Offset);
    }
    return Base + detail::kRsanSizeHdr;
  }
  return allocRawSlow(R, Size, /*Zeroed=*/false);
}

RGN_ALWAYS_INLINE void *RegionManager::allocRawZeroed(Region *R, std::size_t Size) {
  assert(R && R->Mgr == this && "region belongs to another manager");
  Region::BumpList &B = R->Str;
  std::size_t Payload = alignTo(Size, kDefaultAlignment);
  std::size_t Need = detail::kRsanObjOverhead + Payload;
  if (RGN_LIKELY(B.Head && Size <= maxRawAlloc() &&
                 B.Offset + Need <= kPageSize)) {
    char *Base = B.Head + B.Offset;
    B.Offset += static_cast<std::uint32_t>(Need);
    if constexpr (detail::kRsanEnabled) {
      RGN_ASAN_UNPOISON(Base, Need);
      detail::rsanStampObject(Base, Size, Payload);
      if (!B.ZeroTail)
        detail::writeEndMarker(B.Head, B.Offset);
    }
    char *Result = Base + detail::kRsanSizeHdr;
    if (!B.ZeroTail)
      std::memset(Result, 0, Payload);
    noteAlloc(R, Size);
    return Result;
  }
  return allocRawSlow(R, Size, /*Zeroed=*/true);
}

RGN_ALWAYS_INLINE void *RegionManager::allocScanned(Region *R, std::size_t Size,
                                         ScanThunk Thunk, bool MayFinalize) {
  assert(R && R->Mgr == this && "region belongs to another manager");
  assert(Thunk && "scanned allocations need a cleanup thunk");
  if (MayFinalize)
    R->MayFinalize = true;
  Region::BumpList &B = R->Normal;
  std::size_t Payload = alignTo(Size, kDefaultAlignment);
  std::size_t Need = sizeof(ScanThunk) + detail::kRsanObjOverhead + Payload;
  if (RGN_LIKELY(B.Head && Size <= maxSmallAlloc() &&
                 B.Offset + Need <= kPageSize)) {
    char *Base = B.Head + B.Offset;
    RGN_ASAN_UNPOISON(Base, Need);
    *reinterpret_cast<ScanThunk *>(Base) = Thunk;
    detail::rsanStampObject(Base + sizeof(ScanThunk), Size, Payload);
    B.Offset += static_cast<std::uint32_t>(Need);
    char *Result = Base + sizeof(ScanThunk) + detail::kRsanSizeHdr;
    if (!B.ZeroTail) {
      detail::writeEndMarker(B.Head, B.Offset);
      if (Cfg.ZeroMemory)
        std::memset(Result, 0, Payload);
    }
    noteAlloc(R, Size);
    return Result;
  }
  return allocScannedSlow(R, Size, Thunk);
}

//===----------------------------------------------------------------------===//
// Typed allocation interface (the C@-compiler role)
//===----------------------------------------------------------------------===//

namespace detail {

/// Cleanup thunk for a single object: finalize and report size. The
/// destructor of any RegionPtr member performs the paper's destroy()
/// (cross-region reference-count decrement).
template <typename T> std::size_t scanThunk(void *Payload) {
  static_cast<T *>(Payload)->~T();
  return sizeof(T);
}

/// Cleanup thunk for arrays: payload is [count][elements...].
template <typename T> std::size_t scanArrayThunk(void *Payload) {
  auto *Count = static_cast<std::size_t *>(Payload);
  T *Elems = reinterpret_cast<T *>(Count + 1);
  for (std::size_t I = 0, E = *Count; I != E; ++I)
    Elems[I].~T();
  return sizeof(std::size_t) + *Count * sizeof(T);
}

template <typename T>
inline constexpr bool regionAllocatable =
    alignof(T) <= kDefaultAlignment && !std::is_reference_v<T>;

/// Whether T's cleanup may run user code. False only for types that opt
/// in with the marker `using RegionCountOnly = T;`, which promises that
/// ~T() does nothing but destroy RegionPtr members — C@'s compiler-
/// generated cleanup. The alias must name T itself, so a derived type
/// with a destructor of its own does not inherit its base's promise.
template <typename T, typename = void>
inline constexpr bool mayFinalize = true;
template <typename T>
inline constexpr bool mayFinalize<T, std::void_t<typename T::RegionCountOnly>> =
    !std::is_same_v<typename T::RegionCountOnly, T>;

} // namespace detail

/// Allocates and constructs a T in region \p R (paper: ralloc).
///
/// Trivially destructible types carry no region pointers (region
/// pointers are RegionPtr, whose destructor is non-trivial) and are
/// routed to the headerless pointer-free allocator, exactly the
/// ralloc/rstralloc split the paper asks programmers to make.
///
/// Other types get a cleanup thunk running ~T(). Unless T carries the
/// RegionCountOnly marker (detail::mayFinalize), that thunk counts as a
/// finalizer and R's deletion always runs the cleanup scan.
template <typename T, typename... Args> T *rnew(Region *R, Args &&...A) {
  static_assert(detail::regionAllocatable<T>, "over-aligned type in region");
  RegionManager &M = R->manager();
  if constexpr (std::is_trivially_destructible_v<T>)
    return ::new (M.allocRaw(R, sizeof(T))) T(std::forward<Args>(A)...);
  else
    return ::new (M.allocScanned(R, sizeof(T), &detail::scanThunk<T>,
                                 detail::mayFinalize<T>))
        T(std::forward<Args>(A)...);
}

/// Allocates and default-constructs \p N objects of type T in \p R
/// (paper: rarrayalloc). Trivial element types are value-initialized
/// (cleared), matching the paper's cleared rarrayalloc memory. A count
/// whose byte size would overflow std::size_t is a fatal error rather
/// than a silent under-allocation.
template <typename T> T *rnewArray(Region *R, std::size_t N) {
  static_assert(detail::regionAllocatable<T>, "over-aligned type in region");
  RegionManager &M = R->manager();
  if constexpr (std::is_trivially_destructible_v<T>) {
    if (RGN_UNLIKELY(N > SIZE_MAX / sizeof(T)))
      reportFatalError("rnewArray: array byte size overflows");
    return static_cast<T *>(M.allocRawZeroed(R, N * sizeof(T)));
  } else {
    if (RGN_UNLIKELY(N > (SIZE_MAX - sizeof(std::size_t)) / sizeof(T)))
      reportFatalError("rnewArray: array byte size overflows");
    void *Mem = M.allocScanned(R, sizeof(std::size_t) + N * sizeof(T),
                               &detail::scanArrayThunk<T>,
                               detail::mayFinalize<T>);
    *static_cast<std::size_t *>(Mem) = N;
    T *Elems = reinterpret_cast<T *>(static_cast<std::size_t *>(Mem) + 1);
    for (std::size_t I = 0; I != N; ++I)
      ::new (Elems + I) T();
    return Elems;
  }
}

/// Copies the NUL-terminated string \p S into \p R's pointer-free
/// storage and returns the copy.
char *rstrdup(Region *R, const char *S);

/// Copies \p Len bytes of \p Data into \p R's pointer-free storage,
/// appending a NUL.
char *rstrndup(Region *R, const char *Data, std::size_t Len);

} // namespace regions

#endif // REGION_REGION_H
