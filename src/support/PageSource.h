//===- support/PageSource.h - Reserved-arena page provider -----*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every allocator in this project (regions, the three malloc baselines
/// and the conservative GC) obtains 4 KB pages from a PageSource, so the
/// "memory requested from the OS" metric of the paper's Figure 8 is
/// measured identically for all of them.
///
/// A PageSource reserves a large contiguous virtual arena up front
/// (MAP_NORESERVE, so untouched pages cost nothing) and hands out page
/// runs by bumping a frontier; freed runs go to per-length free lists
/// and are reused before the frontier grows. The high-water mark of the
/// frontier is the Figure-8 "OS" number: like the real allocators in the
/// paper, a PageSource never returns memory to the operating system.
///
/// Zero-state: pages handed out from beyond the frontier high-water mark
/// have never been touched, so MAP_ANONYMOUS guarantees they read as
/// zero; allocPages reports this so clients (the region allocator's
/// ZeroMemory path) can skip clearing them. Recycled pages are flagged
/// dirty rather than re-zeroed.
///
/// Coalescing: the free lists record runs at the length they were freed
/// at, which would slowly shred the arena into run sizes that can no
/// longer serve larger requests (and inflate the Figure-8 number by
/// forcing frontier growth past perfectly reusable pages). Instead of
/// paying merge bookkeeping on every free, coalescing is deferred: when
/// an allocation would otherwise grow the frontier while the free lists
/// hold enough pages in total, every free run is swept once, adjacent
/// runs are merged, and the request is retried — including best-fit
/// splitting from larger bins and, as a last resort, seeding the
/// allocation with a free run that abuts the frontier so only the
/// shortfall is new frontier growth. Free/alloc fast paths stay exactly
/// one bin operation.
///
/// rsan quarantine (RGN_HARDEN builds, see support/Harden.h): when a
/// source is given a non-zero quarantine budget, freed runs are
/// byte-poisoned with 0xD5, ASan-poisoned when available, and parked in
/// a FIFO instead of entering the free lists; use-after-free of a page
/// then reads poison deterministically instead of whatever a recycled
/// page happens to hold. When the budget overflows, the *oldest* runs
/// are unpoisoned (ASan only — the 0xD5 bytes stay, the page is simply
/// dirty) and recycled through the normal bins. Quarantined runs are
/// only ever released through that eviction path or resetForTesting, so
/// a page can never be handed out still claiming the never-touched
/// zero-state: every quarantined page was handed out before, which
/// already puts it below the zero high-water mark for good. Quarantined
/// runs never coalesce — they are not free until evicted.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_PAGESOURCE_H
#define SUPPORT_PAGESOURCE_H

#include "support/Align.h"
#include "support/Harden.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace regions {

/// Provides 4 KB pages from a reserved virtual-memory arena.
class PageSource {
public:
  /// Free runs are binned by exact length up to kMaxBin; longer runs go
  /// to the overflow list and are carved first-fit. Clients that grab
  /// geometrically growing runs (the region allocator) cap their run
  /// length here so every freed run recycles through an exact bin.
  static constexpr std::size_t kMaxBin = 16;

  /// Reserves \p ReserveBytes of virtual address space (rounded up to a
  /// page multiple). The default of 1 GiB is plenty for every experiment
  /// in the paper while costing no physical memory until touched.
  /// With a \p Placement, the arena is mapped at that address instead,
  /// over a range the caller has reserved, and on destruction reverts to
  /// PROT_NONE rather than being unmapped (RegionManager's arena slot;
  /// see region/PageMap.h).
  explicit PageSource(std::size_t ReserveBytes = std::size_t{1} << 30,
                      char *Placement = nullptr);

  PageSource(const PageSource &) = delete;
  PageSource &operator=(const PageSource &) = delete;

  ~PageSource();

  /// Allocates a contiguous run of \p NumPages pages. Never returns
  /// null: address-space exhaustion is a fatal error (the experiments
  /// size their arenas generously). When \p Zeroed is non-null, it is
  /// set to true iff the entire run is known to read as zero (fresh,
  /// never-recycled pages); recycled pages report false.
  void *allocPages(std::size_t NumPages, bool *Zeroed = nullptr);

  /// Returns a page run previously obtained from allocPages to the free
  /// lists. The memory stays counted in osBytes(), matching how the
  /// paper's allocators retain freed memory. Runs may be freed whole or
  /// in arbitrary page-aligned pieces; deferred coalescing re-forms
  /// contiguous free space either way.
  void freePages(void *Ptr, std::size_t NumPages);

  /// Total bytes ever obtained from the OS (frontier high-water mark).
  std::size_t osBytes() const { return Frontier * kPageSize; }

  /// Bytes currently handed out to clients (allocated minus freed).
  std::size_t inUseBytes() const { return PagesInUse * kPageSize; }

  /// True if \p Ptr lies within the reserved arena (whether or not the
  /// page it points into is currently handed out). The bound is the
  /// full reservation, exactly as documented — it used to be the
  /// frontier, which silently excluded reserved-but-unissued pages and
  /// made the answer depend on allocation history.
  bool contains(const void *Ptr) const {
    auto Addr = reinterpret_cast<std::uintptr_t>(Ptr);
    auto Base = reinterpret_cast<std::uintptr_t>(ArenaBase);
    return Addr >= Base && Addr < Base + TotalPages * kPageSize;
  }

  /// True if \p Ptr lies within a page this source has ever handed out
  /// (i.e. below the frontier). Clients that probe arbitrary words —
  /// the conservative GC's root scan — want this tighter test: beyond
  /// the frontier there is no client data, only untouched reservation.
  bool containsHandedOut(const void *Ptr) const {
    auto Addr = reinterpret_cast<std::uintptr_t>(Ptr);
    auto Base = reinterpret_cast<std::uintptr_t>(ArenaBase);
    return Addr >= Base && Addr < Base + Frontier * kPageSize;
  }

  /// Index of the page containing \p Ptr, relative to the arena base.
  /// \pre contains(Ptr) or Ptr within the reserved range.
  std::size_t pageIndex(const void *Ptr) const {
    auto Addr = reinterpret_cast<std::uintptr_t>(Ptr);
    auto Base = reinterpret_cast<std::uintptr_t>(ArenaBase);
    return (Addr - Base) >> kPageShift;
  }

  /// Base address of the reserved arena.
  char *base() const { return ArenaBase; }

  /// Number of pages in the reserved arena.
  std::size_t reservedPages() const { return TotalPages; }

  /// Resets all bookkeeping and hands back the entire arena as fresh.
  /// Only for tests and between-benchmark isolation; outstanding
  /// pointers become invalid. Pages the pre-reset run already touched
  /// stay flagged dirty: the arena's contents are not rewound.
  void resetForTesting();

  /// Pages ever handed out (the frontier), in pages rather than the
  /// bytes of osBytes() — rstat reports both views.
  std::size_t frontierPages() const { return Frontier; }

  /// Deferred-coalescing sweeps run so far (each sweep merges every
  /// adjacent free-run pair; see coalesceFreeRuns).
  std::size_t coalesceSweeps() const { return NumCoalesceSweeps; }

  /// Quarantined runs evicted into the free lists so far (budget
  /// overflow, drainQuarantine, or a budget cut).
  std::size_t quarantineEvictions() const { return NumQuarantineEvictions; }

  /// Pages sitting in the free lists (bins and the large-run list) —
  /// the pool deferred coalescing can merge. Excludes quarantined runs,
  /// which are not free until evicted.
  std::size_t freeListedPages() const {
    return Frontier - PagesInUse - NumQuarantinedPages;
  }

  /// Merges every pair of adjacent free runs and rebins the result.
  /// Runs automatically before the frontier would grow past reusable
  /// free space; exposed so tests can observe the merged state.
  void coalesceFreeRuns();

  /// Sets the quarantine budget in pages and evicts down to it. A
  /// budget of zero disables the quarantine (freed runs recycle
  /// immediately, as in unhardened builds). Without RGN_HARDEN freed
  /// runs never quarantine regardless of the budget.
  void setQuarantineBudget(std::size_t Pages);

  /// Pages currently held in quarantine (always zero without
  /// RGN_HARDEN or with a zero budget).
  std::size_t quarantinedPages() const { return NumQuarantinedPages; }

  /// Evicts every quarantined run into the free lists (oldest first),
  /// without changing the budget. Tests use this to force reuse of a
  /// specific previously-freed page.
  void drainQuarantine();

private:
  struct Run {
    std::uint32_t PageIdx;
    std::uint32_t NumPages;
  };

  void *pageAt(std::size_t Index) const {
    return ArenaBase + Index * kPageSize;
  }

  /// Out-of-line remainder of allocPages: bin splitting, large-run
  /// carving, deferred coalescing, frontier extension, frontier growth.
  void *allocPagesSlow(std::size_t NumPages, bool *Zeroed);

  /// Serves \p NumPages from the free lists without growing the
  /// frontier: exact bin, best-fit split of a larger bin (remainder
  /// rebinned exactly), then first-fit carve from the large-run list.
  /// Returns null when no listed run is big enough.
  void *takeFromLists(std::size_t NumPages);

  /// Removes and returns the free run ending exactly at the frontier,
  /// if any (after coalescing there is at most one). Used to seed a
  /// frontier growth so only the shortfall is newly handed-out space.
  bool takeRunEndingAtFrontier(Run &Out);

  /// The pre-quarantine free path: exact bin or large list.
  void recycleRun(std::uint32_t PageIdx, std::size_t NumPages);

  /// Poisons \p NumPages pages at \p PageIdx and appends them to the
  /// quarantine FIFO, evicting the oldest runs past the budget.
  void quarantineRun(std::uint32_t PageIdx, std::size_t NumPages);

  /// Unpoisons (ASan) and recycles the oldest quarantined run.
  void evictOldestQuarantined();

  char *ArenaBase = nullptr;
  bool Placed;                ///< mapped into a caller's reservation
  std::size_t TotalPages = 0;
  std::size_t Frontier = 0;   ///< pages [0, Frontier) have been handed out
  std::size_t PagesInUse = 0; ///< currently allocated pages
  std::size_t ZeroHighWater = 0; ///< pages >= this index were never touched
  bool CoalesceDirty = false; ///< frees since the last coalesce sweep
  std::vector<std::uint32_t> Bins[kMaxBin + 1]; ///< Bins[n]: runs of n pages
  std::vector<Run> LargeRuns; ///< runs longer than kMaxBin pages
  // rsan quarantine state. The FIFO is a vector with a consuming head
  // index, compacted when the dead prefix dominates.
  std::vector<Run> Quarantine;        ///< [QuarantineHead, end) are live
  std::size_t QuarantineHead = 0;     ///< index of the oldest live run
  std::size_t NumQuarantinedPages = 0;
  std::size_t QuarantineBudget = 0;   ///< pages; 0 disables quarantining
  // rstat counters (cold paths only).
  std::size_t NumCoalesceSweeps = 0;
  std::size_t NumQuarantineEvictions = 0;
};

} // namespace regions

#endif // SUPPORT_PAGESOURCE_H
