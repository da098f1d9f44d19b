//===- region/Region.cpp - Explicit region memory management -------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "region/Region.h"
#include "region/RuntimeStack.h"
#include "support/Compiler.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>

using namespace regions;
using detail::headerOf;
using detail::kPageZeroTail;
using detail::PageHeader;
using detail::PageKind;
using detail::writeEndMarker;

static_assert(std::is_standard_layout_v<Region>, "Region lives in raw pages");
static_assert(std::is_trivially_destructible_v<Region>,
              "Region is reclaimed as raw pages, never destroyed");

RegionManager::RegionManager(SafetyConfig Config, std::size_t ReserveBytes)
    : Slot(ReserveBytes), Source(ReserveBytes, Slot.base()), Map(Slot.map()),
      Cfg(Config) {
  // Hardened builds quarantine deleted regions' pages by default;
  // kRsanDefaultQuarantinePages is zero otherwise, so this is a no-op.
  if (detail::kRsanDefaultQuarantinePages != 0)
    Source.setQuarantineBudget(detail::kRsanDefaultQuarantinePages);
  // rstat lazy attach: if a tracing epoch is open, this thread records
  // into it from here on. No-op (one relaxed load) when disarmed.
  rstat::attachThread();
}

RegionManager::~RegionManager() {
  // Live regions die with the arena without passing through
  // freeRegionMemory; release their spilled run tables here.
  for (Region *R = LiveHead; R; R = R->NextLive)
    std::free(R->OverflowRuns);
  // Every map entry this manager wrote lies below the frontier. Clear
  // them before Source re-protects the pages and Slot frees the slot,
  // so a stale probe reads "not in a region" and the next claimant
  // starts from an empty slice.
  std::fill(Map, Map + Source.frontierPages(), nullptr);
}

void RegionManager::setMapRange(const void *Page, std::size_t NumPages,
                                Region *R) {
  std::size_t Idx = Source.pageIndex(Page);
  std::fill(Map + Idx, Map + Idx + NumPages, R);
}

void RegionManager::recordRun(Region *R, std::uint32_t PageIdx,
                              std::uint32_t NumPages) {
  std::uint32_t I = R->NumRuns++;
  if (I < Region::kInlineRuns) {
    R->InlineRuns[I] = {PageIdx, NumPages};
    return;
  }
  std::uint32_t OvIdx = I - Region::kInlineRuns;
  if (OvIdx == R->OverflowCap) {
    std::uint32_t NewCap = R->OverflowCap ? R->OverflowCap * 2 : 16;
    auto *Grown = static_cast<detail::PageRun *>(std::realloc(
        R->OverflowRuns, std::size_t{NewCap} * sizeof(detail::PageRun)));
    if (!Grown)
      reportFatalError("region run table: out of memory");
    R->OverflowRuns = Grown;
    R->OverflowCap = NewCap;
  }
  R->OverflowRuns[OvIdx] = {PageIdx, NumPages};
}

char *RegionManager::carvePage(Region *R, bool &Zeroed) {
  if (R->RunCursor == R->RunEnd) {
    // rpool reservoir first: runs retained by resetRegion re-carve with
    // no PageSource traffic, no page-map writes, and no RunGrab trace —
    // the pages never left the region. Never-reset regions keep the
    // window empty, so this is one always-false compare for them.
    if (RGN_UNLIKELY(R->NextReserve < R->ReserveEnd)) {
      detail::PageRun Run = R->runAt(R->NextReserve++);
      R->RunCursor = Run.PageIdx;
      R->RunEnd = Run.PageIdx + Run.NumPages;
      R->RunZeroed = 0; // dirty: written by the previous incarnation
    } else {
      // Geometric growth, doubling every other run: 1, 1, 2, 2, 4, 4,
      // 8, 8, then kMaxRunPages forever. Two leading single-page runs
      // (its own page, then one more) keep a small region that outgrows
      // its first page waste-free, the half-rate doubling keeps mid-size
      // regions' uncarved slack (which Figure 8's osBytes high-water
      // mark sees) low, and the cap keeps every freed run exact-bin
      // recyclable. The schedule counts growth runs only: were large-
      // object runs to advance it, whether a large object came before
      // or after a page boundary would change the run lengths, and
      // with them the free-run shapes the next region finds.
      static_assert(Region::kMaxRunPages == 16, "growth schedule assumes 16");
      std::uint32_t G = R->GrowthRuns;
      std::uint32_t N = G >= 8 ? Region::kMaxRunPages : 1u << (G >> 1);
      if (G < 8)
        ++R->GrowthRuns;
      bool RunZeroed = false;
      char *Base = static_cast<char *>(Source.allocPages(N, &RunZeroed));
      auto Idx = static_cast<std::uint32_t>(Source.pageIndex(Base));
      recordRun(R, Idx, N);
      rstat::traceEvent(rstat::EventKind::RunGrab, Idx, N);
      // The whole run maps to R immediately: regionOf on an uncarved
      // page answers R, which is correct — the pages are owned by (and
      // die with) this region.
      setMapRange(Base, N, R);
      if constexpr (detail::kRsanEnabled) {
        // Uncarved pages are out of bounds until handed to a bump list;
        // freePages lifts this protection run-wise at teardown.
        if (N > 1)
          RGN_ASAN_POISON(Base + kPageSize, (std::size_t{N} - 1) * kPageSize);
      }
      R->RunCursor = Idx;
      R->RunEnd = Idx + N;
      R->RunZeroed = RunZeroed ? 1 : 0;
    }
  }
  char *Page = Source.base() + std::size_t{R->RunCursor} * kPageSize;
  ++R->RunCursor;
  if constexpr (detail::kRsanEnabled)
    RGN_ASAN_UNPOISON(Page, kPageSize);
  Zeroed = R->RunZeroed != 0;
  return Page;
}

char *RegionManager::newPage(Region *R, PageKind Kind, std::size_t Need) {
  char *Page;
  std::uint32_t Offset = sizeof(PageHeader);
  bool Zeroed = false;
  if (R->FirstOffset != 0 && R->FirstOffset + Need <= kPageSize) {
    // The first page's remainder, adopted by whichever list asks first
    // with a request that fits. A recycled first page stays dirty with
    // no bulk clear: the end marker below stops the cleanup scan, and
    // the fast path zeroes each object under ZeroMemory.
    Page = Source.base() + std::size_t{R->InlineRuns[0].PageIdx} * kPageSize;
    Offset = R->FirstOffset;
    Zeroed = R->FirstZeroTail != 0;
    R->FirstOffset = 0;
  } else {
    Page = carvePage(R, Zeroed);
    // A dirty normal page under ZeroMemory is cleared wholesale on
    // refill: one page-sized memset replaces the per-object memsets and
    // end-marker stores the fast path would otherwise issue.
    if (!Zeroed && Kind == PageKind::Normal && Cfg.ZeroMemory) {
      std::memset(Page + Offset, 0, kPageSize - Offset);
      Zeroed = true;
    }
  }
  Region::BumpList &List = Kind == PageKind::Str ? R->Str : R->Normal;
  *headerOf(Page) = {List.Head, Offset, Kind,
                     static_cast<std::uint16_t>(Zeroed ? kPageZeroTail : 0)};
  List.Head = Page;
  List.Offset = Offset;
  List.ZeroTail = Zeroed ? 1 : 0;
  if constexpr (detail::kRsanEnabled) {
    // The whole bump tail is out of bounds until allocated from; each
    // allocation unpoisons exactly its own extent. Str pages also need
    // the metadata-walk terminator that only normal pages kept before.
    RGN_ASAN_POISON(Page + Offset, kPageSize - Offset);
    if (!Zeroed)
      writeEndMarker(Page, Offset);
  } else if (Kind == PageKind::Normal && !Zeroed) {
    writeEndMarker(Page, Offset);
  }
  return Page;
}

Region *RegionManager::newRegion() {
  bool Zeroed = false;
  char *Page = static_cast<char *>(Source.allocPages(1, &Zeroed));

  // The region structure lives in its own first page, offset by
  // successive multiples of 64 bytes (up to 512) to spread region
  // structures across cache lines (§4.1). Every slot sits the same
  // distance past a line boundary, so one check pins the barrier line
  // (Region.h) for all of them.
  constexpr auto Line = [](std::size_t Off) {
    return (sizeof(PageHeader) + Off) / 64;
  };
  constexpr std::size_t BarrierLine = Line(offsetof(Region, RC));
  static_assert(Line(offsetof(Region, CountRefs)) == BarrierLine &&
                    Line(offsetof(Region, BarrierSameStores)) == BarrierLine &&
                    Line(offsetof(Region, BarrierOtherStores)) == BarrierLine &&
                    Line(offsetof(Region, BarrierAdjustments)) == BarrierLine,
                "RC, CountRefs and the barrier counters must share a line");
  std::uint32_t CacheOffset = 64 * (NextRegionId % 9);
  auto *R = ::new (Page + sizeof(PageHeader) + CacheOffset) Region();
  R->Mgr = this;
  R->Id = NextRegionId++;
  R->CountRefs = Cfg.RefCounts;
  // Both bump lists start empty. The rest of the page waits for the
  // first normal or str request that fits (newPage), so the page header
  // is written when a list adopts it; until then nothing walks the page.
  R->FirstOffset = static_cast<std::uint16_t>(
      sizeof(PageHeader) + CacheOffset + alignTo(sizeof(Region),
                                                 kDefaultAlignment));
  R->FirstZeroTail = Zeroed ? 1 : 0;
  if constexpr (detail::kRsanEnabled)
    RGN_ASAN_POISON(Page + R->FirstOffset, kPageSize - R->FirstOffset);
  setMapRange(Page, 1, R);
  // The region's own page is its first (single-page) run; the carve
  // cursor starts exhausted, so the next page grabs a fresh run.
  R->InlineRuns[0] = {static_cast<std::uint32_t>(Source.pageIndex(Page)), 1};
  R->NumRuns = 1;
  R->GrowthRuns = 1;
  rstat::traceEvent(rstat::EventKind::NewRegion, R->Id);
  rstat::traceEvent(rstat::EventKind::RunGrab, R->InlineRuns[0].PageIdx, 1);

  R->NextLive = LiveHead;
  if (LiveHead)
    LiveHead->PrevLive = R;
  LiveHead = R;

  ++Stats.TotalRegions;
  ++Stats.LiveRegions;
  if (Stats.LiveRegions > Stats.MaxLiveRegions)
    Stats.MaxLiveRegions = Stats.LiveRegions;
  return R;
}

void *RegionManager::allocRawSlow(Region *R, std::size_t Size, bool Zeroed) {
  std::size_t Payload = alignTo(Size, kDefaultAlignment);
  std::size_t Need = detail::kRsanObjOverhead + Payload;
  if (Payload < Size || Need > kPageSize - sizeof(PageHeader))
    return allocLarge(R, Size, nullptr, Zeroed);

  newPage(R, PageKind::Str, Need);
  Region::BumpList &B = R->Str;
  char *Base = B.Head + B.Offset;
  B.Offset += static_cast<std::uint32_t>(Need);
  if constexpr (detail::kRsanEnabled) {
    RGN_ASAN_UNPOISON(Base, Need);
    detail::rsanStampObject(Base, Size, Payload);
    if (!B.ZeroTail)
      writeEndMarker(B.Head, B.Offset);
  }
  char *Result = Base + detail::kRsanSizeHdr;
  if (Zeroed && !B.ZeroTail)
    std::memset(Result, 0, Payload);
  noteAlloc(R, Size);
  return Result;
}

void *RegionManager::allocScannedSlow(Region *R, std::size_t Size,
                                      ScanThunk Thunk) {
  std::size_t Payload = alignTo(Size, kDefaultAlignment);
  std::size_t Need = sizeof(ScanThunk) + detail::kRsanObjOverhead + Payload;
  if (Payload < Size || Need > kPageSize - sizeof(PageHeader))
    return allocLarge(R, Size, Thunk, false);

  newPage(R, PageKind::Normal, Need);
  Region::BumpList &B = R->Normal;
  char *Base = B.Head + B.Offset;
  RGN_ASAN_UNPOISON(Base, Need);
  *reinterpret_cast<ScanThunk *>(Base) = Thunk;
  detail::rsanStampObject(Base + sizeof(ScanThunk), Size, Payload);
  B.Offset += static_cast<std::uint32_t>(Need);
  char *Result = Base + sizeof(ScanThunk) + detail::kRsanSizeHdr;
  if (!B.ZeroTail) {
    writeEndMarker(B.Head, B.Offset);
    if (Cfg.ZeroMemory)
      std::memset(Result, 0, Payload);
  }
  noteAlloc(R, Size);
  return Result;
}

void *RegionManager::allocLarge(Region *R, std::size_t Size, ScanThunk Thunk,
                                bool Zeroed) {
  std::size_t Aligned = alignTo(Size, kDefaultAlignment);
  if (Aligned < Size ||
      Aligned > SIZE_MAX - detail::kLargePayloadOff - detail::kRsanRedZone -
                    kPageSize)
    reportFatalError("region allocation size overflows");
  std::size_t Total = detail::kLargePayloadOff + Aligned + detail::kRsanRedZone;
  std::size_t NumPages = alignTo(Total, kPageSize) / kPageSize;
  bool PagesZeroed = false;
  char *Block = nullptr;
  // rpool reservoir first: a region-per-request steady state re-
  // allocates the same large buffer every incarnation, so after a
  // reset an exact-fit retained run is the common case. Reuse skips
  // the source grab, the RunGrab trace, and the per-page map writes —
  // the run is already recorded and mapped; only the object headers
  // are rewritten. The hit run is swapped to the window's front so the
  // reserve window stays contiguous for carvePage.
  if (RGN_UNLIKELY(R->NextReserve < R->ReserveEnd)) {
    for (std::uint32_t I = R->NextReserve; I != R->ReserveEnd; ++I) {
      if (R->runAt(I).NumPages != NumPages)
        continue;
      detail::PageRun &Front = R->runAt(R->NextReserve);
      detail::PageRun Hit = R->runAt(I);
      R->runAt(I) = Front;
      Front = Hit;
      ++R->NextReserve;
      Block = Source.base() + std::size_t{Hit.PageIdx} * kPageSize;
      if constexpr (detail::kRsanEnabled)
        RGN_ASAN_UNPOISON(Block, NumPages * kPageSize);
      break;
    }
  }
  if (Block == nullptr) {
    Block = static_cast<char *>(Source.allocPages(NumPages, &PagesZeroed));
    recordRun(R, static_cast<std::uint32_t>(Source.pageIndex(Block)),
              static_cast<std::uint32_t>(NumPages));
    rstat::traceEvent(rstat::EventKind::RunGrab, Source.pageIndex(Block),
                      static_cast<std::uint32_t>(NumPages));
    setMapRange(Block, NumPages, R);
  }
  *headerOf(Block) = {R->LargeHead,
                      static_cast<std::uint32_t>(detail::kLargeThunkOff),
                      PageKind::Large, 0};
  R->LargeHead = Block;
  *reinterpret_cast<std::size_t *>(Block + detail::kLargeNumPagesOff) =
      NumPages;
  *reinterpret_cast<ScanThunk *>(Block + detail::kLargeThunkOff) = Thunk;
  detail::rsanStampObject(Block + detail::kLargeSizeOff, Size, Aligned);
  if ((Zeroed || (Thunk && Cfg.ZeroMemory)) && !PagesZeroed)
    std::memset(Block + detail::kLargePayloadOff, 0, Aligned);

  noteAlloc(R, Size);
  return Block + detail::kLargePayloadOff;
}

/// Adds one region's own counters into \p S: stats() folds each live
/// region, foldRetired each retiring incarnation.
static void foldCounters(RegionStats &S, const Region *R) {
  S.TotalAllocs += R->allocCount();
  S.TotalRequestedBytes += R->requestedBytes();
  S.BarrierStores += R->barrierStores();
  S.BarrierSameRegion += R->barrierSameRegion();
  S.BarrierAdjustments += R->barrierAdjustments();
  S.MaxRegionBytes =
      std::max<std::uint64_t>(S.MaxRegionBytes, R->requestedBytes());
}

RegionStats RegionManager::stats() const {
  RegionStats Agg = Stats;
  for (const Region *R = LiveHead; R; R = R->NextLive)
    foldCounters(Agg, R);
  // No write-back needed: live bytes only fall in foldRetired, which
  // samples the peak first.
  Agg.MaxLiveRequestedBytes =
      std::max(Agg.MaxLiveRequestedBytes, Agg.LiveRequestedBytes);
  return Agg;
}

void RegionManager::runCleanups(Region *R) {
  std::uint64_t ThunksRun = 0;
  // Normal pages: walk object headers until the NULL marker (Figure 7).
  // Hardened objects interleave a size header and a red zone with the
  // thunk/payload pair; both constants are zero when hardening is off.
  for (char *Page = R->Normal.Head; Page; Page = headerOf(Page)->Next) {
    // The region is dying: lift the page's ASan protection wholesale so
    // the walk can read the terminator in a never-allocated tail.
    RGN_ASAN_UNPOISON(Page, kPageSize);
    std::uint32_t Off = headerOf(Page)->ScanStart;
    while (Off + sizeof(ScanThunk) <= kPageSize) {
      ScanThunk Thunk = *reinterpret_cast<ScanThunk *>(Page + Off);
      if (!Thunk)
        break;
      Off += static_cast<std::uint32_t>(sizeof(ScanThunk) +
                                        detail::kRsanSizeHdr);
      std::size_t Used = Thunk(Page + Off);
      // rsanValidate has already checked the size header. The walk
      // advances by the thunk's answer, so a thunk that disagrees with
      // the header would send it through payload and red-zone bytes.
      if constexpr (detail::kRsanEnabled) {
        if (Used != detail::rsanTaggedSize(*reinterpret_cast<std::size_t *>(
                        Page + Off - detail::kRsanSizeHdr)))
          reportFatalError("rsan: cleanup thunk returned a size other than "
                           "its object's (the scan would lose its place)");
      }
      ++ThunksRun;
      Off += static_cast<std::uint32_t>(alignTo(Used, kDefaultAlignment) +
                                        detail::kRsanRedZone);
    }
  }
  // Large objects carry a single optional thunk each.
  for (char *Block = R->LargeHead; Block; Block = headerOf(Block)->Next) {
    ScanThunk Thunk =
        *reinterpret_cast<ScanThunk *>(Block + detail::kLargeThunkOff);
    if (!Thunk)
      continue;
    Thunk(Block + detail::kLargePayloadOff);
    ++ThunksRun;
  }
  Stats.CleanupThunksRun += ThunksRun;
}

void RegionManager::foldRetired(const Region *R) {
  // Live bytes only ever fall here, so sampling the watermark just
  // before the drop observes every peak exactly.
  Stats.MaxLiveRequestedBytes =
      std::max(Stats.MaxLiveRequestedBytes, Stats.LiveRequestedBytes);
  Stats.LiveRequestedBytes -= R->ReqBytes;
  foldCounters(Stats, R);
  // rstat histograms: the region's final size class, and its lifetime
  // on the region-creation logical clock (siblings created since its
  // birth; ≥1 because its own creation ticked the clock).
  ++DeadSizeClasses[detail::metricsBucket(R->ReqBytes)];
  ++DeadLifetimes[detail::metricsBucket(NextRegionId - R->Id)];
}

std::size_t RegionManager::freeRegionMemory(Region *R) {
  --Stats.LiveRegions;
  if (R->PrevLive)
    R->PrevLive->NextLive = R->NextLive;
  else
    LiveHead = R->NextLive;
  if (R->NextLive)
    R->NextLive->PrevLive = R->PrevLive;

  // O(runs) teardown: no page chain is walked — the run table already
  // names every page this region owns (growth runs and large-object
  // runs alike). Copy it out first: R itself lives in the first run's
  // first page, which the loop frees (and hardened builds poison).
  detail::PageRun Runs[Region::kInlineRuns];
  std::memcpy(Runs, R->InlineRuns, sizeof(Runs));
  detail::PageRun *Overflow = R->OverflowRuns;
  std::uint32_t NumRuns = R->NumRuns;

  char *Base = Source.base();
  std::size_t PagesFreed = 0;
  for (std::uint32_t I = 0; I != NumRuns; ++I) {
    detail::PageRun Run =
        I < Region::kInlineRuns ? Runs[I] : Overflow[I - Region::kInlineRuns];
    std::fill(Map + Run.PageIdx, Map + Run.PageIdx + Run.NumPages,
              static_cast<Region *>(nullptr));
    rstat::traceEvent(rstat::EventKind::RunFree, Run.PageIdx, Run.NumPages);
    Source.freePages(Base + std::size_t{Run.PageIdx} * kPageSize,
                     Run.NumPages);
    PagesFreed += Run.NumPages;
  }
  std::free(Overflow);
  return PagesFreed;
}

bool RegionManager::checkAndFinalize(Region *R, void **HandleSlot,
                                     bool HandleCounted,
                                     const rt::SlotNode *HandleNode,
                                     bool Reset) {
  if constexpr (detail::kRsanEnabled) {
    // Diagnose a stale handle *before* any member access: a deleted (or
    // trimmed) region's storage is quarantined poison by now, and the
    // page map no longer (or no longer exclusively) maps it back to R.
    if (!R || regionOf(static_cast<const void *>(R)) != R)
      reportFatalError("rsan: deleteregion/resetregion on a region that is "
                       "not live (double delete, or a stale/corrupted "
                       "handle)");
  }
  assert(R && R->Mgr == this && "retiring a foreign or null region");
  // A shared region's record holds counted references owned by other
  // threads. ParallelSpace::tryDelete clears the binding (after proving
  // the summed per-thread counts are zero) before it calls back in
  // here; any other retirement would leave the record's R pointer and
  // the binding dangling into recycled pages. Fatal in every build.
  if (RGN_UNLIKELY(R->sharedBinding() != nullptr))
    reportFatalError("deleteregion/resetregion on a shared region: retire "
                     "it through ParallelSpace::tryDelete");

  if (Cfg.StackScan)
    rt::RuntimeStack::current().scanForDelete();

  if (Cfg.RefCounts || Cfg.StackScan) {
    // The handle being deleted (the paper's *x) is excepted from the
    // external-reference rule. Work out whether it contributed to RC.
    long long HandleContribution = 0;
    if (HandleCounted) {
      HandleContribution = Cfg.RefCounts ? 1 : 0;
    } else if (HandleNode && Cfg.StackScan) {
      // A registered local handle: counted iff its frame is scanned.
      if (rt::RuntimeStack::nodeScanned(HandleNode))
        HandleContribution = 1;
    }
    std::size_t TopRefs =
        Cfg.StackScan
            ? rt::RuntimeStack::current().countTopFrameRefsTo(R, HandleSlot)
            : 0;
    if (R->RC != HandleContribution || TopRefs != 0) {
      ++(Reset ? Stats.ResetRefusals : Stats.DeleteFailures);
      rstat::traceEvent(Reset ? rstat::EventKind::ResetRegionFail
                              : rstat::EventKind::DeleteRegionFail,
                        R->Id,
                        static_cast<std::uint32_t>(
                            R->RC < 0 ? 0 : R->RC + TopRefs));
      return false;
    }
  }

  // Retirement will go ahead: check every allocation's red zone and
  // size header while the metadata is still reachable. Violations are
  // fatal — retiring the region would destroy the evidence.
  if constexpr (detail::kRsanEnabled)
    rsanValidate(R, /*FatalOnViolation=*/true);

  // The Figure 7 walk only matters for what it undoes. A region with no
  // finalizer and no out-reference holds only thunks whose RegionPtr
  // destroys are sameregion or uncounted no-ops, so skip it.
  if (Cfg.CleanupScan) {
    if (R->MayFinalize || R->outRefs() != 0)
      runCleanups(R);
    else
      ++Stats.CleanupScansSkipped;
  }
  return true;
}

bool RegionManager::deleteRegionImpl(Region *R, void **HandleSlot,
                                     bool HandleCounted,
                                     const rt::SlotNode *HandleNode) {
  ++Stats.DeleteAttempts;
  if (!checkAndFinalize(R, HandleSlot, HandleCounted, HandleNode,
                        /*Reset=*/false))
    return false;
  if (HandleSlot)
    *HandleSlot = nullptr; // cleared without barrier: the count dies with R
  foldRetired(R);
  std::uint64_t Id = R->Id; // R's storage is gone after the free
  std::size_t PagesFreed = freeRegionMemory(R);
  rstat::traceEvent(rstat::EventKind::DeleteRegionOk, Id,
                    static_cast<std::uint32_t>(PagesFreed));
  return true;
}

bool RegionManager::resetRegion(Region *R) {
  // No handle exception: the caller's own handle survives the reset.
  if (!checkAndFinalize(R, nullptr, false, nullptr, /*Reset=*/true))
    return false;
  // One logical region ends and another begins in the same storage:
  // the retiring incarnation folds exactly as a deletion's would, and
  // the region stays live and listed.
  foldRetired(R);

  // Every run is retained — growth runs and large-object runs alike;
  // nothing goes back to the source and every page-map entry stays.
  // Large runs are kept deliberately: a region-per-request steady state
  // reallocates the same large buffer next incarnation, and allocLarge
  // serves it from the reservoir on exact fit (odd-sized leftovers are
  // still consumed page-wise by carvePage). Retention is bounded by the
  // pool's page budget, not here.
  char *Base = Source.base();
  std::size_t PagesRetained = R->ownedPages();

  // The retained runs become the re-carve reservoir: carvePage (and
  // exact-fit allocLarge) hand their pages back out before touching the
  // PageSource. Run 0 is the region's own page, unadopted again below.
  R->RunCursor = 0;
  R->RunEnd = 0;
  R->NextReserve = 1;
  R->ReserveEnd = R->NumRuns;
  if constexpr (detail::kRsanEnabled) {
    // Poison every reservoir page wholesale: a stale pointer into the
    // previous incarnation now reads 0xD5 (and traps under ASan) until
    // carvePage or allocLarge legitimately reissues the page.
    for (std::uint32_t I = 1; I != R->NumRuns; ++I) {
      detail::PageRun Run = R->runAt(I);
      char *RunBase = Base + std::size_t{Run.PageIdx} * kPageSize;
      std::size_t RunBytes = std::size_t{Run.NumPages} * kPageSize;
      RGN_ASAN_UNPOISON(RunBase, RunBytes);
      std::memset(RunBase, detail::kRsanQuarantinePoison, RunBytes);
      RGN_ASAN_POISON(RunBase, RunBytes);
    }
  }

  // The first page's remainder past the surviving region structure
  // (same address: every raw Region* handle stays valid) goes back to
  // its unadopted state, dirty, as newRegion leaves a recycled first
  // page: whichever list adopts it writes its header and end marker.
  char *Page = Base + std::size_t{R->InlineRuns[0].PageIdx} * kPageSize;
  auto Offset = static_cast<std::uint16_t>(
      (reinterpret_cast<char *>(R) - Page) +
      alignTo(sizeof(Region), kDefaultAlignment));
  if constexpr (detail::kRsanEnabled) {
    RGN_ASAN_UNPOISON(Page, kPageSize);
    std::memset(Page + Offset, detail::kRsanQuarantinePoison,
                kPageSize - Offset);
    RGN_ASAN_POISON(Page + Offset, kPageSize - Offset);
  }
  R->FirstOffset = Offset;
  R->FirstZeroTail = 0;

  R->RC = 0; // proven zero when counting; restores fresh state otherwise
  // OutRefs is zero after a cleanup scan. Without one (CleanupScan off)
  // the references stay in their targets' counts, as on deletion, and
  // the new incarnation holds none of them.
  R->OutRefs.store(0, std::memory_order_relaxed);
  R->MayFinalize = false;
  R->Normal = {};
  R->Str = {};
  R->LargeHead = nullptr;
  R->NumAllocs = 0;
  R->ReqBytes = 0;
  R->BarrierSameStores = 0;
  R->BarrierOtherStores = 0;
  R->BarrierAdjustments = 0;

  // The logical-id bump: rstat lifetime histograms and id()-keyed
  // consumers see a brand-new region from here on.
  std::uint64_t OldId = R->Id;
  R->Id = NextRegionId++;
  ++Stats.TotalRegions;
  ++Stats.ResetRegions;
  rstat::traceEvent(rstat::EventKind::ResetRegion, OldId,
                    static_cast<std::uint32_t>(PagesRetained));
  return true;
}

RsanReport RegionManager::rsanValidate(const Region *R,
                                       bool FatalOnViolation) const {
  RsanReport Rep;
#if !RGN_HARDEN_ENABLED
  (void)R;
  (void)FatalOnViolation;
#else
  Rep.Checked = true;
  // Probing a live region (non-fatal mode) must leave the ASan poison
  // state as it found it; in fatal mode the caller is deleteregion and
  // the pages are about to be freed, which unpoisons them anyway.
  const bool Restore = !FatalOnViolation;

  // Validates one object's tagged size header and red-zone canary.
  // \p Hdr points at the size header, \p Limit is the space left in the
  // enclosing page run. Returns the bytes to advance past \p Hdr, or 0
  // when the metadata is too corrupt to continue the walk.
  auto CheckObject = [&](const char *Hdr, std::size_t Limit) -> std::size_t {
    std::size_t Word = *reinterpret_cast<const std::size_t *>(Hdr);
    std::size_t Size = detail::rsanTaggedSize(Word);
    std::size_t Payload = alignTo(Size, kDefaultAlignment);
    std::size_t Need = detail::kRsanSizeHdr + Payload + detail::kRsanRedZone;
    if (!detail::rsanTagValid(Word) || Payload < Size || Need > Limit) {
      ++Rep.MetadataViolations;
      if (FatalOnViolation)
        reportFatalError("rsan: allocation size header corrupted "
                         "(wild write, or overflow into object metadata)");
      return 0;
    }
    const char *RedZone = Hdr + detail::kRsanSizeHdr + Payload;
    RGN_ASAN_UNPOISON(RedZone, detail::kRsanRedZone);
    bool Intact = true;
    for (std::size_t I = 0; I != detail::kRsanRedZone; ++I)
      Intact &= static_cast<unsigned char>(RedZone[I]) ==
                detail::kRsanRedZoneCanary;
    if (Restore)
      RGN_ASAN_POISON(RedZone, detail::kRsanRedZone);
    if (!Intact) {
      ++Rep.RedZoneViolations;
      if (FatalOnViolation)
        reportFatalError("rsan: red-zone canary overwritten "
                         "(buffer overflow past the end of an allocation)");
    }
    ++Rep.ObjectsChecked;
    return Need;
  };

  // Normal pages: [thunk][size hdr][payload][red zone] repeating until
  // the NULL thunk marker (or the zero tail standing in for it).
  for (char *Page = R->Normal.Head; Page; Page = headerOf(Page)->Next) {
    RGN_ASAN_UNPOISON(Page, kPageSize);
    std::uint32_t Off = headerOf(Page)->ScanStart;
    while (Off + sizeof(ScanThunk) <= kPageSize) {
      ScanThunk Thunk = *reinterpret_cast<ScanThunk *>(Page + Off);
      if (!Thunk)
        break;
      Off += static_cast<std::uint32_t>(sizeof(ScanThunk));
      std::size_t Adv = CheckObject(Page + Off, kPageSize - Off);
      if (!Adv)
        break;
      Off += static_cast<std::uint32_t>(Adv);
    }
    if (Restore)
      RGN_ASAN_POISON(Page + Off, kPageSize - Off);
  }

  // Str pages: headerless in the lean build, but hardened objects still
  // carry [size hdr][payload][red zone]; a zero word terminates (a
  // valid header is never zero thanks to the tag bit).
  for (char *Page = R->Str.Head; Page; Page = headerOf(Page)->Next) {
    RGN_ASAN_UNPOISON(Page, kPageSize);
    std::uint32_t Off = headerOf(Page)->ScanStart;
    while (Off + detail::kRsanSizeHdr <= kPageSize) {
      if (*reinterpret_cast<const std::size_t *>(Page + Off) == 0)
        break;
      std::size_t Adv = CheckObject(Page + Off, kPageSize - Off);
      if (!Adv)
        break;
      Off += static_cast<std::uint32_t>(Adv);
    }
    if (Restore)
      RGN_ASAN_POISON(Page + Off, kPageSize - Off);
  }

  // Large blocks: exactly one hardened object each.
  for (char *Block = R->LargeHead; Block; Block = headerOf(Block)->Next) {
    std::size_t NumPages =
        *reinterpret_cast<const std::size_t *>(Block + detail::kLargeNumPagesOff);
    CheckObject(Block + detail::kLargeSizeOff,
                NumPages * kPageSize - detail::kLargeSizeOff);
  }
#endif
  return Rep;
}

char *regions::rstrdup(Region *R, const char *S) {
  return rstrndup(R, S, std::strlen(S));
}

char *regions::rstrndup(Region *R, const char *Data, std::size_t Len) {
  char *Copy = static_cast<char *>(R->manager().allocRaw(R, Len + 1));
  std::memcpy(Copy, Data, Len);
  Copy[Len] = '\0';
  return Copy;
}
