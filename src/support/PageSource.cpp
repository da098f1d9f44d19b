//===- support/PageSource.cpp - Reserved-arena page provider -------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/PageSource.h"
#include "support/Compiler.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sys/mman.h>

using namespace regions;

PageSource::PageSource(std::size_t ReserveBytes, char *Placement)
    : Placed(Placement != nullptr) {
  TotalPages = alignTo(ReserveBytes, kPageSize) / kPageSize;
  // A placement is replaced by fresh pages, so the zero-state below
  // holds whatever the range held before.
  void *Mem = mmap(Placement, TotalPages * kPageSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                       (Placed ? MAP_FIXED : 0),
                   -1, 0);
  if (Mem == MAP_FAILED)
    reportFatalError("PageSource: cannot reserve arena");
  ArenaBase = static_cast<char *>(Mem);
}

PageSource::~PageSource() {
  // ASan's shadow is not cleared by munmap or mmap: a later mapping
  // of this address range would inherit the quarantine/red-zone poison
  // and trap on its first legitimate access. Clear the whole arena's
  // shadow before giving the range up.
  RGN_ASAN_UNPOISON(ArenaBase, TotalPages * kPageSize);
  if (!Placed) {
    munmap(ArenaBase, TotalPages * kPageSize);
    return;
  }
  // A placed range stays reserved for its owner: it reverts to
  // PROT_NONE, so a stale dereference faults as after munmap, and no
  // other mapping can land in it.
  if (mmap(ArenaBase, TotalPages * kPageSize, PROT_NONE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1,
           0) == MAP_FAILED)
    reportFatalError("PageSource: cannot re-protect a placed arena");
}

void *PageSource::allocPages(std::size_t NumPages, bool *Zeroed) {
  assert(NumPages > 0 && "cannot allocate an empty page run");
  PagesInUse += NumPages;
  if (Zeroed)
    *Zeroed = false; // recycled paths below hand out dirty pages

  // Exact-size bin (LIFO: the most recently freed run is the warmest).
  if (NumPages <= kMaxBin && !Bins[NumPages].empty()) {
    std::uint32_t Idx = Bins[NumPages].back();
    Bins[NumPages].pop_back();
    return pageAt(Idx);
  }
  return allocPagesSlow(NumPages, Zeroed);
}

void *PageSource::allocPagesSlow(std::size_t NumPages, bool *Zeroed) {
  if (void *P = takeFromLists(NumPages))
    return P;

  // The listed runs are individually too small. If they hold enough
  // pages in total, one coalescing sweep may re-form a run that fits —
  // cheaper than growing the frontier (which inflates the Figure-8
  // number for good) and the only way chunked frees reassemble.
  // PagesInUse already counts this pending request, so back it out.
  std::size_t FreeListed =
      Frontier - (PagesInUse - NumPages) - NumQuarantinedPages;
  if (CoalesceDirty && FreeListed >= NumPages) {
    coalesceFreeRuns();
    if (void *P = takeFromLists(NumPages))
      return P;
  }

  // A free run ending exactly at the frontier can seed the allocation:
  // only the shortfall is new frontier growth. The recycled prefix is
  // dirty, so the combined run cannot claim the zero-state.
  Run Tail;
  if (takeRunEndingAtFrontier(Tail) &&
      Frontier + (NumPages - Tail.NumPages) <= TotalPages) {
    Frontier += NumPages - Tail.NumPages;
    if (Frontier > ZeroHighWater)
      ZeroHighWater = Frontier;
    return pageAt(Tail.PageIdx);
  }

  // Grow the frontier. Pages past the all-time high-water mark were
  // never handed out, so MAP_ANONYMOUS still guarantees them zeroed.
  if (Frontier + NumPages > TotalPages)
    reportFatalError("PageSource: arena exhausted; raise the reserve size");
  std::size_t Idx = Frontier;
  Frontier += NumPages;
  if (Zeroed)
    *Zeroed = Idx >= ZeroHighWater;
  if (Frontier > ZeroHighWater)
    ZeroHighWater = Frontier;
  return pageAt(Idx);
}

void *PageSource::takeFromLists(std::size_t NumPages) {
  if (NumPages <= kMaxBin) {
    // Exact bin (re-checked here because the coalescing sweep rebins).
    if (!Bins[NumPages].empty()) {
      std::uint32_t Idx = Bins[NumPages].back();
      Bins[NumPages].pop_back();
      return pageAt(Idx);
    }
    // Best-fit split of the smallest larger bin; the remainder is a
    // bin-sized run again, so it rebins exactly — no fragmentation
    // accumulates in the bin range.
    for (std::size_t N = NumPages + 1; N <= kMaxBin; ++N) {
      if (Bins[N].empty())
        continue;
      std::uint32_t Idx = Bins[N].back();
      Bins[N].pop_back();
      std::size_t Rest = N - NumPages;
      Bins[Rest].push_back(Idx + static_cast<std::uint32_t>(NumPages));
      return pageAt(Idx);
    }
  }

  // First-fit in the large-run list; remainders rebin into an exact bin
  // when they fit instead of lingering as under-sized "large" runs.
  for (std::size_t I = 0, E = LargeRuns.size(); I != E; ++I) {
    Run &R = LargeRuns[I];
    if (R.NumPages < NumPages)
      continue;
    std::uint32_t Idx = R.PageIdx;
    std::uint32_t Rest = R.NumPages - static_cast<std::uint32_t>(NumPages);
    if (Rest == 0) {
      LargeRuns[I] = LargeRuns.back();
      LargeRuns.pop_back();
    } else {
      R.PageIdx += static_cast<std::uint32_t>(NumPages);
      R.NumPages = Rest;
      if (Rest <= kMaxBin) {
        Bins[Rest].push_back(R.PageIdx);
        LargeRuns[I] = LargeRuns.back();
        LargeRuns.pop_back();
      }
    }
    return pageAt(Idx);
  }
  return nullptr;
}

bool PageSource::takeRunEndingAtFrontier(Run &Out) {
  const auto End = static_cast<std::uint32_t>(Frontier);
  for (std::size_t N = 1; N <= kMaxBin; ++N) {
    for (std::size_t I = 0, E = Bins[N].size(); I != E; ++I) {
      if (Bins[N][I] + N == End) {
        Out = {Bins[N][I], static_cast<std::uint32_t>(N)};
        Bins[N][I] = Bins[N].back();
        Bins[N].pop_back();
        return true;
      }
    }
  }
  for (std::size_t I = 0, E = LargeRuns.size(); I != E; ++I) {
    if (LargeRuns[I].PageIdx + LargeRuns[I].NumPages == End) {
      Out = LargeRuns[I];
      LargeRuns[I] = LargeRuns.back();
      LargeRuns.pop_back();
      return true;
    }
  }
  return false;
}

void PageSource::coalesceFreeRuns() {
  ++NumCoalesceSweeps;
  // Gather every listed run, merge adjacent ones, redistribute. O(free
  // runs · log) per sweep, and a sweep only runs when an allocation
  // would otherwise grow the frontier past reusable space — the
  // per-free fast path stays one push.
  std::vector<Run> All;
  All.reserve(LargeRuns.size() + 16);
  for (std::size_t N = 1; N <= kMaxBin; ++N) {
    for (std::uint32_t Idx : Bins[N])
      All.push_back({Idx, static_cast<std::uint32_t>(N)});
    Bins[N].clear();
  }
  for (const Run &R : LargeRuns)
    All.push_back(R);
  LargeRuns.clear();

  std::sort(All.begin(), All.end(),
            [](const Run &A, const Run &B) { return A.PageIdx < B.PageIdx; });

  std::size_t RunsAfter = 0;
  for (std::size_t I = 0, E = All.size(); I != E;) {
    Run Merged = All[I++];
    while (I != E && All[I].PageIdx == Merged.PageIdx + Merged.NumPages) {
      Merged.NumPages += All[I].NumPages;
      ++I;
    }
    recycleRun(Merged.PageIdx, Merged.NumPages);
    ++RunsAfter;
  }
  CoalesceDirty = false; // recycleRun above re-set it; everything merged
  rstat::traceEvent(rstat::EventKind::CoalesceSweep, All.size(),
                    static_cast<std::uint32_t>(RunsAfter));
}

void PageSource::freePages(void *Ptr, std::size_t NumPages) {
  assert(NumPages > 0 && "cannot free an empty page run");
  assert(containsHandedOut(Ptr) &&
         "pointer was never handed out by this PageSource");
  assert(isAligned(Ptr, kPageSize) && "page run must be page-aligned");
  assert(PagesInUse >= NumPages && "freeing more pages than allocated");
  PagesInUse -= NumPages;

  auto Idx = static_cast<std::uint32_t>(pageIndex(Ptr));
  if constexpr (detail::kRsanEnabled) {
    // Region pages come back with ASan-poisoned red zones and bump
    // tails; shed that state here so the run re-enters circulation
    // uniformly poisoned (quarantine) or plainly dirty (free lists).
    RGN_ASAN_UNPOISON(Ptr, NumPages * kPageSize);
    if (QuarantineBudget != 0) {
      quarantineRun(Idx, NumPages);
      return;
    }
  }
  recycleRun(Idx, NumPages);
}

void PageSource::recycleRun(std::uint32_t PageIdx, std::size_t NumPages) {
  CoalesceDirty = true;
  if (NumPages <= kMaxBin) {
    Bins[NumPages].push_back(PageIdx);
    return;
  }
  LargeRuns.push_back({PageIdx, static_cast<std::uint32_t>(NumPages)});
}

void PageSource::quarantineRun(std::uint32_t PageIdx, std::size_t NumPages) {
  // Poison first, then protect: every byte of a quarantined run reads
  // as 0xD5, and under ASan any touch is reported at the faulting
  // instruction. Poisoning writes to the page, but every freed page was
  // handed out before and so already sits below ZeroHighWater — the
  // never-touched zero-state can never be claimed for it again.
  assert(static_cast<std::size_t>(PageIdx) + NumPages <= ZeroHighWater &&
         "quarantining a page that was never handed out");
  std::memset(pageAt(PageIdx), detail::kRsanQuarantinePoison,
              NumPages * kPageSize);
  RGN_ASAN_POISON(pageAt(PageIdx), NumPages * kPageSize);
  Quarantine.push_back({PageIdx, static_cast<std::uint32_t>(NumPages)});
  NumQuarantinedPages += NumPages;
  while (NumQuarantinedPages > QuarantineBudget)
    evictOldestQuarantined();
}

void PageSource::evictOldestQuarantined() {
  assert(QuarantineHead < Quarantine.size() && "quarantine is empty");
  Run R = Quarantine[QuarantineHead++];
  NumQuarantinedPages -= R.NumPages;
  ++NumQuarantineEvictions;
  rstat::traceEvent(rstat::EventKind::QuarantineEvict, R.PageIdx, R.NumPages);
  // The 0xD5 bytes stay — the page is merely dirty, and every recycled
  // path reports dirty pages as non-zero — but the ASan protection must
  // lift before the next owner touches it.
  RGN_ASAN_UNPOISON(pageAt(R.PageIdx), R.NumPages * kPageSize);
  recycleRun(R.PageIdx, R.NumPages);
  // Compact once the dead prefix dominates the live tail.
  if (QuarantineHead >= 64 && QuarantineHead * 2 >= Quarantine.size()) {
    Quarantine.erase(Quarantine.begin(),
                     Quarantine.begin() +
                         static_cast<std::ptrdiff_t>(QuarantineHead));
    QuarantineHead = 0;
  }
}

void PageSource::setQuarantineBudget(std::size_t Pages) {
  QuarantineBudget = Pages;
  while (NumQuarantinedPages > QuarantineBudget)
    evictOldestQuarantined();
}

void PageSource::drainQuarantine() {
  while (NumQuarantinedPages != 0)
    evictOldestQuarantined();
}

void PageSource::resetForTesting() {
  // ZeroHighWater deliberately survives: resetting rewinds the
  // bookkeeping, not the contents already written to the arena.
  Frontier = 0;
  PagesInUse = 0;
  CoalesceDirty = false;
  for (auto &Bin : Bins)
    Bin.clear();
  LargeRuns.clear();
  // Quarantined runs rejoin the (reset) arena; lift their ASan
  // protection so the rewound frontier can hand them out again.
  for (std::size_t I = QuarantineHead, E = Quarantine.size(); I != E; ++I)
    RGN_ASAN_UNPOISON(pageAt(Quarantine[I].PageIdx),
                      Quarantine[I].NumPages * kPageSize);
  Quarantine.clear();
  QuarantineHead = 0;
  NumQuarantinedPages = 0;
  NumCoalesceSweeps = 0;
  NumQuarantineEvictions = 0;
}
