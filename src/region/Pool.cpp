//===- region/Pool.cpp - rpool: recycled-region caches --------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "region/Pool.h"

#include <cassert>

using namespace regions;

Region *RegionPool::acquireSlow() {
  ++Mgr.poolStatsMutable().Misses;
  Region *R = Mgr.newRegion();
  rstat::traceEvent(rstat::EventKind::PoolAcquire, R->id(), 0);
  return R;
}

void RegionPool::park(Region *R) {
  // The reset already ran: R is empty, unreferenced, and still owns its
  // reservoir runs.
  std::size_t Pages = R->ownedPages();
  if (RGN_UNLIKELY(Cfg.MaxRegions == 0 || Pages > Cfg.MaxRetainedPages)) {
    // Can never fit, even into an empty cache: return it to the source
    // outright — before evicting anything, so an oversized release
    // cannot flush warm entries it was never going to displace. No
    // pool-trim trace — the region was never parked, so the
    // pooled-regions counter track must not tick down.
    ++Mgr.poolStatsMutable().Trims;
    bool Freed = Mgr.deleteRegionRaw(R);
    assert(Freed && "an empty, unreferenced region must delete");
    (void)Freed;
    return;
  }
  // Make room under both bounds by evicting the oldest (coldest)
  // entries; the newcomer's pages are the warmest in cache.
  while (!Cache.empty() && (Cache.size() >= Cfg.MaxRegions ||
                            RetainedPages + Pages > Cfg.MaxRetainedPages))
    trimFront();
  Cache.push_back({R, static_cast<std::uint32_t>(Pages)});
  RetainedPages += Pages;
  ++Mgr.poolStatsMutable().Releases;
  rstat::traceEvent(rstat::EventKind::PoolRelease, R->id(),
                    static_cast<std::uint32_t>(Pages));
}

void RegionPool::trimFront() {
  Entry E = Cache.front();
  Cache.erase(Cache.begin());
  RetainedPages -= E.Pages;
  ++Mgr.poolStatsMutable().Trims;
  rstat::traceEvent(rstat::EventKind::PoolTrim, E.R->id(), E.Pages);
  // Whole-run return: freeRegionMemory walks the run table, so the
  // PageSource sees each retained run intact and coalescer-friendly.
  bool Freed = Mgr.deleteRegionRaw(E.R);
  assert(Freed && "a pooled region must delete cleanly");
  (void)Freed;
}

void RegionPool::trimAll() {
  while (!Cache.empty())
    trimFront();
}
