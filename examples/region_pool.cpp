//===- examples/region_pool.cpp - rpool region-per-request serving -------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Region-per-request serving with rpool: each simulated request gets a
// private region, allocates its parse scratch into it, and retires the
// whole footprint in one call. Instead of deleteRegion + newRegion per
// request, the worker releases the region into a RegionPool — an
// in-place reset that keeps the region's pages as a re-carve reservoir
// — and the next acquire() hands the same warm region back without any
// PageSource traffic. The pool counters printed at the end show the
// steady state: one miss (the first request), hits for every request
// after it.
//
//===----------------------------------------------------------------------===//

#include "region/Metrics.h"
#include "region/Pool.h"
#include "region/Regions.h"

#include <cstdio>

using namespace regions;

namespace {

/// One simulated request: a handful of header-sized strings plus an
/// 8 KiB body buffer, all region-allocated, nothing freed piecemeal.
void serveRequest(RegionManager &Mgr, Region *R, unsigned Id) {
  char *Line = static_cast<char *>(Mgr.allocRaw(R, 64));
  std::snprintf(Line, 64, "GET /item/%u HTTP/1.1", Id);
  for (int Header = 0; Header != 4; ++Header)
    Mgr.allocRaw(R, 64);
  Mgr.allocRaw(R, 8192); // body I/O bucket
}

} // namespace

int main() {
  std::printf("region-per-request serving with rpool\n\n");
  RegionManager Mgr; // safe regions
  RegionPool Pool{Mgr};

  constexpr unsigned kRequests = 10000;
  std::size_t OsBytesAfterWarmup = 0;
  for (unsigned Id = 0; Id != kRequests; ++Id) {
    Region *R = Pool.acquire();
    serveRequest(Mgr, R, Id);
    if (!Pool.release(R)) {
      // Only possible with live external references into R — a bug in
      // a request handler; fall back to keeping the region alive.
      std::fprintf(stderr, "request %u leaked references\n", Id);
      return 1;
    }
    if (Id == 0)
      OsBytesAfterWarmup = Mgr.osBytes();
  }

  RegionStats S = Mgr.stats();
  PoolStats P = Mgr.metrics().Pool;
  std::printf("requests served      %u\n", kRequests);
  std::printf("pool hits / misses   %llu / %llu\n",
              static_cast<unsigned long long>(P.Hits),
              static_cast<unsigned long long>(P.Misses));
  std::printf("in-place resets      %llu\n",
              static_cast<unsigned long long>(S.ResetRegions));
  std::printf("os bytes, warm vs end  %zu vs %zu (%s)\n",
              OsBytesAfterWarmup, Mgr.osBytes(),
              Mgr.osBytes() == OsBytesAfterWarmup ? "flat" : "grew");
  return 0;
}
