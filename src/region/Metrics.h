//===- region/Metrics.h - rstat metrics snapshots & heap dumps -*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of **rstat**: a point-in-time snapshot of one
/// RegionManager's observable state — the paper's Table 2/3 counters,
/// the PageSource's frontier/free-list/quarantine bookkeeping, and
/// region-granularity size-class and lifetime histograms — exported as
/// JSON or as a human table, plus a heap introspection dump that walks
/// live regions → page runs → pages for debugging refused deletions.
///
/// Zero-cost off by construction: everything here is computed from
/// state the library already maintains, or maintained on region
/// creation/deletion (cold paths). The allocation and write-barrier
/// fast paths contribute nothing and are bit-identical whether or not
/// any snapshot is ever taken — the histograms are *over regions*, not
/// over allocations, precisely so no per-allocation counter is needed.
///
//===----------------------------------------------------------------------===//

#ifndef REGION_METRICS_H
#define REGION_METRICS_H

#include "region/Region.h"

#include <cstdio>

namespace regions {

/// Everything rstat knows about one manager at one instant. The
/// RegionStats member carries exactly the values stats() reports (the
/// snapshot is taken through stats(), so the two can never drift).
struct MetricsSnapshot {
  static constexpr unsigned kLogBuckets = detail::kMetricsLogBuckets;

  /// Aggregated manager counters — identical to RegionManager::stats().
  RegionStats Stats;

  /// rpool activity: every RegionPool over this manager, summed
  /// (region/Pool.h). This snapshot is the only read surface for it.
  PoolStats Pool;

  // PageSource state (Figure 8's OS-level view plus the free-list and
  // quarantine internals PR 4/6 added).
  std::uint64_t OsBytes = 0;        ///< frontier high-water mark, bytes
  std::uint64_t InUseBytes = 0;     ///< currently handed out, bytes
  std::uint64_t ReservedPages = 0;  ///< arena size
  std::uint64_t FrontierPages = 0;  ///< pages ever handed out
  std::uint64_t FreeListedPages = 0;///< recyclable without frontier growth
  std::uint64_t QuarantinedPages = 0;
  std::uint64_t CoalesceSweeps = 0; ///< deferred-coalescing sweeps run
  std::uint64_t QuarantineEvictions = 0;

  /// Regions by size class: bucket 0 holds empty regions, bucket n≥1
  /// regions whose requested bytes lie in [2^(n-1), 2^n). Covers every
  /// region ever observed: deleted regions at their final size, live
  /// regions at their current size.
  std::uint64_t RegionSizeClasses[kLogBuckets] = {};

  /// Live regions only, same bucketing (the "max live" shape of
  /// Table 2, resolved per size class).
  std::uint64_t LiveRegionSizeClasses[kLogBuckets] = {};

  /// Deleted regions by lifetime, measured on the region-creation
  /// logical clock: a region's lifetime is the number of regions the
  /// manager created between its birth and its deletion (1 = deleted
  /// before any sibling appeared). Log2 bucketing as above. A logical
  /// clock keeps region creation free of timer syscalls — the same
  /// trade Phan et al.'s Mercury profiler makes for region decisions.
  std::uint64_t RegionLifetimes[kLogBuckets] = {};
};

/// Writes \p M as a single JSON object ({"manager": {...},
/// "pageSource": {...}, "histograms": {...}}).
void writeMetricsJson(const MetricsSnapshot &M, std::FILE *Out);

/// writeMetricsJson to a file path; false if the file cannot be made.
bool writeMetricsJson(const MetricsSnapshot &M, const char *Path);

/// Prints \p M as human tables (TableWriter layout, the same format
/// the reproduced paper tables use).
void printMetrics(const MetricsSnapshot &M, std::FILE *Out = stdout);

} // namespace regions

#endif // REGION_METRICS_H
