//===- region/Metrics.cpp - rstat metrics snapshots & heap dumps ---------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "region/Metrics.h"
#include "support/TableWriter.h"

#include <cinttypes>

using namespace regions;
using detail::headerOf;
using detail::PageHeader;
using detail::PageKind;

MetricsSnapshot RegionManager::metrics() const {
  MetricsSnapshot M;
  // Through stats(), never reimplemented: the snapshot's counters are
  // the exact values every existing report prints, by construction.
  M.Stats = stats();
  M.Pool = PoolCounters;

  M.OsBytes = Source.osBytes();
  M.InUseBytes = Source.inUseBytes();
  M.ReservedPages = Source.reservedPages();
  M.FrontierPages = Source.frontierPages();
  M.FreeListedPages = Source.freeListedPages();
  M.QuarantinedPages = Source.quarantinedPages();
  M.CoalesceSweeps = Source.coalesceSweeps();
  M.QuarantineEvictions = Source.quarantineEvictions();

  for (unsigned I = 0; I != MetricsSnapshot::kLogBuckets; ++I) {
    M.RegionSizeClasses[I] = DeadSizeClasses[I];
    M.RegionLifetimes[I] = DeadLifetimes[I];
  }
  // Live regions contribute their current size on demand — keeping
  // them out of the stored histogram is what lets the alloc fast path
  // stay untouched (a region's size class is only final at death).
  for (const Region *R = LiveHead; R; R = R->NextLive) {
    unsigned B = detail::metricsBucket(R->ReqBytes);
    ++M.LiveRegionSizeClasses[B];
    ++M.RegionSizeClasses[B];
  }
  return M;
}

namespace {

void writeHistogram(std::FILE *Out, const char *Key,
                    const std::uint64_t (&H)[MetricsSnapshot::kLogBuckets],
                    bool TrailingComma) {
  std::fprintf(Out, "    \"%s\": [", Key);
  for (unsigned I = 0; I != MetricsSnapshot::kLogBuckets; ++I)
    std::fprintf(Out, "%s%" PRIu64, I ? "," : "", H[I]);
  std::fprintf(Out, "]%s\n", TrailingComma ? "," : "");
}

/// Human-readable upper bound of a metricsBucket() bucket: bucket 0 is
/// the value 0, bucket n≥1 covers [2^(n-1), 2^n).
std::uint64_t bucketUpperBound(unsigned B) {
  return B == 0 ? 0 : (std::uint64_t{1} << B) - 1;
}

} // namespace

void regions::writeMetricsJson(const MetricsSnapshot &M, std::FILE *Out) {
  const RegionStats &S = M.Stats;
  std::fprintf(Out, "{\n  \"manager\": {\n");
  std::fprintf(Out, "    \"totalAllocs\": %" PRIu64 ",\n", S.TotalAllocs);
  std::fprintf(Out, "    \"totalRequestedBytes\": %" PRIu64 ",\n",
               S.TotalRequestedBytes);
  std::fprintf(Out, "    \"liveRequestedBytes\": %" PRIu64 ",\n",
               S.LiveRequestedBytes);
  std::fprintf(Out, "    \"maxLiveRequestedBytes\": %" PRIu64 ",\n",
               S.MaxLiveRequestedBytes);
  std::fprintf(Out, "    \"totalRegions\": %" PRIu64 ",\n", S.TotalRegions);
  std::fprintf(Out, "    \"liveRegions\": %" PRIu64 ",\n", S.LiveRegions);
  std::fprintf(Out, "    \"maxLiveRegions\": %" PRIu64 ",\n",
               S.MaxLiveRegions);
  std::fprintf(Out, "    \"maxRegionBytes\": %" PRIu64 ",\n",
               S.MaxRegionBytes);
  std::fprintf(Out, "    \"deleteAttempts\": %" PRIu64 ",\n",
               S.DeleteAttempts);
  std::fprintf(Out, "    \"deleteFailures\": %" PRIu64 ",\n",
               S.DeleteFailures);
  std::fprintf(Out, "    \"resetRegions\": %" PRIu64 ",\n", S.ResetRegions);
  std::fprintf(Out, "    \"resetRefusals\": %" PRIu64 ",\n", S.ResetRefusals);
  std::fprintf(Out, "    \"cleanupThunksRun\": %" PRIu64 ",\n",
               S.CleanupThunksRun);
  std::fprintf(Out, "    \"cleanupScansSkipped\": %" PRIu64 ",\n",
               S.CleanupScansSkipped);
  std::fprintf(Out, "    \"barrierStores\": %" PRIu64 ",\n", S.BarrierStores);
  std::fprintf(Out, "    \"barrierSameRegion\": %" PRIu64 ",\n",
               S.BarrierSameRegion);
  std::fprintf(Out, "    \"barrierAdjustments\": %" PRIu64 "\n",
               S.BarrierAdjustments);
  std::fprintf(Out, "  },\n  \"pool\": {\n");
  std::fprintf(Out, "    \"hits\": %" PRIu64 ",\n", M.Pool.Hits);
  std::fprintf(Out, "    \"misses\": %" PRIu64 ",\n", M.Pool.Misses);
  std::fprintf(Out, "    \"releases\": %" PRIu64 ",\n", M.Pool.Releases);
  std::fprintf(Out, "    \"trims\": %" PRIu64 "\n", M.Pool.Trims);
  std::fprintf(Out, "  },\n  \"pageSource\": {\n");
  std::fprintf(Out, "    \"osBytes\": %" PRIu64 ",\n", M.OsBytes);
  std::fprintf(Out, "    \"inUseBytes\": %" PRIu64 ",\n", M.InUseBytes);
  std::fprintf(Out, "    \"reservedPages\": %" PRIu64 ",\n", M.ReservedPages);
  std::fprintf(Out, "    \"frontierPages\": %" PRIu64 ",\n", M.FrontierPages);
  std::fprintf(Out, "    \"freeListedPages\": %" PRIu64 ",\n",
               M.FreeListedPages);
  std::fprintf(Out, "    \"quarantinedPages\": %" PRIu64 ",\n",
               M.QuarantinedPages);
  std::fprintf(Out, "    \"coalesceSweeps\": %" PRIu64 ",\n",
               M.CoalesceSweeps);
  std::fprintf(Out, "    \"quarantineEvictions\": %" PRIu64 "\n",
               M.QuarantineEvictions);
  std::fprintf(Out, "  },\n  \"histograms\": {\n");
  std::fprintf(Out, "    \"logBuckets\": %u,\n", MetricsSnapshot::kLogBuckets);
  writeHistogram(Out, "regionSizeClasses", M.RegionSizeClasses, true);
  writeHistogram(Out, "liveRegionSizeClasses", M.LiveRegionSizeClasses, true);
  writeHistogram(Out, "regionLifetimes", M.RegionLifetimes, false);
  std::fprintf(Out, "  }\n}\n");
}

bool regions::writeMetricsJson(const MetricsSnapshot &M, const char *Path) {
  std::FILE *Out = std::fopen(Path, "w");
  if (!Out)
    return false;
  writeMetricsJson(M, Out);
  std::fclose(Out);
  return true;
}

void regions::printMetrics(const MetricsSnapshot &M, std::FILE *Out) {
  const RegionStats &S = M.Stats;
  using TW = TableWriter;
  TableWriter Counters({"metric", "value"});
  Counters.addRow({"total allocs", TW::fmt(S.TotalAllocs)});
  Counters.addRow({"total requested kb", TW::fmtKb(S.TotalRequestedBytes)});
  Counters.addRow({"live requested kb", TW::fmtKb(S.LiveRequestedBytes)});
  Counters.addRow({"max live requested kb",
                   TW::fmtKb(S.MaxLiveRequestedBytes)});
  Counters.addRow({"total regions", TW::fmt(S.TotalRegions)});
  Counters.addRow({"live regions", TW::fmt(S.LiveRegions)});
  Counters.addRow({"max live regions", TW::fmt(S.MaxLiveRegions)});
  Counters.addRow({"max region kb", TW::fmtKb(S.MaxRegionBytes)});
  Counters.addRow({"delete attempts", TW::fmt(S.DeleteAttempts)});
  Counters.addRow({"delete failures", TW::fmt(S.DeleteFailures)});
  Counters.addRow({"region resets", TW::fmt(S.ResetRegions)});
  Counters.addRow({"reset refusals", TW::fmt(S.ResetRefusals)});
  Counters.addRow({"pool hits", TW::fmt(M.Pool.Hits)});
  Counters.addRow({"pool misses", TW::fmt(M.Pool.Misses)});
  Counters.addRow({"pool releases", TW::fmt(M.Pool.Releases)});
  Counters.addRow({"pool trims", TW::fmt(M.Pool.Trims)});
  Counters.addRow({"cleanup thunks run", TW::fmt(S.CleanupThunksRun)});
  Counters.addRow({"cleanup scans skipped", TW::fmt(S.CleanupScansSkipped)});
  Counters.addRow({"barrier stores", TW::fmt(S.BarrierStores)});
  Counters.addRow({"barrier sameregion", TW::fmt(S.BarrierSameRegion)});
  Counters.addRow({"barrier adjustments", TW::fmt(S.BarrierAdjustments)});
  Counters.addRow({"os kb", TW::fmtKb(M.OsBytes)});
  Counters.addRow({"in-use kb", TW::fmtKb(M.InUseBytes)});
  Counters.addRow({"reserved pages", TW::fmt(M.ReservedPages)});
  Counters.addRow({"frontier pages", TW::fmt(M.FrontierPages)});
  Counters.addRow({"free-listed pages", TW::fmt(M.FreeListedPages)});
  Counters.addRow({"quarantined pages", TW::fmt(M.QuarantinedPages)});
  Counters.addRow({"coalesce sweeps", TW::fmt(M.CoalesceSweeps)});
  Counters.addRow({"quarantine evictions", TW::fmt(M.QuarantineEvictions)});
  Counters.print(Out);

  // Histograms: print only the occupied range, one row per bucket.
  unsigned Top = 0;
  for (unsigned I = 0; I != MetricsSnapshot::kLogBuckets; ++I)
    if (M.RegionSizeClasses[I] || M.RegionLifetimes[I])
      Top = I + 1;
  if (Top == 0)
    return;
  std::fputc('\n', Out);
  TableWriter Hist({"bucket<=", "regions", "live", "lifetimes"});
  for (unsigned I = 0; I != Top; ++I)
    Hist.addRow({TW::fmt(bucketUpperBound(I)), TW::fmt(M.RegionSizeClasses[I]),
                 TW::fmt(M.LiveRegionSizeClasses[I]),
                 TW::fmt(M.RegionLifetimes[I])});
  Hist.print(Out);
}

void RegionManager::dumpHeap(std::FILE *Out) const {
  std::fprintf(Out, "== heap dump: %" PRIu64 " live region(s), %zu/%zu pages"
                    " in use ==\n",
               static_cast<std::uint64_t>(Stats.LiveRegions),
               Source.inUseBytes() / kPageSize, Source.reservedPages());
  for (const Region *R = LiveHead; R; R = R->NextLive) {
    // outrefs and the finalize bit decide whether retiring the region
    // runs its cleanup scan.
    std::fprintf(Out,
                 "region #%u: rc=%lld outrefs=%lld finalize=%d allocs=%zu "
                 "bytes=%zu runs=%u%s\n",
                 R->Id, R->RC, R->outRefs(), R->MayFinalize ? 1 : 0,
                 R->NumAllocs, R->ReqBytes, R->NumRuns,
                 R->CountRefs ? "" : " (uncounted)");
    for (std::uint32_t I = 0; I != R->NumRuns; ++I) {
      const detail::PageRun &Run = R->runAt(I);
      std::fprintf(Out, "  run %u: pages [%u, %u)\n", I, Run.PageIdx,
                   Run.PageIdx + Run.NumPages);
    }
    // Page chains, newest first (the head page is the one being bump-
    // allocated into; older pages are retired ~full). Reading only the
    // PageHeader is safe under RGN_HARDEN: ASan poison starts at the
    // bump offset, past the header.
    auto DumpChain = [&](const char *Name, const Region::BumpList &B) {
      for (const char *Page = B.Head; Page;
           Page = headerOf(const_cast<char *>(Page))->Next) {
        const PageHeader *H = headerOf(const_cast<char *>(Page));
        std::fprintf(Out, "  %s page %zu:%s%s", Name, Source.pageIndex(Page),
                     (H->Flags & detail::kPageZeroTail) ? " zerotail" : "",
                     Page == B.Head ? "" : " retired");
        if (Page == B.Head)
          std::fprintf(Out, " bump=%u/%zu", B.Offset, kPageSize);
        std::fputc('\n', Out);
      }
    };
    DumpChain("normal", R->Normal);
    DumpChain("str", R->Str);
    for (const char *Block = R->LargeHead; Block;
         Block = headerOf(const_cast<char *>(Block))->Next) {
      std::size_t NumPages = *reinterpret_cast<const std::size_t *>(
          Block + detail::kLargeNumPagesOff);
      std::fprintf(Out, "  large block: pages [%zu, %zu)\n",
                   Source.pageIndex(Block),
                   Source.pageIndex(Block) + NumPages);
    }
  }
}
