//===- examples/observability.cpp - Watching regions with rstat ----------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Demonstrates the rstat observability layer on a small compiler-like
// workload:
//  * metrics snapshots (regions::RegionManager::metrics()) — the paper's
//    Table 2/3 counters plus size-class and lifetime histograms,
//    printable as tables or JSON;
//  * runtime-armed event tracing — newregion/deleteregion, page-run
//    traffic, coalesce sweeps — exported as Chrome trace JSON
//    (open rstat_example_trace.json in Perfetto or chrome://tracing);
//  * heap introspection (dumpHeap) — live regions, their page runs and
//    bump state, for debugging a refused deleteregion.
//
//===----------------------------------------------------------------------===//

#include "region/Metrics.h"
#include "region/Regions.h"
#include "support/Trace.h"

#include <cstdio>

using namespace regions;

namespace {

/// A phase-structured workload: per-"function" scratch regions die
/// young, the "AST" region lives through the run (lcc's shape in §5).
void compileLike(RegionManager &Mgr) {
  rt::Frame Frame;
  rt::RegionHandle Ast = Mgr.newRegion();
  for (int Fn = 0; Fn != 24; ++Fn) {
    rt::Frame Inner;
    rt::RegionHandle Scratch = Mgr.newRegion();
    for (int I = 0; I != 400; ++I)
      rnewArray<int>(Scratch, 16);
    rnewArray<int>(Ast, 256); // something survives into the AST
    deleteRegion(Scratch);
  }
  deleteRegion(Ast);
}

} // namespace

int main() {
  std::printf("== rstat: metrics, tracing, heap introspection ==\n\n");

  // Arm tracing before the work; this thread attaches immediately,
  // any worker threads would attach lazily.
  rstat::armTracing();

  RegionManager Mgr;
  compileLike(Mgr);

  // 1. Metrics snapshot: exactly stats(), plus the PageSource view and
  //    the region histograms.
  MetricsSnapshot M = Mgr.metrics();
  printMetrics(M);

  // 2. Chrome trace: one instant event per region lifecycle action.
  long N = rstat::writeChromeTrace("rstat_example_trace.json");
  std::printf("\nwrote %ld trace event(s) to rstat_example_trace.json\n", N);
  rstat::disarmTracing();

  // 3. Heap introspection: leave a region live (with a reference held)
  //    and dump what deleteregion would be up against.
  rt::Frame Frame;
  rt::RegionHandle Leaky = Mgr.newRegion();
  rnewArray<char>(Leaky, 10000);
  std::printf("\nheap after leaving a region live:\n");
  Mgr.dumpHeap();
  deleteRegion(Leaky);
  return 0;
}
