//===- bench/e2e/compile.cpp - The compile workload -----------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// compile: closed loop, one client. A job is one compileOnce
// (workloads/MudlleWork.h: parse into a fresh AST region, compile into a
// fresh code region, delete both) of one of 128 seeded sources, taken in
// turn, whose sizes run evenly from mudlle-sized to lcc-chunk-sized.
// Every job shares one long-lived safe RegionManager. Each source is a
// cluster in the job cost distribution; with many of them, evenly
// spread, every percentile falls inside the distribution instead of on
// a gap between clusters (with two sizes of source, the median sat on
// the gap between them).
//
// Why: this is the pointer-dense program. Scanned allocation, sameregion
// barrier stores, cleanup scans and stack scans on every deleteregion,
// and two region creations per job do most of their work here.
//
// The compiled program is not run: the mud VM's run time depends on the
// generated loops far more than on memory management (one seed in ten
// runs 50x longer), so it would swamp the seed-to-seed comparison.
// For the same reason the sources are the candidates closest to fixed
// target lengths out of a fixed number of candidates, so each seed's
// mix, and its set-up, costs about the same.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "traced_model.h"

#include "alloc/BumpAllocator.h"
#include "backend/Models.h"
#include "workloads/MudlleWork.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace regions;
using namespace regions::workloads;

namespace regbench {
namespace {

struct SourceShape {
  unsigned Functions;
  unsigned StmtsPerFunction;
};

/// The mudlle shape is the generator's default (workloads/MudlleWork.h);
/// the lcc shape is LccOptions' chunk. Their generated sources have median
/// lengths of about kMinLength and kMaxLength characters, and between
/// them their candidates cover every length in that range.
constexpr SourceShape kShapes[] = {{25, 5}, {24, 7}};
constexpr std::size_t kMinLength = 8700;
constexpr std::size_t kMaxLength = 11500;
constexpr unsigned kSources = 128;
constexpr unsigned kCandidatesPerShape = 320;

/// For each of kSources target lengths evenly spaced from kMinLength to
/// kMaxLength, the unused candidate closest to it.
std::vector<std::string> makeSources(std::uint64_t Seed) {
  Prng Rng = inputRng(Seed, 1);
  std::vector<std::string> Candidates;
  for (const SourceShape &Shape : kShapes)
    for (unsigned N = 0; N != kCandidatesPerShape; ++N) {
      mud::GenOptions G;
      G.NumFunctions = Shape.Functions;
      G.StmtsPerFunction = Shape.StmtsPerFunction;
      G.Seed = Rng.next();
      Candidates.push_back(mud::ProgramGenerator(G).generate());
    }
  std::vector<bool> Used(Candidates.size());
  std::vector<std::string> Sources;
  for (unsigned K = 0; K != kSources; ++K) {
    const std::size_t Target =
        kMinLength + (kMaxLength - kMinLength) * K / (kSources - 1);
    auto Distance = [&](std::size_t I) {
      std::size_t L = Candidates[I].size();
      return L > Target ? L - Target : Target - L;
    };
    std::size_t Best = Candidates.size();
    for (std::size_t I = 0; I != Candidates.size(); ++I)
      if (!Used[I] && (Best == Candidates.size() || Distance(I) < Distance(Best)))
        Best = I;
    Used[Best] = true;
    Sources.push_back(std::move(Candidates[Best]));
  }
  return Sources;
}

template <class Model>
bool compileJob(Model &Mem, const std::string &Source, std::uint64_t &Sum) {
  MudlleResult R;
  bool Ok = compileOnce(Mem, Source.c_str(), R, /*Run=*/false);
  Sum = R.checksum();
  return Ok;
}

struct CompileState {
  std::vector<std::string> Sources;
  RegionManager Mgr;
  RegionModel Mem{Mgr};
  std::vector<std::uint64_t> Expected; ///< warm-up checksum per source
  Counters Warm;

  CompileState(const RunConfig &Cfg, Report &Rep, bool TracedWarmup)
      : Sources(makeSources(Cfg.Seed)) {
    LibraryCounters C;
    Tracer Tr(0, 0);
    TracedModel<RegionModel> Traced(Mem, Tr);
    for (const std::string &S : Sources) {
      std::uint64_t Sum = 0;
      bool Ok = TracedWarmup ? compileJob(Traced, S, Sum)
                             : compileJob(Mem, S, Sum);
      Rep.attempt(1);
      if (!Ok)
        Rep.fail(1, "warm-up compile failed");
      Expected.push_back(Sum);
    }
    C.addManager(Mgr);
    C.closeStack();
    Warm = C.fingerprint();
  }
};

/// One timed phase over the state's sources; \p Tr non-null traces it.
/// Returns the number of jobs run.
std::uint64_t runJobs(CompileState &S, Report &Rep, double Seconds,
                      CycleSamples &Latency,
                      std::vector<std::uint64_t> &PerSource, Tracer *Tr) {
  auto Check = [&](std::size_t Src, bool Ok, std::uint64_t Sum) {
    ++PerSource[Src];
    if (!Ok || Sum != S.Expected[Src])
      Rep.fail(1, "compile of source " + std::to_string(Src) +
                      " differs from its warm-up");
  };
  if (!Tr)
    return closedLoop(Seconds, Latency, 1,
                      [&](std::uint64_t I, unsigned, std::uint64_t) {
      std::size_t Src = I % S.Sources.size();
      std::uint64_t Sum = 0;
      bool Ok = compileJob(S.Mem, S.Sources[Src], Sum);
      Check(Src, Ok, Sum);
    });
  TracedModel<RegionModel> Traced(S.Mem, *Tr);
  return closedLoop(Seconds, Latency, 1,
                    [&](std::uint64_t I, unsigned, std::uint64_t T0) {
    std::size_t Src = I % S.Sources.size();
    std::uint64_t Sum = 0;
    Tr->beginRoot("compile.job", T0);
    bool Ok = compileJob(Traced, S.Sources[Src], Sum);
    Tr->endRoot(nowNs());
    Check(Src, Ok, Sum);
  });
}

} // namespace

int runCompile(const RunConfig &Cfg) {
  Report Rep(Cfg);
  std::unique_ptr<CompileState> S = timedSetups<CompileState>(Cfg, Rep);
  std::vector<std::uint64_t> PerSource(S->Sources.size());

  double Untraced = Cfg.Trace ? Cfg.Seconds * kTraceReferenceShare : Cfg.Seconds;
  CycleSamples Latency(Cfg.Seed);
  Rep.attempt(runJobs(*S, Rep, Untraced, Latency, PerSource, nullptr));
  Rep.addEndToEnd(Latency, S->Mgr.osBytes(), 1);

  if (Cfg.Trace) {
    Tracer Tr(1, measureClockNs());
    LibraryCounters Before;
    Before.addManager(S->Mgr);
    LibraryCounters After;
    CycleSamples TracedLatency(Cfg.Seed);
    Rep.attempt(runJobs(*S, Rep, Cfg.Seconds - Untraced, TracedLatency,
                        PerSource, &Tr));
    After.addManager(S->Mgr);
    After.closeStack();
    After.subtract(Before);
    Rep.addLayers(Tr, After, 0, 0, 0);
    addTraceOverhead(Rep, Latency, TracedLatency);
    Rep.setChromeTrace(Tr);
  }

  // Reference: every source again on malloc-style memory that is never
  // freed (DirectModel over BumpAllocator), after the timed phase.
  for (std::size_t I = 0; I != S->Sources.size(); ++I) {
    BumpAllocator A;
    DirectModel Mem(A, nullptr, /*CallFree=*/false);
    std::uint64_t Sum = 0;
    Rep.attempt(1);
    if (!compileJob(Mem, S->Sources[I], Sum) || Sum != S->Expected[I])
      Rep.fail(PerSource[I] + 1, "source " + std::to_string(I) +
                                     " differs from the reference compile");
  }
  return Rep.finish();
}

} // namespace regbench
