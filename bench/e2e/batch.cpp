//===- bench/e2e/batch.cpp - The batch workload ---------------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// batch: closed loop, one client. A job is one round of the paper's
// cfrac, grobner, tile and moss programs at scale 1, each on one of 8
// seeded input sets. Each program gets a fresh safe RegionManager, as a
// new process would. The programs take the sets in turn at different
// strides (setFor), so 64 consecutive rounds pair every cfrac input with
// every grobner input: round costs spread over 64 combinations rather
// than 8, and the p50 and p90 of round cost fall inside the distribution
// instead of on the gaps between 8 clusters.
//
// Why: the page source starts cold every time (frontier growth, first
// touch of every page), and the load is pointer-free bulk data, large
// objects and cfrac's thousand-odd tiny regions per run. The write
// barrier, cleanup scans and stack scans stay nearly idle (a few
// thousand barrier stores per program, no count adjustments), so this
// is the bypass workload for any change to the safety layers.
//
// Inputs are drawn so every seed costs about the same. cfrac factors
// random 70-bit semiprimes, the ones of a fixed number of candidates
// whose continued fraction needs closest to a target number of
// iterations (candidates are tried on malloc-style memory). A random
// grobner system can take from 0.2 ms to minutes, so its
// generator seeds come from a vetted list: every seed below runs
// Buchberger's algorithm to completion at the default options in 10 000
// to 13 200 reduction steps. tile and moss generate their texts from the
// set's seeds inside the timed program, as the paper's harness does.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "traced_model.h"

#include "alloc/BumpAllocator.h"
#include "backend/Models.h"
#include "workloads/Cfrac.h"
#include "workloads/Grobner.h"
#include "workloads/Moss.h"
#include "workloads/Tile.h"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

using namespace regions;
using namespace regions::workloads;

namespace regbench {
namespace {

constexpr unsigned kInputSets = 8;

constexpr std::uint64_t kGrobnerSeeds[] = {
    1,   5,   28,  30,  45,  83,  102, 120, 129, 136, 139, 141, 168, 194,
    234, 249, 282, 296, 307, 308, 311, 319, 320, 333, 340, 372, 420, 524,
    538, 540, 583, 622, 674, 776, 778, 788, 800, 803, 884, 887};

/// cfrac inputs are chosen to need about this many iterations (some
/// 18 ms of factoring) out of this many candidates per run, each capped
/// at kCfracMaxIterations, so set-up costs the same for every seed.
constexpr std::uint64_t kCfracTargetIterations = 8000;
constexpr std::uint64_t kCfracMaxIterations = 12000;
constexpr unsigned kCfracCandidates = 4 * kInputSets;

enum Program : unsigned { Cfrac, Grobner, Tile, Moss, kPrograms };
constexpr const char *kProgramSpan[kPrograms] = {
    "batch.cfrac", "batch.grobner", "batch.tile", "batch.moss"};

struct InputSet {
  std::string Semiprime;
  std::uint64_t GrobnerSeed;
  std::uint64_t TileSeed;
  std::uint64_t MossSeed;
};

std::uint64_t mulMod(std::uint64_t A, std::uint64_t B, std::uint64_t M) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(A) * B % M);
}

std::uint64_t powMod(std::uint64_t B, std::uint64_t E, std::uint64_t M) {
  std::uint64_t R = 1;
  for (B %= M; E; E >>= 1, B = mulMod(B, B, M))
    if (E & 1)
      R = mulMod(R, B, M);
  return R;
}

/// Deterministic Miller-Rabin; these bases decide every 64-bit number.
bool isPrime(std::uint64_t N) {
  constexpr std::uint64_t kBases[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
  if (N < 2)
    return false;
  for (std::uint64_t P : kBases)
    if (N % P == 0)
      return N == P;
  std::uint64_t D = N - 1;
  unsigned S = 0;
  for (; !(D & 1); D >>= 1)
    ++S;
  for (std::uint64_t A : kBases) {
    std::uint64_t X = powMod(A, D, N);
    if (X == 1 || X == N - 1)
      continue;
    bool Composite = true;
    for (unsigned R = 1; R < S && Composite; ++R) {
      X = mulMod(X, X, N);
      Composite = X != N - 1;
    }
    if (Composite)
      return false;
  }
  return true;
}

std::string decimal(unsigned __int128 V) {
  std::string S;
  for (; V; V /= 10)
    S.insert(S.begin(), static_cast<char>('0' + static_cast<int>(V % 10)));
  return S;
}

/// A random 70-bit semiprime, in decimal.
std::string randomSemiprime(Prng &Rng) {
  auto Prime = [&] {
    std::uint64_t P;
    do
      P = Rng.nextInRange(std::uint64_t{1} << 34, std::uint64_t{1} << 35);
    while (!isPrime(P));
    return P;
  };
  std::uint64_t P = Prime();
  return decimal(static_cast<unsigned __int128>(P) * Prime());
}

/// Of a fixed number of random semiprimes, the kInputSets whose factoring
/// needs the number of iterations closest to the target. Candidates run
/// on malloc-style memory, capped at kCfracMaxIterations.
std::vector<std::string> makeSemiprimes(Prng &Rng) {
  std::vector<std::pair<std::uint64_t, std::string>> Factored;
  for (unsigned I = 0; I < kCfracCandidates || Factored.size() < kInputSets;
       ++I) {
    std::string N = randomSemiprime(Rng);
    BumpAllocator A;
    DirectModel Mem(A, nullptr, /*CallFree=*/false);
    CfracOptions C;
    C.Decimal = N.c_str();
    C.MaxIterations = kCfracMaxIterations;
    CfracResult R = runCfrac(Mem, C);
    if (R.Factored)
      Factored.push_back({R.Iterations > kCfracTargetIterations
                              ? R.Iterations - kCfracTargetIterations
                              : kCfracTargetIterations - R.Iterations,
                          std::move(N)});
  }
  std::stable_sort(Factored.begin(), Factored.end(),
                   [](const auto &A, const auto &B) { return A.first < B.first; });
  std::vector<std::string> Out;
  for (unsigned I = 0; I != kInputSets; ++I)
    Out.push_back(std::move(Factored[I].second));
  return Out;
}

std::vector<InputSet> makeInputs(std::uint64_t Seed) {
  Prng Rng = inputRng(Seed, 2);
  std::vector<std::string> Semiprimes = makeSemiprimes(Rng);
  std::vector<std::uint64_t> Grobner(std::begin(kGrobnerSeeds),
                                     std::end(kGrobnerSeeds));
  std::vector<InputSet> Sets;
  for (unsigned I = 0; I != kInputSets; ++I) {
    // Partial Fisher-Yates: distinct grobner systems per set.
    std::swap(Grobner[I], Grobner[I + Rng.nextBelow(Grobner.size() - I)]);
    InputSet S;
    S.Semiprime = std::move(Semiprimes[I]);
    S.GrobnerSeed = Grobner[I];
    S.TileSeed = Rng.next();
    S.MossSeed = Rng.next();
    Sets.push_back(std::move(S));
  }
  return Sets;
}

/// Runs one program on \p Mem; returns its checksum and sets \p Ok to
/// the program's own success test (as workloads/Workloads.cpp does).
template <class Model>
std::uint64_t runProgram(Model &Mem, Program P, const InputSet &In, bool &Ok) {
  switch (P) {
  case Cfrac: {
    CfracOptions C;
    C.Decimal = In.Semiprime.c_str();
    CfracResult R = runCfrac(Mem, C);
    Ok = R.Factored;
    return R.checksum();
  }
  case Grobner: {
    GrobnerOptions G;
    G.Seed = In.GrobnerSeed;
    GrobnerResult R = runGrobner(Mem, G);
    Ok = R.BasisSize > 0;
    return R.checksum();
  }
  case Tile: {
    TileOptions T;
    T.Text.Seed = In.TileSeed;
    TileResult R = runTile(Mem, T);
    Ok = R.TotalBoundaries > 0;
    return R.checksum();
  }
  case Moss: {
    MossOptions M;
    M.Sub.Seed = In.MossSeed;
    MossResult R = runMoss(Mem, M);
    Ok = R.MatchingPairs > 0;
    return R.checksum();
  }
  case kPrograms:
    break;
  }
  Ok = false;
  return 0;
}

/// The input set program \p P uses in round \p Round.
std::size_t setFor(std::uint64_t Round, unsigned P) {
  return static_cast<std::size_t>((Round + P * (Round / kInputSets)) %
                                  kInputSets);
}

/// Runs one program on a fresh safe manager, folding the manager into
/// \p C (when given) and its OS footprint into \p OsPeak before it dies.
std::uint64_t runFresh(Program P, const InputSet &In, bool &Ok, Tracer *Tr,
                       LibraryCounters *C, std::uint64_t &OsPeak) {
  RegionManager Mgr;
  RegionModel Mem(Mgr);
  std::uint64_t Sum;
  if (Tr) {
    TracedModel<RegionModel> Traced(Mem, *Tr);
    Sum = runProgram(Traced, P, In, Ok);
  } else {
    Sum = runProgram(Mem, P, In, Ok);
  }
  OsPeak = std::max<std::uint64_t>(OsPeak, Mgr.osBytes());
  if (C)
    C->addManager(Mgr);
  return Sum;
}

struct BatchState {
  std::vector<InputSet> Sets;
  std::vector<std::array<std::uint64_t, kPrograms>> Expected;
  Counters Warm;

  BatchState(const RunConfig &Cfg, Report &Rep, bool TracedWarmup)
      : Sets(makeInputs(Cfg.Seed)), Expected(Sets.size()) {
    LibraryCounters C;
    Tracer Tr(0, 0);
    std::uint64_t OsPeak = 0;
    for (std::size_t I = 0; I != Sets.size(); ++I)
      for (unsigned P = 0; P != kPrograms; ++P) {
        bool Ok = false;
        Expected[I][P] = runFresh(static_cast<Program>(P), Sets[I], Ok,
                                  TracedWarmup ? &Tr : nullptr, &C, OsPeak);
        Rep.attempt(1);
        if (!Ok)
          Rep.fail(1, std::string("warm-up ") + kProgramSpan[P] + " failed");
      }
    C.closeStack();
    Warm = C.fingerprint();
  }
};

/// Runs[Set][P] counts the runs of program P on input set Set.
using RunCounts = std::vector<std::array<std::uint64_t, kPrograms>>;

/// Returns the number of rounds run.
std::uint64_t runRounds(BatchState &S, Report &Rep, double Seconds,
                        CycleSamples &Latency, RunCounts &Runs,
                        std::uint64_t &OsPeak, Tracer *Tr, LibraryCounters *C) {
  // One part per program: a round takes some 30 ms, long enough for the
  // effective clock to move within it.
  return closedLoop(Seconds, Latency, kPrograms,
                    [&](std::uint64_t I, unsigned P, std::uint64_t T0) {
    const std::size_t Set = setFor(I, P);
    ++Runs[Set][P];
    if (Tr)
      Tr->beginRoot(kProgramSpan[P], T0);
    bool Ok = false;
    std::uint64_t Sum =
        runFresh(static_cast<Program>(P), S.Sets[Set], Ok, Tr, C, OsPeak);
    if (Tr)
      Tr->endRoot(nowNs());
    if (!Ok || Sum != S.Expected[Set][P])
      Rep.fail(1, std::string(kProgramSpan[P]) + " on input set " +
                      std::to_string(Set) + " differs from its warm-up");
  });
}

} // namespace

int runBatch(const RunConfig &Cfg) {
  Report Rep(Cfg);
  std::unique_ptr<BatchState> S = timedSetups<BatchState>(Cfg, Rep);
  RunCounts Runs(S->Sets.size());

  double Untraced = Cfg.Trace ? Cfg.Seconds * kTraceReferenceShare : Cfg.Seconds;
  CycleSamples Latency(Cfg.Seed);
  std::uint64_t OsPeak = 0;
  const std::uint64_t Rounds =
      runRounds(*S, Rep, Untraced, Latency, Runs, OsPeak, nullptr, nullptr);
  Rep.attempt(Rounds * kPrograms);
  Rep.addEndToEnd(Latency, OsPeak, Rounds * kPrograms);

  if (Cfg.Trace) {
    Tracer Tr(1, measureClockNs());
    LibraryCounters C;
    CycleSamples TracedLatency(Cfg.Seed);
    std::uint64_t TracedPeak = 0;
    Rep.attempt(runRounds(*S, Rep, Cfg.Seconds - Untraced, TracedLatency,
                          Runs, TracedPeak, &Tr, &C) *
                kPrograms);
    C.closeStack();
    Rep.addLayers(Tr, C, 0, 0, 0);
    addTraceOverhead(Rep, Latency, TracedLatency);
    Rep.setChromeTrace(Tr);
  }

  // Reference: every program on every set again on malloc-style memory
  // that is never freed (DirectModel over BumpAllocator).
  for (std::size_t I = 0; I != S->Sets.size(); ++I)
    for (unsigned P = 0; P != kPrograms; ++P) {
      BumpAllocator A;
      DirectModel Mem(A, nullptr, /*CallFree=*/false);
      bool Ok = false;
      Rep.attempt(1);
      if (runProgram(Mem, static_cast<Program>(P), S->Sets[I], Ok) !=
              S->Expected[I][P] ||
          !Ok)
        Rep.fail(Runs[I][P] + 1, std::string(kProgramSpan[P]) + " on input set " +
                                    std::to_string(I) +
                                    " differs from the reference run");
    }
  return Rep.finish();
}

} // namespace regbench
