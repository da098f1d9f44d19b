//===- bench/e2e/harness.h - regbench shared harness ------------*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four regbench workloads share: the run configuration, exact
/// latency samples, the span tracer used by traced runs, and the report
/// every run fills in and prints (one line per metric, a result JSON,
/// and a final one-line JSON summary).
///
/// The benchmark drives the library from outside, through its public
/// headers only. Spans are recorded here, around the calls into each
/// layer; nothing inside the library is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef REGBENCH_HARNESS_H
#define REGBENCH_HARNESS_H

#include "region/Metrics.h"
#include "region/RuntimeStack.h"
#include "support/Prng.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace regbench {

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Command-line parameters of one run.
struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 0; ///< required: BENCHMARK.json's run_seconds
  bool Trace = false;
  std::string OutDir = "build-e2e/results";
  std::string Commit = "unknown";
};

/// Set-ups per run: at least kSetups, and more until they took
/// kSetupSeconds of wall time, so that a set-up of a millisecond is not
/// the median of five thread starts. setup_s is their median. A traced
/// run makes its second set-up traced and requires every set-up's library
/// counters to equal the first one's.
inline constexpr unsigned kSetups = 5;
inline constexpr double kSetupSeconds = 0.5;

/// Derives an independent generator for one input family from the run
/// seed, so adding a family never shifts another family's inputs.
inline regions::Prng inputRng(std::uint64_t Seed, std::uint64_t Family) {
  return regions::Prng(Seed * 0x9E3779B97F4A7C15ull + Family);
}

/// Latency samples in nanoseconds. Values are kept exactly up to a cap;
/// past it a seeded reservoir keeps a uniform subset, so long runs stay
/// small while every reported percentile is a measured value.
class Samples {
public:
  explicit Samples(std::uint64_t Seed = 1, std::size_t Cap = 1u << 20)
      : Rng(Seed), Cap(Cap) {}

  void add(std::uint64_t V);
  /// Samples observed (not only kept).
  std::uint64_t count() const { return Seen; }
  /// Interpolated quantile \p Q in [0, 1], in the unit added.
  double quantile(double Q);
  /// The same for samples added in nanoseconds, in microseconds.
  double quantileUs(double Q) { return quantile(Q) / 1000.0; }

private:
  std::vector<std::uint64_t> Values;
  std::uint64_t Seen = 0;
  regions::Prng Rng;
  std::size_t Cap;
  bool Sorted = false;
};

/// The calling core's effective clock in GHz: how fast it runs a fixed
/// reference loop, in cycles the loop takes on an idle core, so an idle
/// core reads its clock rate. It takes the fastest of three timed runs
/// of some 6 us, so a run in which the thread lost its core does not
/// read as a slow clock.
double measureClockGhz();

/// Job costs in cycles of the effective clock of the core that ran them.
///
/// A shared virtual machine's speed moves with its neighbours' load. On
/// a 4-vCPU KVM guest on a Xeon (family 6, model 207) the clock ranged
/// from 1.6 to 3.1 GHz within two minutes, and in busy spells a job also
/// took up to 25 % more cycles at the same clock, as other hardware
/// threads competed for the core; job times in seconds differed by
/// 15-30 % between runs minutes apart. The reference loop slows with
/// both (README.md, "The effective clock"). The thread measuring jobs
/// therefore measures its effective clock every kClockEveryNs between
/// jobs (or between the parts of a long job), and converts the time in
/// between at the mean of the two measurements around it.
class CycleSamples {
public:
  static constexpr std::uint64_t kClockEveryNs = 5'000'000;

  explicit CycleSamples(std::uint64_t Seed) : Cycles(Seed) {}

  /// Measures the clock when kClockEveryNs passed since the last
  /// measurement (or on the first call), and converts the time added
  /// since. Call between jobs or parts, never inside one.
  void tick(std::uint64_t Now);
  /// A part of the current job that kept the measuring thread busy for
  /// \p Ns, plus \p OtherCycles spent on it by another thread.
  void addPart(std::uint64_t Ns, double OtherCycles = 0) {
    Pending.push_back({Ns, OtherCycles, false});
  }
  /// The last part of the current job.
  void add(std::uint64_t Ns, double OtherCycles = 0) {
    Pending.push_back({Ns, OtherCycles, true});
  }
  /// Measures the clock once more and converts everything pending.
  void finish();

  std::uint64_t count() const { return Cycles.count(); }
  /// Jobs per billion busy cycles: the reciprocal of the mean job.
  double jobsPerGcycle() const;
  /// Interpolated quantile \p Q of job cost, in thousands of cycles.
  double quantileKcycles(double Q) { return Cycles.quantile(Q) / 1000.0; }
  /// Median of the clock measurements, in GHz.
  double medianGhz() const;

private:
  struct Part {
    std::uint64_t Ns;
    double OtherCycles;
    bool EndsJob;
  };
  void convert(double Ghz);

  Samples Cycles;
  std::vector<Part> Pending;
  double OpenJobCycles = 0; ///< converted parts of an unfinished job
  std::vector<double> Clocks;
  double LastGhz = 0;
  std::uint64_t LastClockAt = 0;
  double TotalCycles = 0;
};

//===----------------------------------------------------------------------===//
// Tracing (traced runs only)
//===----------------------------------------------------------------------===//

/// The layers a traced run times, in the order the table prints them.
enum class Layer : unsigned {
  NewRegion,
  Alloc,
  AllocLarge,
  Delete,
  PoolAcquire,
  PoolRelease,
  ParShare,
  ParExchange,
  ParTryDelete,
  Count
};

const char *layerName(Layer L);

/// One span as written to the Chrome trace: a root (a job or request)
/// or a cold call under it.
struct Span {
  std::uint64_t Start;
  std::uint64_t End;
  std::uint32_t Id;
  std::uint32_t Parent; ///< 0 for roots
  const char *Name;
  std::uint32_t Tid;
  std::uint32_t AllocCalls; ///< roots: small allocations aggregated
  std::uint64_t AllocNs;    ///< roots: their busy time
  std::uint64_t SelfNs;     ///< roots: time no child covered
};

/// Per-thread span recorder. Cold calls (region creation and deletion,
/// large allocations, pool and parallel-space calls) become child spans
/// of the current root. Small allocations cost a few nanoseconds, less
/// than a span, so they are only counted and timed per root.
///
/// Every timed call pays two clock reads. The cost of an empty timed
/// call (ClockNs) is measured once at start-up and subtracted from each
/// span; a root's self time also discounts the clock reads its children
/// spent, so self time is what the job did outside every timed call.
class Tracer {
public:
  Tracer(std::uint32_t Tid, double ClockNs) : Tid(Tid), ClockNs(ClockNs) {}

  void beginRoot(const char *Name, std::uint64_t T0);
  void endRoot(std::uint64_t T1);
  void span(Layer L, std::uint64_t T0, std::uint64_t T1);
  /// A timed allocation call of \p Size bytes: aggregated into the root
  /// when small, a child span when it takes the large-object path.
  void alloc(std::uint64_t T0, std::uint64_t T1, std::size_t Size);

  void merge(const Tracer &Other);

  struct Totals {
    std::uint64_t Calls = 0;
    std::uint64_t BusyNs = 0;
  };
  const Totals &totals(Layer L) const {
    return Layers[static_cast<unsigned>(L)];
  }
  std::uint64_t roots() const { return Roots; }
  std::uint64_t selfNs() const { return SelfNs; }
  const std::vector<Span> &spans() const { return Kept; }
  double clockNs() const { return ClockNs; }

  /// Spans kept for the Chrome trace per thread; later spans are still
  /// counted in every total.
  static constexpr std::size_t kKeptSpans = 50000;

private:
  std::uint64_t net(std::uint64_t T0, std::uint64_t T1) const {
    double D = static_cast<double>(T1 - T0) - ClockNs;
    return D > 0 ? static_cast<std::uint64_t>(D + 0.5) : 0;
  }
  std::uint64_t clockReads() const {
    return static_cast<std::uint64_t>(ClockNs + 0.5);
  }

  std::uint32_t Tid;
  double ClockNs;
  Totals Layers[static_cast<unsigned>(Layer::Count)];
  std::uint64_t Roots = 0;
  std::uint64_t SelfNs = 0;
  std::vector<Span> Kept;
  // The open root.
  const char *RootName = nullptr;
  std::uint64_t RootStart = 0;
  std::uint32_t RootId = 0;
  std::uint32_t NextId = 1;
  std::uint64_t ChildNs = 0; ///< wall time covered by timed calls
  std::uint32_t RootAllocCalls = 0;
  std::uint64_t RootAllocNs = 0;
};

/// Cost of an empty timed call: the mean of many back-to-back clock
/// pairs around an opaque call, leaving out the slowest tenth
/// (interrupted pairs).
double measureClockNs();

//===----------------------------------------------------------------------===//
// Library counters
//===----------------------------------------------------------------------===//

/// Exact library counters, named as in the per-layer table.
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// Counters summed over the managers a run used, plus the calling
/// thread's stack-scan counters as a delta from construction.
class LibraryCounters {
public:
  LibraryCounters()
      : StackAtStart(regions::rt::RuntimeStack::current().counters()) {}

  /// Folds \p M's current state in (call before the manager dies).
  void addManager(const regions::RegionManager &M);

  /// Stack scans since construction on the calling thread.
  void closeStack();

  /// Turns cumulative counters into the activity since \p Before, a
  /// snapshot of the same managers; page-source state stays current.
  void subtract(const LibraryCounters &Before);

  regions::RegionStats Stats;
  regions::PoolStats Pool;
  std::uint64_t FrontierPages = 0;
  std::uint64_t FreeListedPages = 0;
  std::uint64_t CoalesceSweeps = 0;
  std::uint64_t OsBytesMax = 0;
  std::uint64_t Managers = 0;
  std::uint64_t StackScans = 0;
  std::uint64_t FramesScanned = 0;

  /// The deterministic subset compared between traced and untraced
  /// set-ups; \p WithPageSource false for workloads whose page-source
  /// state depends on thread timing.
  Counters fingerprint(bool WithPageSource = true) const;

private:
  regions::rt::RuntimeStack::Counters StackAtStart;
};

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// Which line of the final JSON a metric belongs to: end-to-end metrics
/// print with --trace 0, per-layer metrics with --trace 1; Info metrics
/// go only to the metric lines and the result file.
enum class MetricKind { EndToEnd, Layer, Info };

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::uint64_t N;
  MetricKind Kind;
};

class Report {
public:
  explicit Report(const RunConfig &Cfg) : Cfg(Cfg) {}

  void add(MetricKind K, const std::string &Name, double Value,
           const std::string &Unit, std::uint64_t N) {
    Metrics.push_back({Name, Value, Unit, N, K});
  }

  /// Records \p N failed operations with a reason (the first few
  /// reasons are kept for the result file).
  void fail(std::uint64_t N, const std::string &Why);
  void attempt(std::uint64_t N) { Attempted += N; }

  /// Records one set-up: its duration and its warm-up's counters. A
  /// counter set that differs from the first set-up's is one failed
  /// operation.
  void setup(double Seconds, const Counters &C, bool Traced);

  /// The end-to-end metrics every workload reports: setup_s, then jobs
  /// per billion cycles and job cost percentiles from \p Jobs, and the
  /// OS memory peak over \p Managers managers.
  void addEndToEnd(CycleSamples &Jobs, std::uint64_t OsBytesPeak,
                   std::uint64_t Managers);

  /// The per-layer table of a traced run: timed layers from \p T, exact
  /// counters from \p C.
  void addLayers(const Tracer &T, const LibraryCounters &C,
                 std::uint64_t PoolReleaseRefused,
                 std::uint64_t TryDeleteRefused,
                 std::uint64_t LockFreeRefusals);

  void setChromeTrace(const Tracer &T);

  /// Prints the metric lines and the final JSON line, writes the result
  /// file (and the Chrome trace of a traced run). Returns the exit code.
  int finish();

private:
  bool ok() const { return Failed == 0; }

  const RunConfig &Cfg;
  std::vector<Metric> Metrics;
  std::vector<std::string> Reasons;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<double> SetupSeconds;
  Counters FirstCounters;
  std::vector<Span> ChromeSpans;
  std::uint64_t ChromeBase = 0;
};

/// A traced run first measures this share of its time untraced, as the
/// reference for the reported tracing overhead.
inline constexpr double kTraceReferenceShare = 0.25;

/// setup_s is set-up time on a core whose effective clock runs at this
/// rate: each set-up's wall time, converted to cycles at the mean of the
/// effective clocks measured just before and after it, over this rate.
/// Like job costs, it then moves with the work done, not with the host.
inline constexpr double kSetupClockGhz = 3.0;

/// Builds a workload's state repeatedly (see kSetups), timing each build
/// (input generation, managers, warm-up) into \p Rep, and keeps the last
/// one. State(const RunConfig &, Report &, bool TracedWarmup) must leave
/// its warm-up's library counters in State::Warm.
template <class State>
std::unique_ptr<State> timedSetups(const RunConfig &Cfg, Report &Rep) {
  std::unique_ptr<State> S;
  std::uint64_t Spent = 0;
  for (unsigned I = 0; I < kSetups || Spent < kSetupSeconds * 1e9; ++I) {
    bool Traced = Cfg.Trace && I == 1;
    S.reset();
    const double Before = measureClockGhz();
    const std::uint64_t T0 = nowNs();
    S = std::make_unique<State>(Cfg, Rep, Traced);
    const std::uint64_t T1 = nowNs();
    const double Ghz = (Before + measureClockGhz()) / 2;
    Spent += T1 - T0;
    Rep.setup(static_cast<double>(T1 - T0) * Ghz / kSetupClockGhz / 1e9,
              S->Warm, Traced);
  }
  return S;
}

/// Closed loop with one client: runs jobs back to back for \p Seconds,
/// each as \p Parts calls Part(JobIndex, PartIndex, StartNs) with the
/// clock measured between them, records each job's cost in \p Jobs, and
/// returns how many jobs ran.
template <class Fn>
std::uint64_t closedLoop(double Seconds, CycleSamples &Jobs, unsigned Parts,
                         Fn &&Part) {
  const std::uint64_t Deadline =
      nowNs() + static_cast<std::uint64_t>(Seconds * 1e9);
  std::uint64_t N = 0;
  for (std::uint64_t T = nowNs(); T < Deadline; ++N)
    for (unsigned P = 0; P != Parts; ++P) {
      Jobs.tick(T);
      const std::uint64_t T0 = nowNs();
      Part(N, P, T0);
      T = nowNs();
      if (P + 1 == Parts)
        Jobs.add(T - T0);
      else
        Jobs.addPart(T - T0);
    }
  Jobs.finish();
  return N;
}

/// Reports how much more a job costs traced than in the untraced
/// reference phase.
inline void addTraceOverhead(Report &Rep, const CycleSamples &Untraced,
                             const CycleSamples &Traced) {
  double U = Untraced.jobsPerGcycle(), T = Traced.jobsPerGcycle();
  Rep.add(MetricKind::Layer, "trace.overhead_pct", T > 0 ? (U / T - 1) * 100 : 0,
          "%", Traced.count());
}

// The workloads (one file each).
int runCompile(const RunConfig &Cfg);
int runBatch(const RunConfig &Cfg);
int runServe(const RunConfig &Cfg);
int runPipeline(const RunConfig &Cfg);

} // namespace regbench

#endif // REGBENCH_HARNESS_H
