//===- bench/e2e/harness.cpp - regbench shared harness --------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/utsname.h>
#include <system_error>
#include <thread>

using namespace regions;

namespace regbench {

void Samples::add(std::uint64_t V) {
  ++Seen;
  Sorted = false;
  if (Values.size() < Cap) {
    Values.push_back(V);
    return;
  }
  std::uint64_t J = Rng.nextBelow(Seen);
  if (J < Cap)
    Values[J] = V;
}

double Samples::quantile(double Q) {
  if (Values.empty())
    return 0;
  if (!Sorted) {
    std::sort(Values.begin(), Values.end());
    Sorted = true;
  }
  double Pos = Q * static_cast<double>(Values.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return static_cast<double>(Values[Lo]) * (1 - Frac) +
         static_cast<double>(Values[Hi]) * Frac;
}

namespace {

double medianOf(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The reference loop: three independent multiply-add chains, each fed
/// back through a shift and an xor. Some 17 instructions an iteration
/// keep four execution ports busy, so the loop slows both when the clock
/// drops and when another hardware thread competes for the core. The
/// empty asm keeps every value in a register, so the compiler can neither
/// fold the chains nor drop the loop.
constexpr unsigned kRefIterations = 4096;
/// Cycles per iteration on an idle Xeon (family 6, model 207) core,
/// measured against a chain of dependent multiplies (three cycles each).
constexpr double kRefCyclesPerIteration = 4.45;
[[gnu::noinline]] void referenceLoop() {
  std::uint64_t A = 1, B = 2, C = 3, D = 4, E = 5, F = 6;
  for (unsigned I = 0; I != kRefIterations; ++I) {
    A = A * 0x9E37 + B;
    B ^= A >> 7;
    C = C * 0x85EB + D;
    D ^= C >> 5;
    E = E * 0xC2B2 + F;
    F ^= E >> 3;
    asm volatile("" : "+r"(A), "+r"(B), "+r"(C), "+r"(D), "+r"(E), "+r"(F));
  }
}

} // namespace

double measureClockGhz() {
  double Best = 0;
  for (unsigned Part = 0; Part != 3; ++Part) {
    const std::uint64_t T0 = nowNs();
    referenceLoop();
    const std::uint64_t T1 = nowNs();
    Best = std::max(Best, kRefIterations * kRefCyclesPerIteration /
                              static_cast<double>(T1 - T0 + 1));
  }
  return Best;
}

void CycleSamples::tick(std::uint64_t Now) {
  if (LastClockAt && Now - LastClockAt < kClockEveryNs)
    return;
  const double Ghz = measureClockGhz();
  Clocks.push_back(Ghz);
  convert(LastGhz ? (LastGhz + Ghz) / 2 : Ghz);
  LastGhz = Ghz;
  LastClockAt = nowNs();
}

void CycleSamples::finish() {
  LastClockAt = 0;
  tick(nowNs());
}

void CycleSamples::convert(double Ghz) {
  for (const Part &P : Pending) {
    OpenJobCycles += static_cast<double>(P.Ns) * Ghz + P.OtherCycles;
    if (!P.EndsJob)
      continue;
    Cycles.add(static_cast<std::uint64_t>(OpenJobCycles + 0.5));
    TotalCycles += OpenJobCycles;
    OpenJobCycles = 0;
  }
  Pending.clear();
}

double CycleSamples::jobsPerGcycle() const {
  return TotalCycles > 0 ? static_cast<double>(Cycles.count()) * 1e9 / TotalCycles
                         : 0;
}

double CycleSamples::medianGhz() const { return medianOf(Clocks); }

const char *layerName(Layer L) {
  switch (L) {
  case Layer::NewRegion:
    return "region.newregion";
  case Layer::Alloc:
    return "region.alloc";
  case Layer::AllocLarge:
    return "region.alloc_large";
  case Layer::Delete:
    return "region.delete";
  case Layer::PoolAcquire:
    return "pool.acquire";
  case Layer::PoolRelease:
    return "pool.release";
  case Layer::ParShare:
    return "par.share";
  case Layer::ParExchange:
    return "par.exchange";
  case Layer::ParTryDelete:
    return "par.trydelete";
  case Layer::Count:
    break;
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

void Tracer::beginRoot(const char *Name, std::uint64_t T0) {
  RootName = Name;
  RootStart = T0;
  RootId = NextId++;
  ChildNs = 0;
  RootAllocCalls = 0;
  RootAllocNs = 0;
}

void Tracer::endRoot(std::uint64_t T1) {
  std::uint64_t Dur = net(RootStart, T1);
  std::uint64_t Self = Dur > ChildNs ? Dur - ChildNs : 0;
  ++Roots;
  SelfNs += Self;
  if (Kept.size() < kKeptSpans)
    Kept.push_back({RootStart, T1, RootId, 0, RootName, Tid, RootAllocCalls,
                    RootAllocNs, Self});
  RootName = nullptr;
}

void Tracer::span(Layer L, std::uint64_t T0, std::uint64_t T1) {
  std::uint64_t Busy = net(T0, T1);
  Totals &Tot = Layers[static_cast<unsigned>(L)];
  ++Tot.Calls;
  Tot.BusyNs += Busy;
  // The call occupied its measured interval plus one more clock read.
  ChildNs += (T1 - T0) + clockReads();
  if (RootName && Kept.size() < kKeptSpans)
    Kept.push_back({T0, T1, NextId++, RootId, layerName(L), Tid, 0, 0, Busy});
}

void Tracer::alloc(std::uint64_t T0, std::uint64_t T1, std::size_t Size) {
  if (Size > RegionManager::maxRawAlloc()) {
    span(Layer::AllocLarge, T0, T1);
    return;
  }
  std::uint64_t Busy = net(T0, T1);
  Totals &Tot = Layers[static_cast<unsigned>(Layer::Alloc)];
  ++Tot.Calls;
  Tot.BusyNs += Busy;
  ChildNs += (T1 - T0) + clockReads();
  ++RootAllocCalls;
  RootAllocNs += Busy;
}

void Tracer::merge(const Tracer &Other) {
  for (unsigned I = 0; I != static_cast<unsigned>(Layer::Count); ++I) {
    Layers[I].Calls += Other.Layers[I].Calls;
    Layers[I].BusyNs += Other.Layers[I].BusyNs;
  }
  Roots += Other.Roots;
  SelfNs += Other.SelfNs;
  Kept.insert(Kept.end(), Other.Kept.begin(), Other.Kept.end());
}

namespace {
[[gnu::noinline]] void emptyCall() { asm volatile(""); }
} // namespace

double measureClockNs() {
  std::vector<std::uint64_t> D(20000);
  for (std::uint64_t &X : D) {
    std::uint64_t T0 = nowNs();
    emptyCall();
    X = nowNs() - T0;
  }
  std::sort(D.begin(), D.end());
  D.resize(D.size() * 9 / 10);
  double Sum = 0;
  for (std::uint64_t X : D)
    Sum += static_cast<double>(X);
  return Sum / static_cast<double>(D.size());
}

//===----------------------------------------------------------------------===//
// Library counters
//===----------------------------------------------------------------------===//

void LibraryCounters::addManager(const RegionManager &M) {
  MetricsSnapshot S = M.metrics();
  Stats.TotalAllocs += S.Stats.TotalAllocs;
  Stats.TotalRequestedBytes += S.Stats.TotalRequestedBytes;
  Stats.TotalRegions += S.Stats.TotalRegions;
  Stats.DeleteAttempts += S.Stats.DeleteAttempts;
  Stats.DeleteFailures += S.Stats.DeleteFailures;
  Stats.ResetRegions += S.Stats.ResetRegions;
  Stats.ResetRefusals += S.Stats.ResetRefusals;
  Stats.CleanupThunksRun += S.Stats.CleanupThunksRun;
  Stats.BarrierStores += S.Stats.BarrierStores;
  Stats.BarrierSameRegion += S.Stats.BarrierSameRegion;
  Stats.BarrierAdjustments += S.Stats.BarrierAdjustments;
  Pool.Hits += S.Pool.Hits;
  Pool.Misses += S.Pool.Misses;
  Pool.Releases += S.Pool.Releases;
  Pool.Trims += S.Pool.Trims;
  FrontierPages += S.FrontierPages;
  FreeListedPages += S.FreeListedPages;
  CoalesceSweeps += S.CoalesceSweeps;
  OsBytesMax = std::max<std::uint64_t>(OsBytesMax, S.OsBytes);
  ++Managers;
}

void LibraryCounters::closeStack() {
  const rt::RuntimeStack::Counters &Now =
      rt::RuntimeStack::current().counters();
  StackScans = Now.Scans - StackAtStart.Scans;
  FramesScanned = Now.FramesScanned - StackAtStart.FramesScanned;
}

void LibraryCounters::subtract(const LibraryCounters &B) {
  Stats.TotalAllocs -= B.Stats.TotalAllocs;
  Stats.TotalRequestedBytes -= B.Stats.TotalRequestedBytes;
  Stats.TotalRegions -= B.Stats.TotalRegions;
  Stats.DeleteAttempts -= B.Stats.DeleteAttempts;
  Stats.DeleteFailures -= B.Stats.DeleteFailures;
  Stats.ResetRegions -= B.Stats.ResetRegions;
  Stats.ResetRefusals -= B.Stats.ResetRefusals;
  Stats.CleanupThunksRun -= B.Stats.CleanupThunksRun;
  Stats.BarrierStores -= B.Stats.BarrierStores;
  Stats.BarrierSameRegion -= B.Stats.BarrierSameRegion;
  Stats.BarrierAdjustments -= B.Stats.BarrierAdjustments;
  Pool.Hits -= B.Pool.Hits;
  Pool.Misses -= B.Pool.Misses;
  Pool.Releases -= B.Pool.Releases;
  Pool.Trims -= B.Pool.Trims;
  FrontierPages -= B.FrontierPages;
  CoalesceSweeps -= B.CoalesceSweeps;
}

Counters LibraryCounters::fingerprint(bool WithPageSource) const {
  Counters C = {
      {"regions", Stats.TotalRegions},
      {"allocs", Stats.TotalAllocs},
      {"requested_bytes", Stats.TotalRequestedBytes},
      {"delete_attempts", Stats.DeleteAttempts},
      {"delete_failures", Stats.DeleteFailures},
      {"resets", Stats.ResetRegions},
      {"barrier_stores", Stats.BarrierStores},
      {"barrier_sameregion", Stats.BarrierSameRegion},
      {"barrier_adjustments", Stats.BarrierAdjustments},
      {"cleanup_thunks", Stats.CleanupThunksRun},
      {"stack_scans", StackScans},
      {"frames_scanned", FramesScanned},
      {"pool_hits", Pool.Hits},
      {"pool_misses", Pool.Misses},
      {"pool_trims", Pool.Trims},
  };
  if (WithPageSource) {
    C.push_back({"frontier_pages", FrontierPages});
    C.push_back({"free_listed_pages", FreeListedPages});
    C.push_back({"coalesce_sweeps", CoalesceSweeps});
    C.push_back({"os_bytes", OsBytesMax});
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::fail(std::uint64_t N, const std::string &Why) {
  Failed += N;
  if (Reasons.size() < 16)
    Reasons.push_back(Why);
}

void Report::setup(double Seconds, const Counters &C, bool Traced) {
  SetupSeconds.push_back(Seconds);
  if (SetupSeconds.size() == 1) {
    FirstCounters = C;
    return;
  }
  if (C == FirstCounters)
    return;
  // The set-up counts as one failed operation.
  std::string Why;
  for (std::size_t I = 0; I != C.size() && I != FirstCounters.size(); ++I)
    if (C[I] != FirstCounters[I])
      Why += (Why.empty() ? "" : ", ") + C[I].first + " " +
             std::to_string(FirstCounters[I].second) + " -> " +
             std::to_string(C[I].second);
  fail(1, std::string(Traced ? "traced" : "repeated") +
              " set-up changed library counters: " + Why);
}

void Report::addEndToEnd(CycleSamples &Jobs, std::uint64_t OsBytesPeak,
                         std::uint64_t Managers) {
  const std::uint64_t N = Jobs.count();
  add(MetricKind::EndToEnd, "setup_s", medianOf(SetupSeconds), "s",
      SetupSeconds.size());
  add(MetricKind::EndToEnd, "jobs_per_gcycle", Jobs.jobsPerGcycle(), "1/Gcycle",
      N);
  add(MetricKind::EndToEnd, "job_kcycles_p50", Jobs.quantileKcycles(0.50),
      "kcycles", N);
  add(MetricKind::EndToEnd, "job_kcycles_p90", Jobs.quantileKcycles(0.90),
      "kcycles", N);
  add(MetricKind::EndToEnd, "job_kcycles_p99", Jobs.quantileKcycles(0.99),
      "kcycles", N);
  add(MetricKind::EndToEnd, "os_kb_peak",
      static_cast<double>(OsBytesPeak) / 1024.0, "KiB", Managers);
  add(MetricKind::Info, "clock_ghz", Jobs.medianGhz(), "GHz", N);
}

namespace {
double ratio(std::uint64_t Num, std::uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0;
}
} // namespace

void Report::addLayers(const Tracer &T, const LibraryCounters &C,
                       std::uint64_t PoolReleaseRefused,
                       std::uint64_t TryDeleteRefused,
                       std::uint64_t LockFreeRefusals) {
  // The per-layer metrics in BENCHMARK.json are the ones every workload
  // reports with a meaningful value; times of layers a workload never
  // calls would read zero on every run, so those go to Info lines.
  auto Kind = [](bool Declared) {
    return Declared ? MetricKind::Layer : MetricKind::Info;
  };
  std::uint64_t LibNs = 0;
  for (unsigned I = 0; I != static_cast<unsigned>(Layer::Count); ++I) {
    Layer L = static_cast<Layer>(I);
    const Tracer::Totals &Tot = T.totals(L);
    std::string Name = layerName(L);
    bool IsAlloc = L == Layer::Alloc;
    bool CallsDeclared = L != Layer::PoolRelease && L != Layer::ParExchange;
    LibNs += Tot.BusyNs;
    add(Kind(CallsDeclared), Name + ".calls", static_cast<double>(Tot.Calls),
        "count", Tot.Calls);
    add(Kind(IsAlloc), Name + ".busy_ms", static_cast<double>(Tot.BusyNs) / 1e6,
        "ms", Tot.Calls);
    add(Kind(IsAlloc), Name + ".ns_per_call",
        ratio(Tot.BusyNs, Tot.Calls), "ns", Tot.Calls);
  }
  add(MetricKind::Layer, "lib.busy_ms", static_cast<double>(LibNs) / 1e6, "ms",
      T.roots());
  add(MetricKind::Info, "region.delete.refused",
      static_cast<double>(C.Stats.DeleteFailures), "count",
      C.Stats.DeleteAttempts);
  const RegionStats &S = C.Stats;
  add(MetricKind::Layer, "region.barrier.stores",
      static_cast<double>(S.BarrierStores), "count", S.BarrierStores);
  add(MetricKind::Info, "region.barrier.sameregion",
      static_cast<double>(S.BarrierSameRegion), "count", S.BarrierStores);
  add(MetricKind::Layer, "region.barrier.adjustments",
      static_cast<double>(S.BarrierAdjustments), "count", S.BarrierStores);
  add(MetricKind::Layer, "region.barrier.same_ratio",
      ratio(S.BarrierSameRegion, S.BarrierStores), "ratio", S.BarrierStores);
  add(MetricKind::Layer, "region.stackscan.scans",
      static_cast<double>(C.StackScans), "count", C.StackScans);
  add(MetricKind::Layer, "region.stackscan.frames_scanned",
      static_cast<double>(C.FramesScanned), "count", C.StackScans);
  add(MetricKind::Layer, "region.cleanup.thunks_run",
      static_cast<double>(S.CleanupThunksRun), "count", S.CleanupThunksRun);
  add(MetricKind::Layer, "pagesource.frontier_pages",
      static_cast<double>(C.FrontierPages), "count", C.Managers);
  add(MetricKind::Info, "pagesource.free_listed_pages",
      static_cast<double>(C.FreeListedPages), "count", C.Managers);
  add(MetricKind::Layer, "pagesource.coalesce_sweeps",
      static_cast<double>(C.CoalesceSweeps), "count", C.Managers);
  add(MetricKind::Layer, "pagesource.os_kb",
      static_cast<double>(C.OsBytesMax) / 1024.0, "KiB", C.Managers);
  std::uint64_t Acquires = C.Pool.Hits + C.Pool.Misses;
  add(MetricKind::Layer, "pool.acquire.hit_ratio", ratio(C.Pool.Hits, Acquires),
      "ratio", Acquires);
  add(MetricKind::Info, "pool.release.refused",
      static_cast<double>(PoolReleaseRefused), "count",
      T.totals(Layer::PoolRelease).Calls);
  add(MetricKind::Layer, "pool.release.trims", static_cast<double>(C.Pool.Trims),
      "count", T.totals(Layer::PoolRelease).Calls);
  std::uint64_t TryDeletes = T.totals(Layer::ParTryDelete).Calls;
  add(MetricKind::Info, "par.trydelete.refused",
      static_cast<double>(TryDeleteRefused), "count", TryDeletes);
  add(MetricKind::Layer, "par.trydelete.lockfree_refusals",
      static_cast<double>(LockFreeRefusals), "count", TryDeletes);
  add(MetricKind::Layer, "par.trydelete.accept_ratio",
      ratio(TryDeletes - TryDeleteRefused, TryDeletes), "ratio", TryDeletes);
  add(MetricKind::Layer, "app.self_ms", static_cast<double>(T.selfNs()) / 1e6,
      "ms", T.roots());
  add(MetricKind::Layer, "trace.clock_ns", static_cast<double>(T.clockNs()),
      "ns", 1);
}

void Report::setChromeTrace(const Tracer &T) {
  ChromeSpans = T.spans();
  ChromeBase = ~std::uint64_t{0};
  for (const Span &S : ChromeSpans)
    ChromeBase = std::min(ChromeBase, S.Start);
}

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.12g", V);
  return Buf;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      std::size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string kernel() {
  utsname U;
  if (uname(&U) != 0)
    return "unknown";
  return std::string(U.sysname) + " " + U.release;
}

const char *kindName(MetricKind K) {
  switch (K) {
  case MetricKind::EndToEnd:
    return "end_to_end";
  case MetricKind::Layer:
    return "per_layer";
  case MetricKind::Info:
    return "info";
  }
  return "?";
}

} // namespace

int Report::finish() {
  if (Attempted == 0)
    fail(1, "no operation was attempted");
  add(MetricKind::Info, "failed_frac", ratio(Failed, Attempted), "ratio",
      Attempted);
  const std::string &W = Cfg.Workload;
  for (const Metric &M : Metrics)
    std::printf("%s %s %s %s n=%llu\n", W.c_str(), M.Name.c_str(),
                number(M.Value).c_str(), M.Unit.c_str(),
                static_cast<unsigned long long>(M.N));
  for (const std::string &R : Reasons)
    std::printf("%s check: %s\n", W.c_str(), R.c_str());

  std::string Stem = Cfg.OutDir + "/" + W + "-seed" + std::to_string(Cfg.Seed) +
                     "-trace" + (Cfg.Trace ? "1" : "0");
  std::error_code Ec;
  std::filesystem::create_directories(Cfg.OutDir, Ec);
  if (Ec) {
    fail(1, "cannot create " + Cfg.OutDir);
  } else {
    std::ofstream Out(Stem + ".json");
    Out << "{\n  \"workload\": " << jsonString(W)
        << ",\n  \"seed\": " << Cfg.Seed
        << ",\n  \"seconds\": " << number(Cfg.Seconds)
        << ",\n  \"trace\": " << (Cfg.Trace ? 1 : 0)
        << ",\n  \"machine\": {\"commit\": " << jsonString(Cfg.Commit)
        << ", \"cpu\": " << jsonString(cpuModel())
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"compiler\": " << jsonString(REGBENCH_COMPILER)
        << ", \"kernel\": " << jsonString(kernel())
        << ", \"build_type\": " << jsonString(REGBENCH_BUILD_TYPE) << "}"
        << ",\n  \"correct\": " << (ok() ? "true" : "false")
        << ",\n  \"attempted\": " << Attempted
        << ",\n  \"failed\": " << Failed << ",\n  \"checks\": [";
    for (std::size_t I = 0; I != Reasons.size(); ++I)
      Out << (I ? ", " : "") << jsonString(Reasons[I]);
    Out << "],\n  \"counters\": {";
    for (std::size_t I = 0; I != FirstCounters.size(); ++I)
      Out << (I ? ", " : "") << jsonString(FirstCounters[I].first) << ": "
          << FirstCounters[I].second;
    Out << "},\n  \"metrics\": [\n";
    for (std::size_t I = 0; I != Metrics.size(); ++I) {
      const Metric &M = Metrics[I];
      Out << "    {\"name\": " << jsonString(M.Name)
          << ", \"value\": " << number(M.Value)
          << ", \"unit\": " << jsonString(M.Unit) << ", \"n\": " << M.N
          << ", \"kind\": \"" << kindName(M.Kind) << "\"}"
          << (I + 1 != Metrics.size() ? ",\n" : "\n");
    }
    Out << "  ]\n}\n";
    if (!Out)
      fail(1, "cannot write " + Stem + ".json");
  }
  if (Cfg.Trace && !Ec) {
    // Chrome trace-event format ("X" complete events, microseconds);
    // loads in chrome://tracing and Perfetto.
    std::ofstream Out(Stem + ".trace.json");
    Out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    for (std::size_t I = 0; I != ChromeSpans.size(); ++I) {
      const Span &S = ChromeSpans[I];
      Out << "{\"name\": " << jsonString(S.Name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << S.Tid
          << ", \"ts\": " << number(static_cast<double>(S.Start - ChromeBase) / 1e3)
          << ", \"dur\": " << number(static_cast<double>(S.End - S.Start) / 1e3)
          << ", \"args\": {\"id\": " << S.Id << ", \"parent\": " << S.Parent
          << ", \"self_ns\": " << S.SelfNs;
      if (!S.Parent)
        Out << ", \"alloc_calls\": " << S.AllocCalls
            << ", \"alloc_ns\": " << S.AllocNs;
      Out << "}}" << (I + 1 != ChromeSpans.size() ? ",\n" : "\n");
    }
    Out << "]}\n";
    if (!Out)
      fail(1, "cannot write " + Stem + ".trace.json");
  }

  MetricKind Want = Cfg.Trace ? MetricKind::Layer : MetricKind::EndToEnd;
  std::string Line = "{\"correct\": " + std::string(ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Metrics) {
    if (M.Kind != Want)
      continue;
    Line += (First ? "" : ", ") + jsonString(M.Name) + ": {\"value\": " +
            number(M.Value) + ", \"unit\": " + jsonString(M.Unit) + "}";
    First = false;
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return ok() ? 0 : 1;
}

} // namespace regbench
