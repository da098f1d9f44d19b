//===- bench/e2e/regbench.cpp - End-to-end benchmark ----------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Runs one workload for a fixed time and reports its metrics:
//
//   regbench --workload compile|batch|serve|pipeline [--seed N]
//            --seconds S|--smoke [--trace 0|1] [--out-dir DIR]
//            [--commit SHA]
//
// Every metric prints as "workload name value unit n=samples"; the last
// line of standard output is one JSON object with the run's correctness,
// operation counts and, with --trace 0, the end-to-end metrics or, with
// --trace 1, the per-layer metrics. The full result (machine
// fingerprint, library counters, every metric) is written to
// DIR/<workload>-seed<N>-trace<0|1>.json, and a traced run's spans to
// the matching .trace.json (Chrome trace-event format). The exit status
// is 0 only when every output check passed. bench/e2e/run.sh builds
// this program and drives it.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace regbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "regbench: %s\n"
               "usage: regbench --workload compile|batch|serve|pipeline "
               "[--seed N] --seconds S|--smoke [--trace 0|1] "
               "[--out-dir DIR] [--commit SHA]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *S, std::uint64_t &Out) {
  char *End = nullptr;
  if (!*S || *S == '-')
    return false;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--smoke") {
      Smoke = true;
      continue;
    }
    const char *V = Value();
    if (!V)
      return usage(("missing value for " + Arg).c_str());
    std::uint64_t N = 0;
    if (Arg == "--workload") {
      Cfg.Workload = V;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(V, Cfg.Seed))
        return usage("--seed takes a non-negative integer");
    } else if (Arg == "--seconds") {
      char *End = nullptr;
      Cfg.Seconds = std::strtod(V, &End);
      if (*End != '\0' || !(Cfg.Seconds > 0) || Cfg.Seconds > 3600)
        return usage("--seconds takes a number in (0, 3600]");
    } else if (Arg == "--trace") {
      if (!parseUnsigned(V, N) || N > 1)
        return usage("--trace takes 0 or 1");
      Cfg.Trace = N == 1;
    } else if (Arg == "--out-dir") {
      Cfg.OutDir = V;
    } else if (Arg == "--commit") {
      Cfg.Commit = V;
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
  }
  // About one second of measurement per workload, every check on.
  if (Smoke)
    Cfg.Seconds = 1;
  if (Cfg.Seconds == 0)
    return usage("--seconds (BENCHMARK.json's run_seconds) or --smoke is "
                 "required");

  if (Cfg.Workload == "compile")
    return runCompile(Cfg);
  if (Cfg.Workload == "batch")
    return runBatch(Cfg);
  if (Cfg.Workload == "serve")
    return runServe(Cfg);
  if (Cfg.Workload == "pipeline")
    return runPipeline(Cfg);
  return usage("--workload must be compile, batch, serve or pipeline");
}
