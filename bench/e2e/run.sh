#!/usr/bin/env bash
# bench/e2e/run.sh - build regbench and run the end-to-end benchmark.
#
#   bench/e2e/run.sh                      every workload once, untraced
#   bench/e2e/run.sh --trace              ... then again traced, same seed
#   bench/e2e/run.sh --workload serve --seed 7 --trace 0
#                                         one run; its last stdout line is
#                                         the run's JSON summary
#   bench/e2e/run.sh --runs 5 --out a.json
#                                         5 runs per workload (seeds N..N+4)
#                                         collected into one set file for
#                                         bench/e2e/agree.py
#   bench/e2e/run.sh --smoke              every workload for about 1 s,
#                                         untraced and traced, checks on
#
# A run measures for --seconds S, by default BENCHMARK.json's
# run_seconds.
#
# The first call configures build-e2e/ at the repository root (Release,
# the repository's flags) and every call rebuilds regbench if needed.
# Results land in build-e2e/results/. Exits non-zero if the build fails
# or any run fails an output check.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(cd "$HERE/../.." && pwd)
BUILD="$ROOT/build-e2e"
RESULTS="$BUILD/results"

DEFAULT_SEED=1

usage() {
  echo "usage: bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]" \
       "[--trace [0|1]] [--smoke] [--runs N] [--out FILE]" >&2
  exit 2
}

workloads=(compile batch serve pipeline)
seed=$DEFAULT_SEED
seconds=""
modes=(0)
smoke=()
runs=1
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workloads=("$2"); shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    --trace)
      if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        modes=("$2"); shift 2
      else
        modes=(0 1); shift
      fi ;;
    --smoke) smoke=(--smoke); modes=(0 1); shift ;;
    --runs) [ $# -ge 2 ] || usage; runs=$2; shift 2 ;;
    --out) [ $# -ge 2 ] || usage; out=$2; shift 2 ;;
    *) usage ;;
  esac
done
case "$seed$runs" in *[!0-9]*) usage ;; esac
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
            "$ROOT/BENCHMARK.json")
fi

mkdir -p "$BUILD"
log="$BUILD/build.log"
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  if ! cmake -S "$HERE" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    rm -f "$BUILD/CMakeCache.txt"
    echo "run.sh: configuring regbench failed (full log: $log)" >&2
    exit 1
  fi
fi
if ! cmake --build "$BUILD" --target regbench -j 2 >>"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: building regbench failed (full log: $log)" >&2
  exit 1
fi

commit=$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)
regbench=("$BUILD/regbench" --out-dir "$RESULTS" --commit "$commit"
          --seconds "$seconds" "${smoke[@]}")

# One run: hand the terminal to regbench, whose last line is the summary.
if [ ${#workloads[@]} -eq 1 ] && [ "$runs" -eq 1 ] && [ ${#modes[@]} -eq 1 ]; then
  exec "${regbench[@]}" --workload "${workloads[0]}" --seed "$seed" \
       --trace "${modes[0]}"
fi

status=0
files=()
for workload in "${workloads[@]}"; do
  for ((i = 0; i < runs; i++)); do
    s=$((seed + i))
    for mode in "${modes[@]}"; do
      if ! "${regbench[@]}" --workload "$workload" --seed "$s" --trace "$mode"; then
        status=1
        echo "FAILED: $workload seed $s trace $mode" >&2
      fi
      files+=("$RESULTS/$workload-seed$s-trace$mode.json")
    done
  done
done

if [ "$runs" -gt 1 ] || [ -n "$out" ]; then
  out=${out:-$RESULTS/set-$(date +%Y%m%d-%H%M%S).json}
  python3 - "$out" "${files[@]}" <<'EOF'
import json, sys
runs = [json.load(open(f)) for f in sys.argv[2:]]
with open(sys.argv[1], "w") as f:
    json.dump({"runs": runs}, f, indent=1)
print("set file:", sys.argv[1], "(%d runs)" % len(runs))
EOF
fi
exit $status
