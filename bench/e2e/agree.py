#!/usr/bin/env python3
"""Compare two sets of regbench runs, metric by metric.

    agree.py A.json B.json          does set B agree with set A?
    agree.py --spread A.json        medians and spreads of one set
    agree.py --check-spec RUN.json  a run reports exactly BENCHMARK.json's
                                    metrics, with their units
    agree.py --self-test

A set file holds many runs (bench/e2e/run.sh --runs N --out FILE). For
each (workload, end-to-end metric) pair the comparison prints both
medians, each side's quartile spread (q3 - q1, as a share of its median,
from statistics.quantiles(values, n=4)) and a verdict:

    agree       the medians differ by no more than the metric's bound
    differ      they differ by more
    unresolved  either side's own spread is wider than the bound, so
                the sets cannot tell

"steady" marks a spread below a third of the bound. Bounds come from
BENCHMARK.json at the repository root. Exit status: 0 when every pair
agrees, 1 otherwise, 2 on bad input.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    """The untraced runs of a set file (or a single result file)."""
    with open(path) as f:
        data = json.load(f)
    runs = data["runs"] if "runs" in data else [data]
    return [r for r in runs if r.get("trace", 0) == 0]


def values_by_pair(runs, names):
    """{(workload, metric): [values]} over correct runs."""
    out = {}
    for run in runs:
        if not run.get("correct"):
            continue
        for m in run["metrics"]:
            if m["name"] in names and m["kind"] == "end_to_end":
                out.setdefault((run["workload"], m["name"]), []).append(m["value"])
    return out


def summary(values):
    """(median, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def verdict(a, b, bound):
    """Verdict for value lists a and b under a relative bound."""
    ma, sa = summary(a)
    mb, sb = summary(b)
    if sa > bound or sb > bound:
        return "unresolved", ma, sa, mb, sb
    delta = abs(mb - ma) / abs(ma) if ma else float("inf")
    return ("agree" if delta <= bound else "differ"), ma, sa, mb, sb


def fmt_spread(s, bound):
    mark = "*" if s <= bound / 3 else " "
    return "%6.2f%%%s" % (100 * s, mark)


def compare(path_a, path_b, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a = values_by_pair(load_runs(path_a), bounds)
    b = values_by_pair(load_runs(path_b), bounds)
    print("%-9s %-11s %14s %8s %14s %8s %6s  %s" %
          ("workload", "metric", "median A", "spread", "median B", "spread",
           "bound", "verdict"))
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        for name, bound in bounds.items():
            va, vb = a.get((w, name)), b.get((w, name))
            if not va or not vb:
                print("%-9s %-11s missing on side %s" % (w, name, "A" if not va else "B"))
                ok = False
                continue
            v, ma, sa, mb, sb = verdict(va, vb, bound)
            ok = ok and v == "agree"
            print("%-9s %-11s %14.6g %s %14.6g %s %5.0f%%  %s (n=%d/%d)" %
                  (w, name, ma, fmt_spread(sa, bound), mb, fmt_spread(sb, bound),
                   100 * bound, v, len(va), len(vb)))
    print("* spread below a third of the bound (steady)")
    return 0 if ok else 1


def spread(path, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    vals = values_by_pair(load_runs(path), bounds)
    steady = True
    for (w, name), v in sorted(vals.items()):
        med, s = summary(v)
        bound = bounds[name]
        ok = s <= bound / 3 or name == "setup_s"
        steady = steady and ok
        print("%-9s %-11s median %14.6g spread %s bound %3.0f%% n=%d%s" %
              (w, name, med, fmt_spread(s, bound), 100 * bound, len(v),
               "" if ok else "  NOT STEADY"))
    return 0 if steady else 1


def check_spec(path, spec):
    """The run's final-line metrics (by kind) match the spec exactly."""
    with open(path) as f:
        run = json.load(f)
    kind = "per_layer" if run.get("trace") else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {m["name"]: m["unit"] for m in run["metrics"] if m["kind"] == kind}
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append("missing %s" % name)
        elif name not in want:
            problems.append("not in BENCHMARK.json: %s" % name)
        elif want[name] != got[name]:
            problems.append("%s: unit %s, BENCHMARK.json says %s" %
                            (name, got[name], want[name]))
    if run["workload"] not in [w["name"] for w in spec["workloads"]]:
        problems.append("workload %s not in BENCHMARK.json" % run["workload"])
    if not run.get("correct"):
        problems.append("the run failed its output checks")
    for p in problems:
        print("check-spec: %s: %s" % (path, p))
    return 1 if problems else 0


def self_test():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    base = [100.0, 101.0, 99.0, 100.5, 99.5]

    def check(cond, what):
        if not cond:
            raise SystemExit("self-test failed: " + what)

    med, s = summary(base)
    check(med == 100.0, "median")
    q1, _, q3 = statistics.quantiles(base, n=4)
    check(abs(s - (q3 - q1) / 100.0) < 1e-12, "spread is the quartile distance")
    check(verdict(base, base, 0.1)[0] == "agree", "identical sets agree")
    check(verdict(base, [v * 1.05 for v in base], 0.1)[0] == "agree",
          "5% apart agrees under a 10% bound")
    check(verdict(base, [v * 1.3 for v in base], 0.1)[0] == "differ",
          "30% apart differs under a 10% bound")
    check(verdict(base, [v * 0.7 for v in base], 0.1)[0] == "differ",
          "a drop differs too")
    noisy = [50.0, 100.0, 150.0, 70.0, 130.0]
    check(verdict(base, noisy, 0.1)[0] == "unresolved",
          "a wide side is unresolved")
    check(verdict(noisy, base, 0.1)[0] == "unresolved",
          "either side can be wide")
    check(summary([5.0])[1] == float("inf"), "one value has no spread")

    import tempfile
    with tempfile.TemporaryDirectory() as d:
        def write(name, runs):
            p = Path(d) / name
            p.write_text(json.dumps({"runs": runs}))
            return str(p)

        def run(v, correct=True, trace=0):
            return {"workload": "w", "trace": trace, "correct": correct,
                    "metrics": [{"name": "m", "value": v, "unit": "s",
                                 "kind": "end_to_end"}]}

        a = write("a.json", [run(v) for v in base])
        b = write("b.json", [run(v) for v in base] + [run(1e9, correct=False),
                                                      run(1e9, trace=1)])
        check(compare(a, b, spec) == 0, "failed and traced runs are ignored")
        c = write("c.json", [run(v * 2) for v in base])
        check(compare(a, c, spec) == 1, "a doubled set differs")
        one = Path(d) / "one.json"
        one.write_text(json.dumps(run(1.0)))
        check(check_spec(str(one), spec) == 0, "a matching run passes")
        bad = run(1.0)
        bad["metrics"][0]["unit"] = "ms"
        one.write_text(json.dumps(bad))
        check(check_spec(str(one), spec) == 1, "a wrong unit fails")
    real = load_spec()
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in real[kind]]
        check(len(names) == len(set(names)), "unique %s names" % kind)
    check(any(m["name"] == "setup_s" for m in real["end_to_end"]),
          "BENCHMARK.json has setup_s")
    print("agree.py self-test: ok")
    return 0


def main(argv):
    try:
        if argv == ["--self-test"]:
            return self_test()
        if len(argv) == 2 and argv[0] == "--spread":
            return spread(argv[1], load_spec())
        if len(argv) == 2 and argv[0] == "--check-spec":
            return check_spec(argv[1], load_spec())
        if len(argv) == 2 and not argv[0].startswith("-"):
            return compare(argv[0], argv[1], load_spec())
    except (OSError, ValueError, KeyError) as e:
        print("agree.py: %s" % e, file=sys.stderr)
        return 2
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
