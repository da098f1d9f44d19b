#!/usr/bin/env python3
"""Validates the JSON artifacts the rstat observability layer emits.

Usage: validate_trace.py [--trace trace.json] [--metrics rstat_metrics.json]

Checks that the trace file is well-formed Chrome trace-event JSON
(the Perfetto / chrome://tracing interchange format) containing only
the rstat event vocabulary with sane payloads — instant lifecycle
events plus the derived live-regions/live-bytes/pooled-regions
counter tracks — and
that the metrics file carries every section and counter invariant a
MetricsSnapshot guarantees. Either artifact may be validated alone.
Exits 0 when everything given passes, 1 otherwise.
"""

import argparse
import json
import sys

EVENT_NAMES = {
    "newregion",
    "deleteregion",
    "deleteregion-refused",
    "run-grab",
    "run-free",
    "coalesce-sweep",
    "quarantine-evict",
    "share",
    "trydelete",
    "trydelete-refused",
    "resolve-stale",
    "quiesce",
    "trydelete-handoff",
    "resetregion",
    "resetregion-refused",
    "pool-acquire",
    "pool-release",
    "pool-trim",
}

# Derived heap-shape counter tracks ("C" phase events): name -> the
# args series key carrying the running value.
COUNTER_NAMES = {
    "live-regions": "regions",
    "live-bytes": "bytes",
    "pooled-regions": "regions",
}

MANAGER_KEYS = [
    "totalAllocs", "totalRequestedBytes", "liveRequestedBytes",
    "maxLiveRequestedBytes", "totalRegions", "liveRegions",
    "maxLiveRegions", "maxRegionBytes", "deleteAttempts",
    "deleteFailures", "resetRegions", "resetRefusals",
    "cleanupThunksRun", "cleanupScansSkipped", "barrierStores",
    "barrierSameRegion", "barrierAdjustments",
]

POOL_KEYS = ["hits", "misses", "releases", "trims"]

PAGESOURCE_KEYS = [
    "osBytes", "inUseBytes", "reservedPages", "frontierPages",
    "freeListedPages", "quarantinedPages",
    "coalesceSweeps", "quarantineEvictions",
]

HISTOGRAM_KEYS = [
    "regionSizeClasses", "liveRegionSizeClasses", "regionLifetimes",
]


def fail(errors, msg):
    errors.append(msg)


def validate_trace(path, errors):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("displayTimeUnit") != "ns":
        fail(errors, "trace: displayTimeUnit is not 'ns'")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(errors, "trace: traceEvents missing or not a list")
        return 0
    if not events:
        fail(errors, "trace: no events recorded (armed run expected some)")
    per_tid_ts = {}
    counters = 0
    counter_tracks = set()
    for i, e in enumerate(events):
        where = f"trace event #{i}"
        if e.get("cat") != "region":
            fail(errors, f"{where}: cat is not 'region'")
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(errors, f"{where}: bad ts {ts!r}")
        if not isinstance(e.get("tid"), int):
            fail(errors, f"{where}: bad tid {e.get('tid')!r}")
        args = e.get("args")
        if e.get("ph") == "C":
            # Derived heap-shape counter: value must be the track's
            # series key, a non-negative integer (the exporter clamps).
            counters += 1
            counter_tracks.add(e.get("name"))
            series = COUNTER_NAMES.get(e.get("name"))
            if series is None:
                fail(errors, f"{where}: unknown counter {e.get('name')!r}")
            elif (not isinstance(args, dict)
                    or not isinstance(args.get(series), int)
                    or args[series] < 0):
                fail(errors, f"{where}: counter args must carry a "
                             f"non-negative integer {series!r}")
            continue
        if e.get("name") not in EVENT_NAMES:
            fail(errors, f"{where}: unknown event name {e.get('name')!r}")
        if e.get("ph") != "i":
            fail(errors, f"{where}: ph is not 'i' (instant)")
        if e.get("s") != "t":
            fail(errors, f"{where}: scope is not 't' (thread)")
        if (not isinstance(args, dict)
                or not isinstance(args.get("a"), int)
                or not isinstance(args.get("b"), int)):
            fail(errors, f"{where}: args must carry integer a and b")
        # Per-ring order: each thread's ring is exported oldest-first,
        # so timestamps must be non-decreasing within one tid.
        tid = e.get("tid")
        if isinstance(ts, (int, float)) and isinstance(tid, int):
            if ts < per_tid_ts.get(tid, 0):
                fail(errors, f"{where}: ts goes backwards within tid {tid}")
            per_tid_ts[tid] = ts
    names = {e.get("name") for e in events}
    for expected in ("newregion", "deleteregion", "run-grab", "run-free"):
        if expected not in names:
            fail(errors, f"trace: no {expected!r} event in an armed "
                         "region workload run")
    if "newregion" in names and counters == 0:
        fail(errors, "trace: no derived counter events ('C' phase) in a "
                     "trace with region lifecycle instants")
    if "pool-release" in names and "pooled-regions" not in counter_tracks:
        fail(errors, "trace: pool lifecycle instants present but no "
                     "'pooled-regions' counter track derived from them")
    return len(events)


def validate_metrics(path, errors):
    with open(path) as f:
        doc = json.load(f)
    mgr = doc.get("manager")
    pool = doc.get("pool")
    src = doc.get("pageSource")
    hist = doc.get("histograms")
    for section, keys, name in ((mgr, MANAGER_KEYS, "manager"),
                                (pool, POOL_KEYS, "pool"),
                                (src, PAGESOURCE_KEYS, "pageSource")):
        if not isinstance(section, dict):
            fail(errors, f"metrics: missing {name!r} section")
            continue
        for k in keys:
            if not isinstance(section.get(k), int) or section[k] < 0:
                fail(errors, f"metrics: {name}.{k} missing or not a "
                             "non-negative integer")
    if not isinstance(hist, dict):
        fail(errors, "metrics: missing 'histograms' section")
        return
    buckets = hist.get("logBuckets")
    for k in HISTOGRAM_KEYS:
        h = hist.get(k)
        if not isinstance(h, list) or len(h) != buckets:
            fail(errors, f"metrics: histograms.{k} missing or wrong length")
        elif any((not isinstance(v, int)) or v < 0 for v in h):
            fail(errors, f"metrics: histograms.{k} has non-count entries")
    if not (isinstance(mgr, dict) and isinstance(hist, dict)):
        return
    # Cross-section invariants.
    if isinstance(hist.get("regionSizeClasses"), list):
        total = sum(hist["regionSizeClasses"])
        if total != mgr.get("totalRegions"):
            fail(errors, "metrics: regionSizeClasses does not sum to "
                         f"totalRegions ({total} vs {mgr.get('totalRegions')})")
        live = sum(hist.get("liveRegionSizeClasses", []))
        if live != mgr.get("liveRegions"):
            fail(errors, "metrics: liveRegionSizeClasses does not sum to "
                         f"liveRegions ({live} vs {mgr.get('liveRegions')})")
        lifetimes = sum(hist.get("regionLifetimes", []))
        if lifetimes != mgr.get("totalRegions") - mgr.get("liveRegions"):
            fail(errors, "metrics: regionLifetimes does not sum to deleted "
                         "regions")
    if isinstance(src, dict):
        if src.get("inUseBytes", 0) > src.get("osBytes", 1 << 62):
            fail(errors, "metrics: inUseBytes exceeds osBytes")
        if src.get("frontierPages", 0) > src.get("reservedPages", 1 << 62):
            fail(errors, "metrics: frontierPages exceeds reservedPages")
    if mgr.get("deleteFailures", 0) > mgr.get("deleteAttempts", 0):
        fail(errors, "metrics: deleteFailures exceeds deleteAttempts")
    if mgr.get("liveRegions", 0) > mgr.get("totalRegions", 0):
        fail(errors, "metrics: liveRegions exceeds totalRegions")
    # A scan is skipped at most once per successful delete or reset.
    retired = (mgr.get("deleteAttempts", 0) - mgr.get("deleteFailures", 0)
               + mgr.get("resetRegions", 0))
    if mgr.get("cleanupScansSkipped", 0) > retired:
        fail(errors, "metrics: cleanupScansSkipped exceeds successful "
                     "deletes plus resets")
    if isinstance(pool, dict):
        # Pool counter tracks: every hit pops an entry a release once
        # parked, and every park was preceded by a successful in-place
        # reset, so the manager's resetRegions bounds releases.
        if pool.get("hits", 0) > pool.get("releases", 0):
            fail(errors, "metrics: pool.hits exceeds pool.releases")
        if pool.get("releases", 0) > mgr.get("resetRegions", 0):
            fail(errors, "metrics: pool.releases exceeds "
                         "manager.resetRegions")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace JSON")
    parser.add_argument("--metrics", help="metrics JSON")
    ns = parser.parse_args()
    if not ns.trace and not ns.metrics:
        parser.error("at least one of --trace / --metrics is required")

    errors = []
    n = validate_trace(ns.trace, errors) if ns.trace else 0
    if ns.metrics:
        validate_metrics(ns.metrics, errors)
    for e in errors:
        print(f"error: {e}")
    if errors:
        print(f"validate_trace: {len(errors)} problem(s)")
        return 1
    print(f"validate_trace: ok ({n} trace events, given artifacts valid)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
