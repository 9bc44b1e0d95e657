#!/usr/bin/env python3
"""Diffs a fresh google-benchmark JSON against a committed baseline.

Exits non-zero when any benchmark present in both files regressed by more
than the threshold (default 25%) in throughput. Throughput is taken from
items_per_second when the benchmark reports it, else from 1/real_time.
Benchmarks present in only one file are reported but never fail the check
(renames and new series must not break CI).

A missing baseline FILE is not an error: a newly added suite has no committed
baseline on its first CI run, so the check warns and passes (exit 0). A
baseline that exists but cannot be parsed still fails — silent corruption
must not disable the gate.

Overhead pairs (--overhead-pair "BASE,TEST"): an intra-file A/B gate that
needs no baseline — TEST's throughput in the FRESH file must be within
--overhead-threshold (default 3%) of BASE's. This is how the telemetry
overhead bar is enforced: BM_WrapTelemetry/telemetry:1 must stay within 3%
of BM_WrapTelemetry/telemetry:0 in BENCH_telemetry.json. Runs even when the
baseline file is missing.

Latency fields: per-benchmark counters matching p<digits>_* (p50_ns,
p99_ns, …) are compared against the baseline and surfaced as NON-BLOCKING
warnings when they moved past the threshold — request-latency quantiles on
shared runners are too jittery to gate merges, but a drift should be
visible in the CI log.

Repetitions: a benchmark run with --benchmark_repetitions=N appears N
times under one name; every comparison above uses the median throughput
over its repetitions (aggregate rows are skipped).

Linearity (--linearity "FAMILY,SMALL,LARGE"): Theorem 4.2's O(|P|·|dom|)
bound as a measured ratio in the FRESH file. The per-unit cost of
FAMILY/LARGE (median real time, divided by LARGE) is divided by that of
FAMILY/SMALL; a ratio above LINEARITY_MAX (1.3) prints a NON-BLOCKING
warning. FAMILY must report no items_per_second, so that its throughput is
1/real_time. E.g. BM_EvenA_Grounded,1024,131072 is the ns/node growth from
1k to 131k nodes, and BM_ProgramSize_Grounded,8,512 the per-rule growth
from 8 to 512 rules.

Usage:
  bench/check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.25]
      [--overhead-pair BASE,TEST]... [--overhead-threshold 0.03]
      [--linearity FAMILY,SMALL,LARGE]...

Exit codes: 0 ok (including missing baseline file), 1 regression past
threshold or overhead pair past its threshold, 2 unusable input.
"""

import argparse
import json
import os
import re
import statistics
import sys

LATENCY_FIELD_RE = re.compile(r"^p\d+(_|$)")
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
# Per-unit cost ratio above which --linearity warns.
LINEARITY_MAX = 1.3


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_benchmarks(doc):
    """name -> median throughput per second over its repetitions (higher is
    better): items_per_second when reported, else 1/real_time. Aggregate
    rows are skipped."""
    runs = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if not name:
            continue
        if "items_per_second" in bench:
            throughput = float(bench["items_per_second"])
        elif bench.get("real_time"):
            unit = TIME_UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
            throughput = 1e9 / (float(bench["real_time"]) * unit)
        else:
            continue
        runs.setdefault(name, []).append(throughput)
    return {name: statistics.median(values) for name, values in runs.items()}


def load_latency_fields(doc):
    """name -> {field: value} for p50/p99-style counters (lower is better)."""
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if not name:
            continue
        fields = {
            k: float(v)
            for k, v in bench.items()
            if LATENCY_FIELD_RE.match(k) and isinstance(v, (int, float))
        }
        if fields:
            out[name] = fields
    return out


def check_overhead_pairs(fresh, pairs, threshold):
    """Intra-file A/B: TEST must be within `threshold` of BASE. Returns the
    list of failures; missing names are a hard error (a renamed benchmark
    must not silently disable the gate)."""
    failures = []
    for pair in pairs:
        base_name, _, test_name = pair.partition(",")
        base_name, test_name = base_name.strip(), test_name.strip()
        if not base_name or not test_name:
            print(f"error: malformed --overhead-pair {pair!r}", file=sys.stderr)
            sys.exit(2)
        if base_name not in fresh or test_name not in fresh:
            missing = [n for n in (base_name, test_name) if n not in fresh]
            print(
                f"error: overhead pair names {missing} not in fresh results",
                file=sys.stderr,
            )
            sys.exit(2)
        base, test = fresh[base_name], fresh[test_name]
        overhead = (base - test) / base if base > 0 else 0.0
        marker = ""
        if overhead > threshold:
            marker = "  <-- OVER BUDGET"
            failures.append((test_name, overhead))
        print(
            f"overhead {test_name} vs {base_name}: "
            f"{base:.1f} -> {test:.1f} ({overhead:+.1%} of budget "
            f"{threshold:.0%}){marker}"
        )
    return failures


def warn_nonlinear(fresh, specs):
    """Prints the per-unit cost ratio LARGE/SMALL of each FAMILY,SMALL,LARGE
    spec from the median throughputs `fresh`, and a non-blocking warning
    above LINEARITY_MAX."""
    for spec in specs:
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != 3 or not parts[1].isdigit() or not parts[2].isdigit():
            print(f"error: malformed --linearity {spec!r}", file=sys.stderr)
            sys.exit(2)
        family, small, large = parts[0], int(parts[1]), int(parts[2])
        names = [f"{family}/{small}", f"{family}/{large}"]
        missing = [n for n in names if n not in fresh]
        if missing:
            print(f"error: linearity names {missing} not in fresh results",
                  file=sys.stderr)
            sys.exit(2)
        per_small = 1e9 / (fresh[names[0]] * small)
        per_large = 1e9 / (fresh[names[1]] * large)
        ratio = per_large / per_small
        marker = ""
        if ratio > LINEARITY_MAX:
            marker = f"  <-- warning: above {LINEARITY_MAX:.2f} — non-blocking"
        print(
            f"linearity {family}: {per_small:.1f} ns/unit at {small} -> "
            f"{per_large:.1f} ns/unit at {large} (ratio {ratio:.2f}){marker}"
        )


def warn_latency_drift(baseline_doc, fresh_doc, threshold):
    """Prints non-blocking warnings for p50/p99 movements past threshold."""
    base_lat = load_latency_fields(baseline_doc)
    fresh_lat = load_latency_fields(fresh_doc)
    for name in sorted(set(base_lat) & set(fresh_lat)):
        for field in sorted(set(base_lat[name]) & set(fresh_lat[name])):
            old, new = base_lat[name][field], fresh_lat[name][field]
            if old <= 0:
                continue
            delta = (new - old) / old
            if abs(delta) > threshold:
                direction = "regressed" if delta > 0 else "improved"
                print(
                    f"warning: {name} {field} {direction} "
                    f"{old:.0f} -> {new:.0f} ({delta:+.1%}) — non-blocking"
                )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fail when fresh throughput < (1 - threshold) * baseline",
    )
    parser.add_argument(
        "--overhead-pair",
        action="append",
        default=[],
        metavar="BASE,TEST",
        help="intra-file gate: TEST must be within --overhead-threshold of "
        "BASE in the FRESH file (repeatable)",
    )
    parser.add_argument(
        "--overhead-threshold",
        type=float,
        default=0.03,
        help="budget for --overhead-pair checks (default 3%%)",
    )
    parser.add_argument(
        "--linearity",
        action="append",
        default=[],
        metavar="FAMILY,SMALL,LARGE",
        help="warn when FAMILY's per-unit cost at LARGE exceeds "
        f"{LINEARITY_MAX} times its cost at SMALL (repeatable)",
    )
    args = parser.parse_args()

    fresh_doc = load_doc(args.fresh)
    fresh = load_benchmarks(fresh_doc)
    if not fresh:
        print("error: no comparable benchmarks found", file=sys.stderr)
        sys.exit(2)

    # The overhead pairs gate on the fresh file alone — they run (and can
    # fail) even on the first run of a new suite.
    overhead_failures = check_overhead_pairs(
        fresh, args.overhead_pair, args.overhead_threshold
    )
    warn_nonlinear(fresh, args.linearity)

    if not os.path.exists(args.baseline):
        print(
            f"warning: no baseline at {args.baseline} — first run of a new "
            "suite, nothing to compare against",
            file=sys.stderr,
        )
        sys.exit(1 if overhead_failures else 0)

    baseline_doc = load_doc(args.baseline)
    baseline = load_benchmarks(baseline_doc)
    if not baseline:
        print("error: no comparable benchmarks found", file=sys.stderr)
        sys.exit(2)

    regressions = []
    width = max(len(n) for n in sorted(set(baseline) | set(fresh)))
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'fresh':>12}  delta")
    for name in sorted(set(baseline) | set(fresh)):
        if name not in baseline:
            print(f"{name:<{width}}  {'—':>12}  {fresh[name]:>12.1f}  (new)")
            continue
        if name not in fresh:
            print(f"{name:<{width}}  {baseline[name]:>12.1f}  {'—':>12}  (gone)")
            continue
        old, new = baseline[name], fresh[name]
        delta = (new - old) / old if old > 0 else 0.0
        marker = ""
        if delta < -args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<{width}}  {old:>12.1f}  {new:>12.1f}  {delta:+7.1%}{marker}")

    warn_latency_drift(baseline_doc, fresh_doc, args.threshold)

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0%}:",
            file=sys.stderr,
        )
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        sys.exit(1)
    if overhead_failures:
        print(
            f"\nFAIL: {len(overhead_failures)} overhead pair(s) past "
            f"{args.overhead_threshold:.0%}:",
            file=sys.stderr,
        )
        for name, overhead in overhead_failures:
            print(f"  {name}: {overhead:+.1%}", file=sys.stderr)
        sys.exit(1)
    print(f"\nOK: no regression past {args.threshold:.0%}")


if __name__ == "__main__":
    main()
