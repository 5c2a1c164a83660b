#!/usr/bin/env python3
"""Perf-smoke gate: compare a fresh bench_throughput smoke run against the
committed BENCH_throughput.json trajectory.

Usage:
    perf_smoke_check.py BASELINE_JSON SMOKE_JSON [workload]

Compares the hfsc row for the given workload (default: wide1000 — the
headline row docs/BENCH_NOTES.md tracks; CI also checks deep8).

A smoke run uses far fewer packets than the committed full run, so the
comparison is deliberately loose: a short run spends a larger fraction
of its wall time warming caches and measures ~10-15% below the full-run
figure even on an identical tree.

  * regression of more than REGRESSION_PCT (25%) prints a loud warning;
  * with HFSC_PERF_GATE=1 in the environment the warning becomes a
    non-zero exit, failing CI.
"""

import json
import os
import sys

# A 200k-packet smoke run reads ~10-15% under the 10M-packet baseline on
# an identical tree (warmup fraction), so the gate triggers at 25%: it
# catches "someone pessimized the hot path", not methodology skew.
REGRESSION_PCT = 25.0


def load_row(path, workload):
    with open(path) as f:
        doc = json.load(f)
    for row in doc.get("results", []):
        if row.get("workload") == workload and row.get("scheduler") == "hfsc":
            return row
    sys.exit(
        f"FATAL: {path}: no hfsc/{workload} row "
        f"(schema_version={doc.get('schema_version')})"
    )


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(f"usage: {argv[0]} BASELINE_JSON SMOKE_JSON [workload]")
    workload = argv[3] if len(argv) == 4 else "wide1000"
    base = load_row(argv[1], workload)
    smoke = load_row(argv[2], workload)

    base_pps = float(base["pkts_per_sec"])
    smoke_pps = float(smoke["pkts_per_sec"])
    if base_pps <= 0:
        sys.exit(f"FATAL: baseline {argv[1]} has pkts_per_sec <= 0")
    delta_pct = 100.0 * (smoke_pps - base_pps) / base_pps
    print(
        f"perf-smoke {workload}: baseline {base_pps:,.0f} pkts/s "
        f"({base['packets']} pkts), smoke {smoke_pps:,.0f} pkts/s "
        f"({smoke['packets']} pkts): {delta_pct:+.1f}%"
    )

    if delta_pct < -REGRESSION_PCT:
        msg = (
            f"perf-smoke: {workload} regressed {-delta_pct:.1f}% "
            f"(> {REGRESSION_PCT:.0f}% threshold) vs committed baseline"
        )
        if os.environ.get("HFSC_PERF_GATE") == "1":
            sys.exit(f"FATAL: {msg} [HFSC_PERF_GATE=1]")
        print(f"WARNING: {msg}", file=sys.stderr)
        print(
            "WARNING: set HFSC_PERF_GATE=1 to make this fatal; a slow/busy "
            "CI machine can also trip it",
            file=sys.stderr,
        )
    else:
        print("perf-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
