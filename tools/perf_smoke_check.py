#!/usr/bin/env python3
"""Perf gate: run perfbench on every workload BENCHMARK.json lists and
compare its end-to-end metrics with the committed BENCH_perfbench.json.

Usage:
    perf_smoke_check.py               # run every workload, then compare
    perf_smoke_check.py RESULT_JSON   # compare a stored run instead

Paths are taken relative to the repository root, so it runs from any
directory.  Each workload runs BENCHMARK.json's own `command` with
`--trace 0` at the seed, run length and number of runs recorded in
BENCH_perfbench.json, the workloads taking turns.  The document of all
runs, shaped like the baseline, is written to
$CARGO_TARGET_DIR/perfbench-gate.json (.bench_build/ when unset); to
re-base, copy it over BENCH_perfbench.json, or join the run lists of
passes taken at different times for a median that spans the host's
busy and quiet stretches.

Every `end_to_end` metric of BENCHMARK.json is compared using that
metric's `better` and `bound`: its best value over a workload's runs
against its median over the baseline's.  Co-tenants on a shared host
only ever slow a run down, so the best of a few runs follows the
program (as perfbench's fast-decile estimator does within one run),
and one slow run cannot fail the gate.

  * a run that exits non-zero, says "correct": false, has failed > 0 or
    lacks a metric, or a result taken at another seed or run length,
    fails the gate (exit 1);
  * a metric worse than the baseline by more than its bound prints a
    warning, and fails the gate only with HFSC_PERF_GATE=1 in the
    environment: a busy host reads throughput well below an idle one.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return json.load(f)


def run_workloads(bench, base):
    """Runs every workload base["runs"] times, in turns; returns a
    document shaped like `base`."""
    doc = {key: base[key] for key in ("seed", "seconds", "runs")}
    doc["workloads"] = {w["name"]: [] for w in bench["workloads"]}
    for _ in range(base["runs"]):
        for name, runs in doc["workloads"].items():
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(base["seed"]),
                "--seconds", str(base["seconds"]), "--trace", "0"]
            print("perf-gate: " + " ".join(cmd), flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            result["exit"] = proc.returncode
            runs.append(result)
    return doc


def write_doc(doc, path):
    """Writes `doc` as JSON with one line per run."""
    head = json.dumps({k: doc[k] for k in ("seed", "seconds", "runs")})
    blocks = [f" {json.dumps(name)}: [\n" +
              ",\n".join("  " + json.dumps(r) for r in runs) + "\n ]"
              for name, runs in doc["workloads"].items()]
    with open(path, "w") as f:
        f.write(head[:-1] + ', "workloads": {\n' + ",\n".join(blocks) +
                "\n}}\n")


def values(runs, metric):
    """The metric's value in each of `runs`; None when any run lacks it."""
    vals = [r.get("metrics", {}).get(metric, {}).get("value") for r in runs]
    return None if None in vals else vals


def compare(bench, base, res):
    """Prints one row per metric; returns (failures, regressions)."""
    failures, regressions = [], []
    for key in ("seed", "seconds"):
        if res.get(key) != base[key]:
            failures.append(f"result {key} {res.get(key)} differs from the "
                            f"baseline's {base[key]}")
    for w in bench["workloads"]:
        name = w["name"]
        b = base["workloads"].get(name)
        r = res.get("workloads", {}).get(name)
        if not b or not r:
            failures.append(f"{name}: missing from the "
                            f"{'result' if b else 'baseline'}")
            continue
        for i, run in enumerate(r, 1):
            if run.get("exit", 0) != 0:
                failures.append(f"{name} run {i}: exit status {run['exit']}")
            if run.get("correct") is not True:
                failures.append(f"{name} run {i}: correct is "
                                f"{json.dumps(run.get('correct'))}")
            if run.get("failed") != 0:
                failures.append(f"{name} run {i}: failed is "
                                f"{json.dumps(run.get('failed'))}")
        for m in bench["end_to_end"]:
            metric = m["name"]
            bvals, rvals = values(b, metric), values(r, metric)
            if bvals is None or rvals is None:
                failures.append(f"{name} {metric}: missing from the "
                                f"{'baseline' if bvals is None else 'result'}")
                continue
            bv = statistics.median(bvals)
            if m["better"] == "higher":
                rv = max(rvals)
                worse = rv < bv * (1 - m["bound"])
            else:
                rv = min(rvals)
                worse = rv > bv * (1 + m["bound"])
            delta = f"{100 * (rv - bv) / bv:+.1f}%" if bv else "n/a"
            print(f"  {name:<11} {metric:<16} {bv:>14.6g} {rv:>14.6g} "
                  f"{delta:>8}  {'WORSE' if worse else 'ok'}")
            if worse:
                regressions.append(
                    f"{name} {metric}: {delta} vs the baseline ({m['better']}"
                    f" is better, bound {100 * m['bound']:.0f}%)")
    return failures, regressions


def main(argv):
    if len(argv) > 2:
        sys.exit(f"usage: {argv[0]} [RESULT_JSON]")
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    base = load(os.path.join(ROOT, "BENCH_perfbench.json"))
    if len(argv) == 2:
        res = load(argv[1])
    else:
        res = run_workloads(bench, base)
        out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build", "perfbench-gate.json")
        write_doc(res, out)
        print(f"perf-gate: result written to {out}")

    print(f"  {'workload':<11} {'metric':<16} {'baseline':>14} "
          f"{'best run':>14} {'delta':>8}")
    failures, regressions = compare(bench, base, res)
    hard = os.environ.get("HFSC_PERF_GATE") == "1"
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    for r in regressions:
        print(f"{'FAIL' if hard else 'WARNING'}: {r}", file=sys.stderr)
    if failures or (hard and regressions):
        print("perf-gate: FAILED")
        return 1
    if regressions:
        print("WARNING: set HFSC_PERF_GATE=1 to make a regression fatal; a "
              "slow or busy machine can also trip it", file=sys.stderr)
    print("perf-gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
