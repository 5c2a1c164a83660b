#!/usr/bin/env python3
"""Tests the perf gate's comparison (perf_smoke_check.py) without running
perfbench.  Each case edits a copy of the committed BENCH_perfbench.json
(the first workload: every run, or only its first), feeds it to the gate
as a result and checks the exit status with HFSC_PERF_GATE=0 and =1.

    python3 tools/perf_gate_test.py
"""

import copy
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCH_perfbench.json")) as f:
    BASE = json.load(f)
W = next(iter(BASE["workloads"]))
PPS = statistics.median(r["metrics"]["pkts_per_s"]["value"]
                        for r in BASE["workloads"][W])


def halve_pps(run):
    """2x slower: every run at half the baseline's median."""
    run["metrics"]["pkts_per_s"]["value"] = PPS / 2


CASES = [
    # name, edit, every run?, (exit at HFSC_PERF_GATE=0, =1), needle
    ("identical", None, False, (0, 0), "perf-gate: OK"),
    ("2x slower pkts_per_s", halve_pps, True, (0, 1),
     f"{W} pkts_per_s: -50.0%"),
    ("correct false", lambda r: r.update(correct=False), False, (1, 1),
     f"{W} run 1: correct is false"),
    ("failed > 0", lambda r: r.update(failed=3), False, (1, 1),
     f"{W} run 1: failed is 3"),
    ("non-zero exit", lambda r: r.update(exit=1), False, (1, 1),
     f"{W} run 1: exit status 1"),
    ("metric missing", lambda r: r["metrics"].pop("dequeue_ns_p50"), False,
     (1, 1), f"{W} dequeue_ns_p50: missing from the result"),
]


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "result.json")
        for name, edit, every_run, want, needle in CASES:
            doc = copy.deepcopy(BASE)
            runs = doc["workloads"][W]
            for run in (runs if every_run else runs[:1]) if edit else []:
                edit(run)
            with open(path, "w") as f:
                json.dump(doc, f)
            for hard, code in zip("01", want):
                p = subprocess.run(
                    [sys.executable, os.path.join(HERE, "perf_smoke_check.py"),
                     path], env=dict(os.environ, HFSC_PERF_GATE=hard),
                    capture_output=True, text=True)
                ok = p.returncode == code and needle in p.stdout + p.stderr
                print(f"{'ok  ' if ok else 'FAIL'} {name} (HFSC_PERF_GATE="
                      f"{hard}): exit {p.returncode}, want {code}")
                if not ok:
                    print(p.stdout + p.stderr)
                    bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
