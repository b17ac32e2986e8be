#!/usr/bin/env python3
"""Summarize benchmark runs: one row per workload and metric.

Each argument is a file holding one run's standard output, as printed by
`bash perfbench/run.sh --workload W ...`; its first line names the
workload and its last line is the run's JSON result. For every metric
the table gives the median over runs, the first and third quartiles
(statistics.quantiles, n=4), the number of runs, and the spread
(q3 - q1) / median that BENCHMARK.json's bounds are checked against.

    python3 perfbench/summarize.py runs/*.out
"""
import json
import re
import statistics
import sys


def load(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    workload = None
    for line in lines:
        m = re.search(r"workload=(\S+)", line)
        if m:
            workload = m.group(1)
            break
    if not lines or not lines[-1].startswith("{"):
        return workload, None
    return workload, json.loads(lines[-1])


def main(paths):
    runs = {}
    for p in paths:
        workload, res = load(p)
        if res is None:
            print(f"{p}: no result line", file=sys.stderr)
            continue
        runs.setdefault(workload, []).append(res)
    print(f"{'workload':<14} {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'runs':>5} {'spread':>7}  unit")
    for workload in sorted(runs):
        results = runs[workload]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload:<14} {len(bad)} of {len(results)} runs incorrect or with failures")
        names = sorted({n for r in results for n in r["metrics"]})
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            unit = next(r["metrics"][name]["unit"] for r in results if name in r["metrics"])
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload:<14} {name:<26} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(vals):>5} {spread:>7.3f}  {unit}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
