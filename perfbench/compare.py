#!/usr/bin/env python3
"""Compares two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the JSONL records run.py appends (one per run). Only
untraced runs enter the comparison. For every workload and end-to-end
metric in BENCHMARK.json it prints each side's median and quartiles, the
share of paired runs the change won (runs pair by seed, else by order; ties
count for neither side) and a verdict under the metric's bound:

  unresolved   a side's quartile spread, as a share of its median, is wider than
               the bound, and the runs of one side do not all beat the other's
  regressed    the change's median is worse than the base's by more than the bound
  improved     the change won at least 9 of 10 pairs and the medians differ by
               more than the base's quartile spread
  unchanged    none of the above

Exits 1 when any metric regressed or a run failed its checks, else 0.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace", 0) == 0:
            runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in change) and len(by_seed) == len(base):
        return [(by_seed[r["seed"]], r) for r in change]
    return list(zip(base, change))


def verdict(metric, base_vals, change_vals, won):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    b1, bm, b3 = quartiles(base_vals)
    c1, cm, c3 = quartiles(change_vals)
    better = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    worse = (cm - bm) / bm if lower else (bm - cm) / bm
    if (b3 - b1) / bm > bound or (c3 - c1) / cm > bound:
        if all(better(c, b) for c in change_vals for b in base_vals):
            return "improved"
        if worse > bound and all(better(b, c) for c in change_vals for b in base_vals):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if won >= 0.9 and abs(cm - bm) > (b3 - b1):
        return "improved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    header = f"{'workload':<16} {'metric':<14} {'base median [q1, q3]':>34} " \
             f"{'change median [q1, q3]':>34} {'won':>5}  verdict"
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, c_runs = base.get(workload, []), change.get(workload, [])
        if not b_runs or not c_runs:
            print(f"{workload:<16} (no runs on {'base' if not b_runs else 'change'} side)")
            continue
        for side, runs in (("base", b_runs), ("change", c_runs)):
            failed = [r["seed"] for r in runs if not r["correct"]]
            if failed:
                print(f"{workload:<16} {side}: runs with seeds {failed} failed their checks")
                status = 1
        paired = pairs(b_runs, c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_vals = [r["metrics"][name]["value"] for r in b_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            lower = metric["better"] == "lower"
            wins = sum(1 for b, c in paired
                       if (c["metrics"][name]["value"] < b["metrics"][name]["value"]) == lower
                       and c["metrics"][name]["value"] != b["metrics"][name]["value"])
            won = wins / len(paired) if paired else 0.0
            v = verdict(metric, b_vals, c_vals, won)
            status = 1 if v == "regressed" else status
            b1, bm, b3 = quartiles(b_vals)
            c1, cm, c3 = quartiles(c_vals)
            print(f"{workload:<16} {name:<14} {bm:>14.6g} [{b1:.6g}, {b3:.6g}]"
                  f" {cm:>14.6g} [{c1:.6g}, {c3:.6g}] {won:>5.0%}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
