"""Compare two results files of the benchmark: parent and change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records ``run.py`` appends, one run per line.  For every
workload and end-to-end metric this prints each side's median and quartiles
and the pair wins (runs paired by seed, else by order; ties count for
neither side), then a verdict under the bounds in BENCHMARK.json:

* improved   - the change wins at least 9 of 10 pairs and the medians differ
               by more than the parent's quartile spread, or every change run
               beats every parent run;
* worse      - the change's median is worse than the parent's by more than
               the bound;
* unresolved - the parent's own quartile spread is wider than the bound;
* unchanged  - otherwise.

Job times of all runs on a side are pooled for ``job_s.tail`` and failures
for ``fail_frac``.  Per-layer metrics from traced runs are listed as medians
and ratios, without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list, change: list) -> list:
    """(parent record, change record) pairs by seed, else by position."""
    by_seed = {r["env"]["seed"]: r for r in change}
    matched = [(p, by_seed[p["env"]["seed"]]) for p in parent if p["env"]["seed"] in by_seed]
    return matched if len(matched) == min(len(parent), len(change)) else list(zip(parent, change))


def verdict(parent: list, change: list, wins: int, n_pairs: int, spec: dict) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    worse_by = sign * (c_med - p_med) / abs(p_med)
    if all(sign * c < sign * p for c in change for p in parent):
        return "improved"
    if (p_q3 - p_q1) / abs(p_med) > spec["bound"]:
        return "unresolved"
    if worse_by > spec["bound"]:
        return "worse"
    if n_pairs and wins >= 0.9 * n_pairs and worse_by < 0 and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved"
    return "unchanged"


def tail(times: list) -> str:
    """The highest percentile with ten jobs beyond it, with the sample count."""
    n = len(times)
    if n <= 10:
        return f"n/a ({n} jobs; needs more than 10)"
    return f"p{100.0 * (n - 10) / n:.1f} = {sorted(times)[n - 11]:.4f} s (n={n})"


def _value(record: dict, metric: str) -> float:
    return record["result"]["metrics"][metric]["value"]


def compare(parent: list, change: list, bench: dict) -> dict:
    """Print the comparison; return {(workload, metric): verdict}."""
    verdicts = {}
    workloads = [w["name"] for w in bench["workloads"]]
    for name in workloads:
        p_runs = [r for r in parent if r["workload"] == name and r["trace"] == 0]
        c_runs = [r for r in change if r["workload"] == name and r["trace"] == 0]
        if not p_runs or not c_runs:
            continue
        print(f"== {name}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        matched = pairs(p_runs, c_runs)
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            pv = [_value(r, metric) for r in p_runs]
            cv = [_value(r, metric) for r in c_runs]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            c_wins = sum(sign * _value(c, metric) < sign * _value(p, metric) for p, c in matched)
            p_wins = sum(sign * _value(p, metric) < sign * _value(c, metric) for p, c in matched)
            v = verdict(pv, cv, c_wins, len(matched), spec)
            verdicts[(name, metric)] = v
            print(f"  {metric:<14} {spec['unit']:<4} parent {_fmt(pv)}  change {_fmt(cv)}  "
                  f"wins {c_wins}:{p_wins} of {len(matched)}  bound {spec['bound']:.2f}  {v}")
        for label, runs in (("parent", p_runs), ("change", c_runs)):
            jobs = [t for r in runs for t in r["job_s"]]
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            print(f"  {label}: job_s.tail {tail(jobs)}; fail_frac {failed}/{attempted}")
    p_traced = [r for r in parent if r["trace"] == 1]
    c_traced = [r for r in change if r["trace"] == 1]
    if p_traced and c_traced:
        print(f"== per-layer medians: {len(p_traced)} parent, {len(c_traced)} change traced runs")
        for spec in bench["per_layer"]:
            metric = spec["name"]
            pm = statistics.median(_value(r, metric) for r in p_traced)
            cm = statistics.median(_value(r, metric) for r in c_traced)
            ratio = f"{cm / pm:.3f}x" if pm else "-"
            print(f"  {metric:<44} {pm:12.6g} -> {cm:12.6g} {spec['unit']:<14} {ratio}")
    return verdicts


def _fmt(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    verdicts = compare(load(args.parent), load(args.change), bench)
    return 1 if "worse" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
