"""Compare two sets of result files against the bounds in BENCHMARK.json.

    python3 perfbench/run.py compare --base A1.json [A2.json ...] --head B1.json [B2.json ...]

Result files are the ones ``run.py`` writes under ``perfbench/out/results``.
Rows are grouped by workload and metric.  For each, the medians of the
two sides are compared: a worsening beyond the metric's bound is
``worse``, an improvement beyond it ``better``, anything else ``same``.
When a side has several runs, its spread is the distance between the
first and third quartiles over the median; a spread wider than the
bound makes the row ``unresolved`` -- unless every head run beats every
base run (or loses to all of them).  Per-layer metrics have no bound and
only report their delta.  The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from statistics import median, quantiles
from typing import Dict, List, Optional


def load_runs(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}``."""
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        for name, entry in record["result"]["metrics"].items():
            runs[record["workload"]][name].append(float(entry["value"]))
    return runs


def spread(values: List[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    mid = median(values)
    if mid == 0:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def verdict(base: List[float], head: List[float], better: str,
            bound: Optional[float]) -> str:
    if bound is None:
        return "-"
    b, h = median(base), median(head)
    if b == 0:
        return "same" if h == 0 else "n/a"
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (h - b) / abs(b)  # > 0 means worse
    widest = max((s for s in (spread(base), spread(head)) if s is not None),
                 default=None)
    if widest is not None and widest > bound:
        all_better = all(sign * (x - y) < 0 for x in head for y in base)
        all_worse = all(sign * (x - y) > 0 for x in head for y in base)
        if not (all_better or all_worse):
            return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(benchmark: dict, base_paths: List[str],
            head_paths: List[str]) -> List[dict]:
    base_runs = load_runs(base_paths)
    head_runs = load_runs(head_paths)
    specs = {entry["name"]: entry
             for entry in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows = []
    for workload in sorted(base_runs.keys() & head_runs.keys()):
        for name, spec in specs.items():
            base = base_runs[workload].get(name)
            head = head_runs[workload].get(name)
            if not base or not head:
                continue
            b, h = median(base), median(head)
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "base": b,
                "head": h,
                "delta": (h - b) / abs(b) if b else None,
                "base_spread": spread(base),
                "head_spread": spread(head),
                "bound": spec.get("bound"),
                "verdict": verdict(base, head, spec["better"],
                                   spec.get("bound")),
                "runs": (len(base), len(head)),
            })
    return rows


def _fmt(value: Optional[float], pattern: str) -> str:
    return "n/a" if value is None else format(value, pattern)


def main(argv=None) -> int:
    from perfbench.run import load_benchmark

    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    rows = compare(load_benchmark(), args.base, args.head)
    print(f"{'workload':<18} {'metric':<28} {'base':>12} {'head':>12} "
          f"{'delta':>8} {'spread':>13} {'bound':>6} verdict")
    for row in rows:
        spreads = (f"{_fmt(row['base_spread'], '.3f')}/"
                   f"{_fmt(row['head_spread'], '.3f')}")
        print(f"{row['workload']:<18} {row['metric']:<28} "
              f"{row['base']:>12.6g} {row['head']:>12.6g} "
              f"{_fmt(row['delta'], '+.1%'):>8} {spreads:>13} "
              f"{_fmt(row['bound'], '.2f'):>6} {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
