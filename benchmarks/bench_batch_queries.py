"""Batched multi-query execution vs per-query calls (the amortization PR).

Two many-query workloads from the paper's evaluation:

- **pattern**: >= 20 pattern queries (sizes 3-13, the Table 6 workload)
  matched against one Amazon-emulator data graph.  Baseline is the
  pre-amortization behavior -- one ``fsim_matrix`` per query with cold
  caches and the old ``auto`` crossover (numpy only above 2500 cells);
  the batched path is ``FSimMatcher.match_many`` over the shared plan
  cache.
- **topk**: >= 10 certified top-k queries on the Fig-9(b) ACMCit
  configuration.  Baseline is per-query ``TopKSearch.search`` on the
  reference (python) path.  Note this is a *conservative* baseline: it
  runs the current python path, which already carries this PR's
  per-query row-index fix -- the true pre-PR loop additionally paid a
  full score-dict scan-and-sort per iteration, so the real historical
  gap is larger than the recorded speedup.  The batched path is one
  ``search_many`` call: one compiled arena, one shared iteration loop,
  per-query contraction certification.

Writes ``BENCH_batch.json`` with per-phase (compile vs query/iterate)
timings.  Acceptance: >= 5x end-to-end on both workloads, with batched
results identical to the per-query baseline.

Run it through :mod:`harness`:

    python benchmarks/bench_batch_queries.py [--smoke | --no-gate]
"""

from __future__ import annotations

import sys
import time

import harness
from repro.apps.pattern_matching.matcher import FSimMatcher
from repro.apps.pattern_matching.queries import Scenario, generate_workload
from repro.core.api import fsim_matrix
from repro.core.compile import compile_fsim
from repro.core.config import FSimConfig
from repro.core.plan import clear_plan_caches, lower_graph
from repro.core.topk import TopKSearch
from repro.datasets import load_dataset
from repro.simulation import Variant

RESULT = "BENCH_batch.json"

#: The crossover the "auto" backend used before this PR; the baseline
#: reproduces it so the comparison is against real pre-PR behavior.
OLD_AUTO_MIN_CELLS = 2500

NUM_PATTERN_QUERIES = 24
NUM_TOPK_QUERIES = 10
TOPK_K = 5

SCORE_TOLERANCE = 1e-9

#: The acceptance bar on both workloads.
SPEEDUP_GATE = 5.0


# ----------------------------------------------------------------------
# workload 1: many pattern queries, one data graph
# ----------------------------------------------------------------------
def run_pattern_workload(num_queries: int = NUM_PATTERN_QUERIES,
                         check_results: bool = True) -> dict:
    data = load_dataset("amazon", scale=1.0, seed=0)
    workload = generate_workload(
        data, Scenario.EXACT, num_queries=num_queries,
        min_size=3, max_size=13, seed=1,
    )
    queries = [query.graph for query in workload]
    matcher = FSimMatcher(Variant.S)

    # Baseline: one cold fsim_matrix per query, old auto crossover.
    clear_plan_caches()
    start = time.perf_counter()
    baseline = []
    for query in queries:
        clear_plan_caches()
        backend = (
            "numpy"
            if query.num_nodes * data.num_nodes >= OLD_AUTO_MIN_CELLS
            else "python"
        )
        result = fsim_matrix(
            query, data,
            config=matcher.config.with_options(backend=backend),
        )
        baseline.append(matcher._expand(query, data, result))
    baseline_seconds = time.perf_counter() - start

    # Batched: shared data-graph lowering + per-query assembly.
    clear_plan_caches()
    start = time.perf_counter()
    lower_graph(data)
    compile_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = matcher.match_many(queries, data)
    query_seconds = time.perf_counter() - start
    total = compile_seconds + query_seconds

    if check_results:
        assert batched == baseline, "batched matches diverge from baseline"
    return {
        "workload": f"{len(queries)} Table-6 pattern queries vs amazon x1",
        "num_queries": len(queries),
        "data_nodes": data.num_nodes,
        "baseline_seconds": round(baseline_seconds, 4),
        "batched_compile_seconds": round(compile_seconds, 4),
        "batched_query_seconds": round(query_seconds, 4),
        "batched_seconds": round(total, 4),
        "speedup": round(baseline_seconds / total, 2),
    }


# ----------------------------------------------------------------------
# workload 2: many certified top-k queries, one graph pair
# ----------------------------------------------------------------------
def run_topk_workload(num_queries: int = NUM_TOPK_QUERIES, k: int = TOPK_K,
                      dataset: str = "acmcit",
                      check_results: bool = True) -> dict:
    graph = load_dataset(dataset, scale=1.0, seed=0)
    config = FSimConfig(variant=Variant.BJ, theta=1.0, use_upper_bound=True)
    queries = list(graph.nodes())[:num_queries]

    # Baseline: per-query search on the reference path (conservative --
    # see the module docstring; the true pre-PR loop was slower still).
    search_python = TopKSearch(
        graph, graph, config.with_options(backend="python")
    )
    start = time.perf_counter()
    baseline = [search_python.search(query, k) for query in queries]
    baseline_seconds = time.perf_counter() - start

    # Batched: one compiled arena, one shared loop, all queries.
    clear_plan_caches()
    start = time.perf_counter()
    compile_fsim(graph, graph, config.with_options(backend="numpy"))
    compile_seconds = time.perf_counter() - start
    search_numpy = TopKSearch(
        graph, graph, config.with_options(backend="numpy")
    )
    start = time.perf_counter()
    batched = search_numpy.search_many(queries, k)
    query_seconds = time.perf_counter() - start
    total = compile_seconds + query_seconds

    worst = 0.0
    if check_results:
        for solo, many in zip(baseline, batched):
            assert solo.query == many.query
            assert solo.certified == many.certified
            assert solo.iterations == many.iterations
            assert [p for p, _ in solo.partners] == [
                p for p, _ in many.partners
            ], solo.query
            for (_, score1), (_, score2) in zip(solo.partners, many.partners):
                worst = max(worst, abs(score1 - score2))
    return {
        "workload": (
            f"{len(queries)} certified top-{k} queries, "
            f"FSimbj{{ub, theta=1}} on {dataset} x1"
        ),
        "num_queries": len(queries),
        "data_nodes": graph.num_nodes,
        "baseline_seconds": round(baseline_seconds, 4),
        "batched_compile_seconds": round(compile_seconds, 4),
        "batched_query_seconds": round(query_seconds, 4),
        "batched_seconds": round(total, 4),
        "speedup": round(baseline_seconds / total, 2),
        "max_score_divergence": worst,
    }


def run_benchmark(num_pattern: int = NUM_PATTERN_QUERIES,
                  num_topk: int = NUM_TOPK_QUERIES,
                  topk_dataset: str = "acmcit") -> dict:
    return {
        "pattern": run_pattern_workload(num_pattern),
        "topk": run_topk_workload(num_topk, dataset=topk_dataset),
    }


SMOKE = dict(num_pattern=4, num_topk=2, topk_dataset="nell")


def render(report: dict) -> str:
    lines = ["== Batched multi-query execution vs per-query calls =="]
    for name, row in report.items():
        lines.append(
            f"{name:>8}: {row['num_queries']:>3} queries  "
            f"baseline {row['baseline_seconds']:>8.3f}s  "
            f"batched {row['batched_seconds']:>8.3f}s "
            f"(compile {row['batched_compile_seconds']:.3f}s + "
            f"queries {row['batched_query_seconds']:.3f}s)  "
            f"{row['speedup']:>6.1f}x"
        )
    return "\n".join(lines)


def checks(report: dict) -> list:
    divergence = report["topk"]["max_score_divergence"]
    if divergence > SCORE_TOLERANCE:
        return [f"batched top-k scores diverge by {divergence}"]
    return []


def gates(report: dict) -> list:
    return [
        f"{name}: speedup {row['speedup']}x < {SPEEDUP_GATE}x gate"
        for name, row in report.items() if row["speedup"] < SPEEDUP_GATE
    ]


if __name__ == "__main__":
    raise SystemExit(harness.main(sys.modules[__name__]))
