"""Backend speedup on the Figure-9 scalability workload.

Times the reference (dict) engine against the vectorized numpy backend
on the Fig-9(b) configuration -- FSimbj{ub, theta=1} over the NELL and
ACMCit emulators at increasing density -- and writes a machine-readable
``BENCH_backends.json`` next to the repo's other benchmark results, so
future performance changes have a trajectory to compare against.  Run
it through :mod:`harness` (prints a table and writes the JSON):

    python benchmarks/bench_backend_speedup.py [--smoke | --no-gate]

The acceptance bar for the vectorized backend is a >= 10x wall-clock win
at the largest workload size, with both backends' scores agreeing to
1e-9 (they agree bitwise; the parity suite asserts the tolerance).
"""

from __future__ import annotations

import sys
import time

import harness
from repro.core.api import fsim_matrix
from repro.core.compile import compile_fsim
from repro.core.config import FSimConfig
from repro.core.plan import clear_plan_caches
from repro.core.vectorized import VectorizedFSimEngine
from repro.datasets import load_dataset
from repro.graph.noise import densify
from repro.simulation import Variant

RESULT = "BENCH_backends.json"

#: (dataset, density factor) ladder, smallest to largest.  The last row
#: is "the largest size" of the acceptance criterion.
WORKLOADS = (
    ("nell", 1),
    ("nell", 5),
    ("nell", 10),
    ("acmcit", 1),
    ("acmcit", 5),
    ("acmcit", 10),
)

SCORE_TOLERANCE = 1e-9

#: The acceptance bar at the largest size.
SPEEDUP_GATE = 10.0

#: One small workload: enough to prove the timing and parity plumbing
#: works without burning CI minutes.
SMOKE = dict(workloads=(("nell", 1),))


def _workload_graph(name: str, factor: int, seed: int = 0):
    base = load_dataset(name, scale=1.0, seed=seed)
    return base if factor == 1 else densify(base, float(factor), seed)


def _run(graph, backend: str):
    clear_plan_caches()  # cold start: a single query pays full compile
    start = time.perf_counter()
    result = fsim_matrix(
        graph, graph, Variant.BJ,
        theta=1.0, use_upper_bound=True, backend=backend,
    )
    return time.perf_counter() - start, result


def _run_numpy_instrumented(graph):
    """One cold end-to-end numpy run with the phases timed in place.

    Mirrors ``run_vectorized`` (compile -> iterate -> result assembly)
    so the recorded compile/iterate phases decompose the *same* run as
    the end-to-end total (phases sum to <= total; the remainder is
    result assembly).  A second compile against the now-warm plan/table
    caches is timed separately -- that is what every later query of a
    batch pays, the number behind the ``auto`` crossover
    (``AUTO_BACKEND_MIN_CELLS``).
    """
    from repro.core.engine import FSimEngine, FSimResult

    config = FSimConfig(
        variant=Variant.BJ, theta=1.0, use_upper_bound=True, backend="numpy",
    )
    clear_plan_caches()
    start = time.perf_counter()
    engine = FSimEngine(graph, graph, config)
    compiled = compile_fsim(graph, graph, config)
    compile_done = time.perf_counter()
    scores, iterations, converged, deltas = VectorizedFSimEngine(
        compiled
    ).iterate()
    iterate_done = time.perf_counter()
    result = FSimResult(
        scores=compiled.result_scores(scores),
        config=config,
        iterations=iterations,
        converged=converged,
        deltas=deltas,
        num_candidates=compiled.num_candidates,
        fallback=engine.result_fallback(),
    )
    total = time.perf_counter() - start
    warm_start = time.perf_counter()
    compile_fsim(graph, graph, config)  # plan/table caches now warm
    compile_warm = time.perf_counter() - warm_start
    return (
        total, compile_done - start, compile_warm,
        iterate_done - compile_done, result,
    )


def run_benchmark(workloads=WORKLOADS):
    """Time both backends per workload; returns the report dict."""
    rows = []
    for name, factor in workloads:
        graph = _workload_graph(name, factor)
        python_seconds, python_result = _run(graph, "python")
        (numpy_seconds, compile_cold, compile_warm, iterate_seconds,
         numpy_result) = _run_numpy_instrumented(graph)
        assert python_result.scores.keys() == numpy_result.scores.keys()
        worst = max(
            (
                abs(python_result.scores[pair] - value)
                for pair, value in numpy_result.scores.items()
            ),
            default=0.0,
        )
        rows.append({
            "dataset": name,
            "density": factor,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "candidates": python_result.num_candidates,
            "iterations": python_result.iterations,
            "python_seconds": round(python_seconds, 4),
            "numpy_seconds": round(numpy_seconds, 4),
            "numpy_compile_cold_seconds": round(compile_cold, 4),
            "numpy_compile_warm_seconds": round(compile_warm, 4),
            "numpy_iterate_seconds": round(iterate_seconds, 4),
            "speedup": round(python_seconds / numpy_seconds, 2),
            "max_score_divergence": worst,
        })
    report = {
        "workload": "fig9b FSimbj{ub, theta=1} self-similarity",
        "score_tolerance": SCORE_TOLERANCE,
        "auto_backend_min_cells": _auto_min_cells(),
        "rows": rows,
        "largest": rows[-1],
    }
    return report


def _auto_min_cells() -> int:
    from repro.core.engine import AUTO_BACKEND_MIN_CELLS

    return AUTO_BACKEND_MIN_CELLS


def render(report) -> str:
    lines = [
        "== Backend speedup: Fig-9 scalability workload ==",
        f"{'dataset':>8} {'xdens':>5} {'nodes':>6} {'cands':>7} "
        f"{'python':>9} {'numpy':>9} {'compile':>9} {'iterate':>9} "
        f"{'speedup':>8}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['dataset']:>8} {row['density']:>5} {row['nodes']:>6} "
            f"{row['candidates']:>7} {row['python_seconds']:>8.2f}s "
            f"{row['numpy_seconds']:>8.3f}s "
            f"{row['numpy_compile_cold_seconds']:>8.3f}s "
            f"{row['numpy_iterate_seconds']:>8.3f}s {row['speedup']:>7.1f}x"
        )
    largest = report["largest"]
    lines.append(
        f"largest size ({largest['dataset']} x{largest['density']}): "
        f"{largest['speedup']:.1f}x"
    )
    return "\n".join(lines)


def checks(report) -> list:
    return [
        f"{row['dataset']} x{row['density']}: scores diverge by "
        f"{row['max_score_divergence']}"
        for row in report["rows"]
        if row["max_score_divergence"] > SCORE_TOLERANCE
    ]


def gates(report) -> list:
    speedup = report["largest"]["speedup"]
    if speedup < SPEEDUP_GATE:
        return [f"largest-size speedup {speedup}x < {SPEEDUP_GATE}x gate"]
    return []


if __name__ == "__main__":
    raise SystemExit(harness.main(sys.modules[__name__]))
