"""Figure 9: parallel scalability and density scalability.

(a) FSimbj{ub, theta=1} runtime while increasing the worker count on the
    NELL-like and ACMCit-like emulators (the paper uses 1-32 threads and
    sees the reward ratio flatten after 8);
(b) the same configuration while densifying the graphs x1..x50.

Panel (a) runs on the worker pool of :mod:`repro.runtime`, which keeps
one persistent pool per worker count and double-buffers each sweep in
shared memory, so the measured scaling reflects the paper's
conflict-free pair updates rather than pool-forking and score-array
pickling overheads.  ``benchmarks/bench_parallel.py`` records the same
workload machine-readably (``BENCH_parallel.json``).
"""

from __future__ import annotations

import os
from typing import Tuple

from repro.core.api import fsim_matrix
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentOutput, fmt, timed
from repro.graph.noise import densify
from repro.simulation import Variant

DATASETS = ("nell", "acmcit")
DENSITIES = (1, 2, 5, 10)


def default_worker_counts() -> Tuple[int, ...]:
    cores = os.cpu_count() or 2
    counts = [1, 2, 4, 8]
    return tuple(c for c in counts if c <= max(2, cores))


def run_workers(
    scale: float = 1.0, seed: int = 0, worker_counts: Tuple[int, ...] = (),
) -> ExperimentOutput:
    """Figure 9(a): runtime vs worker count.

    The multi-worker rows run on the :mod:`repro.runtime` worker pool.
    Scores are bitwise identical at every worker count, so only the
    wall clock varies.
    """
    counts = worker_counts or default_worker_counts()
    rows = []
    data = {}
    for name in DATASETS:
        graph = load_dataset(name, scale=scale, seed=seed)
        row = [name]
        for workers in counts:
            elapsed, _ = timed(
                fsim_matrix, graph, graph, Variant.BJ,
                theta=1.0, use_upper_bound=True, workers=workers,
            )
            row.append(fmt(elapsed, 2) + "s")
            data[(name, workers)] = elapsed
        rows.append(row)
    return ExperimentOutput(
        name="Figure 9(a): FSimbj{ub,theta=1} runtime vs workers",
        headers=["dataset"] + [f"w={c}" for c in counts],
        rows=rows,
        notes=(
            "Paper: strong gains to 8 threads, flattening beyond "
            "(scheduling overhead).  Runs on the repro.runtime executor "
            "(persistent shared-memory pool); small emulator scales pay "
            "per-sweep dispatch constants."
        ),
        data=data,
    )


def run_density(
    scale: float = 1.0, seed: int = 0, densities: Tuple[int, ...] = DENSITIES
) -> ExperimentOutput:
    """Figure 9(b): runtime vs density factor."""
    rows = []
    data = {}
    for name in DATASETS:
        base = load_dataset(name, scale=scale, seed=seed)
        row = [name]
        for factor in densities:
            graph = base if factor == 1 else densify(base, float(factor), seed)
            elapsed, _ = timed(
                fsim_matrix, graph, graph, Variant.BJ,
                theta=1.0, use_upper_bound=True,
            )
            row.append(fmt(elapsed, 2) + "s")
            data[(name, factor)] = elapsed
        rows.append(row)
    return ExperimentOutput(
        name="Figure 9(b): FSimbj{ub,theta=1} runtime vs density",
        headers=["dataset"] + [f"x{d}" for d in densities],
        rows=rows,
        notes="Paper: time grows with density but remains tractable.",
        data=data,
    )


def run(scale: float = 1.0, seed: int = 0):
    """Both panels of Figure 9."""
    return run_workers(scale, seed), run_density(scale, seed)
