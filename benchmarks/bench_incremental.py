"""Streaming (incremental) FSim maintenance vs recompute-from-scratch.

The evolving-alignment scenario: a base graph and a live copy that
mutates between queries (edge churn, the dominant mutation of the
paper's evolving-version workload).  Before the streaming subsystem,
every mutation bumped the graph's version counter, evicted the cached
plan and paid a full ``compile + iterate`` on the next query.  The
:class:`~repro.streaming.session.IncrementalFSim` session instead
patches the cached plan and the compiled arena in place and *replays*
the previous run's Jacobi trajectory over the delta's frontier -- with
scores, iteration counts and per-iteration deltas **bitwise identical**
to the cold recomputation (asserted for every measured batch).

Per workload size and edit-batch size this benchmark measures:

- **cold**: mutate, then recompute the way the repo does without
  streaming -- the mutated graph's plan is gone (caches cleared; the
  unmutated base graph's plan is re-warmed outside the timer, as it
  would be in a live process), one ``fsim_matrix`` call;
- **warm**: the same mutations applied through the session's
  ``DeltaLog``, one ``session.compute()`` call.

Writes ``BENCH_incremental.json``.  Acceptance: >= 5x warm-vs-cold for
single-edge batches on the largest workload.

Run it through :mod:`harness`:

    python benchmarks/bench_incremental.py [--smoke | --no-gate]
"""

from __future__ import annotations

import random
import sys
import time

import harness
from repro.core.api import fsim_matrix
from repro.core.config import FSimConfig
from repro.core.plan import clear_plan_caches, lower_graph
from repro.graph.generators import power_law_graph, uniform_labels
from repro.simulation import Variant
from repro.streaming import IncrementalFSim

RESULT = "BENCH_incremental.json"

#: (name, nodes, labels) -- candidate arenas of ~30k / ~150k / ~490k
#: pairs under theta=1 indicator labels.
WORKLOADS = [
    ("small", 500, 6),
    ("medium", 1200, 8),
    ("large", 2200, 10),
]

BATCH_SIZES = (1, 4, 16, 64)
ROUNDS = 3

SPEEDUP_GATE = 5.0

SMOKE = dict(workloads=[("small", 220, 5)], batch_sizes=(1, 4), rounds=2)


def _config() -> FSimConfig:
    return FSimConfig(
        variant=Variant.B, label_function="indicator", theta=1.0,
        backend="numpy",
    )


def _apply_edge_batch(log, rng: random.Random, size: int) -> None:
    """Mutate through the log: balanced random edge removals/insertions."""
    for index in range(size):
        if index % 2 == 1 and log.graph.num_edges:
            log.remove_edge(*rng.choice(list(log.graph.edges())))
        else:
            nodes = list(log.graph.nodes())
            source, target = rng.sample(nodes, 2)
            while not log.add_edge_if_absent(source, target):
                source, target = rng.sample(nodes, 2)


def run_workload(name: str, num_nodes: int, num_labels: int,
                 batch_sizes=BATCH_SIZES, rounds: int = ROUNDS,
                 check_results: bool = True) -> dict:
    labels = uniform_labels(num_nodes, num_labels, seed=1)
    base = power_law_graph(num_nodes, 2, labels, seed=2, name=f"{name}-base")
    evolving = base.copy(name=f"{name}-evolving")
    config = _config()
    clear_plan_caches()
    session = IncrementalFSim(evolving, base, config)
    start = time.perf_counter()
    initial = session.compute()
    initial_seconds = time.perf_counter() - start

    rng = random.Random(7)
    batches = {}
    for batch_size in batch_sizes:
        warm_seconds = 0.0
        cold_seconds = 0.0
        iterations = 0
        for _ in range(rounds):
            _apply_edge_batch(session.log1, rng, batch_size)
            start = time.perf_counter()
            warm = session.compute()
            warm_seconds += time.perf_counter() - start
            # Cold baseline: the mutated graph's plan is invalidated by
            # the version bump; the unmutated base keeps its plan.
            clear_plan_caches()
            lower_graph(base)
            start = time.perf_counter()
            cold = fsim_matrix(evolving, base, config=config)
            cold_seconds += time.perf_counter() - start
            iterations += cold.iterations
            if check_results:
                assert warm.scores == cold.scores, (
                    f"{name}: warm scores diverge from cold at "
                    f"batch={batch_size}"
                )
                assert warm.iterations == cold.iterations
                assert warm.deltas == cold.deltas
        batches[str(batch_size)] = {
            "rounds": rounds,
            "warm_seconds": round(warm_seconds / rounds, 4),
            "cold_seconds": round(cold_seconds / rounds, 4),
            "speedup": round(cold_seconds / warm_seconds, 2),
            "cold_iterations_per_round": iterations // rounds,
        }
    stats = dict(session.stats)
    return {
        "workload": (
            f"{num_nodes}-node / {num_labels}-label evolving alignment, "
            f"FSimb{{indicator, theta=1}}"
        ),
        "num_nodes": num_nodes,
        "num_labels": num_labels,
        "candidate_pairs": initial.num_candidates,
        "initial_seconds": round(initial_seconds, 4),
        "bitwise_identical": bool(check_results),
        "batches": batches,
        "session_stats": stats,
    }


def run_benchmark(workloads=WORKLOADS, batch_sizes=BATCH_SIZES,
                  rounds: int = ROUNDS) -> dict:
    return {
        name: run_workload(name, nodes, labels, batch_sizes, rounds)
        for name, nodes, labels in workloads
    }


def render(report: dict) -> str:
    lines = ["== Incremental (streaming) FSim vs recompute-from-scratch =="]
    for name, row in report.items():
        lines.append(
            f"{name:>8}: {row['candidate_pairs']} candidate pairs, "
            f"initial {row['initial_seconds']:.3f}s"
        )
        for batch, cell in row["batches"].items():
            lines.append(
                f"{'':>8}  batch={batch:>3}: cold {cell['cold_seconds']:>7.3f}s  "
                f"warm {cell['warm_seconds']:>7.3f}s  "
                f"{cell['speedup']:>5.1f}x  (bitwise identical)"
            )
    return "\n".join(lines)


def checks(report: dict) -> list:
    """Warm-vs-cold bitwise parity is asserted per round as the run
    goes; nothing is left to check in the report."""
    return []


def gates(report: dict) -> list:
    largest = WORKLOADS[-1][0]
    speedup = report[largest]["batches"]["1"]["speedup"]
    if speedup < SPEEDUP_GATE:
        return [f"{largest} single-edge speedup {speedup}x "
                f"< {SPEEDUP_GATE}x gate"]
    return []


if __name__ == "__main__":
    raise SystemExit(harness.main(sys.modules[__name__]))
