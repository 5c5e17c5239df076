"""Iteration drivers that run engine workloads on an executor.

The fixed-point orchestration (scheduling, convergence, result
assembly) stays in the parent; executors only evaluate Jacobi steps.
These drivers are what the public entry points
(:meth:`repro.core.engine.FSimEngine.run`,
:func:`repro.core.api.fsim_matrix_many`) delegate to.

These drivers broadcast the full compiled arena to every worker each
session.  For long-lived sessions over large arenas, the persistent
sharded runtime (:mod:`repro.runtime.sharded`) inverts that ownership:
each worker holds one pair-space shard for the session lifetime and
only boundary ("halo") scores cross process boundaries per iteration.
``FSimConfig(shards=...)`` selects it; results stay bitwise identical.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.runtime.executor import Executor, round_robin_shards


def run_reference_engine(engine, executor: Executor):
    """The reference (dict) engine's full iteration on ``executor``.

    One loop serves serial and parallel alike: when the executor's pair
    session declines (serial executor, tiny workload, unpicklable
    state) each iteration runs the in-process
    :func:`~repro.core.engine.update_pairs`; otherwise the session's
    ``step`` evaluates the same Jacobi primitive shard-wise in workers.
    Results are bitwise identical either way -- iteration k reads only
    iteration k-1 scores, and the shard-local max-delta reduction
    maxes the same change set the serial walk takes.
    """
    from repro.core.engine import FSimResult, update_pairs

    cfg = engine.config
    pinned = cfg.pinned_pairs or {}
    candidates = engine.candidates()
    updatable = [pair for pair in candidates if pair not in pinned]
    shards = round_robin_shards(updatable, executor.workers)
    with executor.pair_session(engine, shards) as step:
        prev = engine.initial_scores()
        deltas: List[float] = []
        converged = False
        iterations = 0
        for _ in range(cfg.iteration_budget()):
            iterations += 1
            if step is not None:
                current, delta = step(prev)
            else:
                current, delta = update_pairs(engine, updatable, prev)
            for pair, value in pinned.items():
                current[pair] = value
            prev = current
            deltas.append(delta)
            if delta < cfg.epsilon:
                converged = True
                break
    return FSimResult(
        scores=prev,
        config=cfg,
        iterations=iterations,
        converged=converged,
        deltas=deltas,
        # Count genuine candidates only (pinned pairs outside the
        # candidate store are reported in the score map but are not
        # candidates).
        num_candidates=len(candidates),
        fallback=engine.result_fallback(),
    )


def run_engines(engines: Sequence, executor: Executor) -> List:
    """Run many independent computations, one whole query per task.

    Each worker runs ``engine.run(workers=1)`` for its shard and ships
    back the result fields; the parent reattaches its own fallback
    closures.  Falls back to a serial loop when the executor declines
    (serial executor, tiny batch, unpicklable engines).
    """
    from repro.core.engine import FSimResult

    engines = list(engines)
    raw = executor.run_queries(engines)
    if raw is None:
        return [engine.run(workers=1) for engine in engines]
    results: List = [None] * len(engines)
    for position, scores, iterations, converged, deltas, count in raw:
        engine = engines[position]
        results[position] = FSimResult(
            scores=scores,
            config=engine.config,
            iterations=iterations,
            converged=converged,
            deltas=deltas,
            num_candidates=count,
            fallback=engine.result_fallback(),
        )
    return results
