"""Iteration drivers: the one fixed-point loop per engine, on a runner.

The fixed-point orchestration (scheduling, convergence, result
assembly) stays in the parent; executors only evaluate Jacobi steps.
:func:`run_reference_engine` is the dict engine's loop and
:func:`run_compiled` picks the runner of the compiled engine's loop:
the persistent sharded runtime (:mod:`repro.runtime.sharded`; each
worker owns one pair-space shard and only boundary scores cross
processes per iteration) when ``shards > 1`` and the instance shards,
otherwise the executor's sweep session.  Both loops take an
``on_iteration`` hook, which is how top-k search
(:mod:`repro.core.topk`) plugs its certification rule into the same
loops :meth:`repro.core.engine.FSimEngine.run` uses.  Results are
bitwise identical on every runner.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.runtime.executor import Executor, round_robin_shards


def run_reference_engine(engine, executor: Executor,
                         on_iteration: Optional[Callable[..., bool]] = None):
    """The reference (dict) engine's full iteration on ``executor``.

    One loop serves serial and parallel alike: when the executor's pair
    session declines (serial executor, tiny workload, unpicklable
    state) each iteration runs the in-process
    :func:`~repro.core.engine.update_pairs`; otherwise the session's
    ``step`` evaluates the same Jacobi primitive shard-wise in workers.
    Results are bitwise identical either way -- iteration k reads only
    iteration k-1 scores, and the shard-local max-delta reduction
    maxes the same change set the serial walk takes.

    ``on_iteration(iteration, scores, delta, converged)`` is called with
    the score dict after every iteration; returning True stops the loop.
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
            converged = delta < cfg.epsilon
            if on_iteration is not None and on_iteration(
                iterations, prev, delta, converged
            ):
                break
            if converged:
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


def run_compiled(compiled, executor: Executor, shards: int = 1,
                 watch=None,
                 on_iteration: Optional[Callable[..., bool]] = None):
    """Algorithm 1 over ``compiled`` on the one runner that fits; returns
    ``(scores, iterations, converged, deltas)``.

    The sharded runtime runs it when ``shards > 1`` and the runtime
    opens (the instance is large enough to shard) and publishes its
    slices (the compiled state pickles -- otherwise a RuntimeWarning);
    else :meth:`~repro.core.vectorized.VectorizedFSimEngine.iterate`
    runs it on ``executor``'s sweep session.  ``watch`` and
    ``on_iteration`` follow the contract both loops share.  Every
    runner is bitwise identical; a run stopped by ``on_iteration`` on
    the shards returns ``None`` scores.
    """
    from repro.core.vectorized import VectorizedFSimEngine
    from repro.runtime import sharded

    runtime = sharded.open_sharded_runtime(compiled, shards)
    if runtime is not None:
        try:
            return runtime.iterate(watch=watch, on_iteration=on_iteration)
        except sharded.ShardedUnavailable:
            # Raised while publishing, before the first iteration.
            sharded.warn_unsharded()
        finally:
            runtime.close()
    vectorized = VectorizedFSimEngine(compiled)
    with executor.sweep_session(vectorized) as sweep:
        return vectorized.iterate(sweep=sweep, watch=watch,
                                  on_iteration=on_iteration)


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
