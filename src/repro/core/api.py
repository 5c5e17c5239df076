"""Convenience entry points for the FSimX framework."""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.core.config import FSimConfig
from repro.core.engine import FSimEngine, FSimResult
from repro.graph.digraph import LabeledDigraph
from repro.simulation.base import Variant


def fsim_matrix(
    graph1: LabeledDigraph,
    graph2: LabeledDigraph,
    variant: Variant = Variant.S,
    config: Optional[FSimConfig] = None,
    workers: Optional[int] = None,
    **overrides,
) -> FSimResult:
    """Compute FSim_chi scores for all candidate pairs across two graphs.

    ``overrides`` are forwarded to :class:`FSimConfig` (e.g. ``theta=1.0``,
    ``use_upper_bound=True``, ``backend="numpy"``).  An explicit
    ``config`` wins over both the ``variant`` argument and the overrides.

    Large instances are computed by the vectorized numpy backend by
    default (``backend="auto"``); pass ``backend="python"`` to force the
    dict-based reference engine (see docs/PERF.md).

    Examples
    --------
    >>> from repro.graph import figure1_graphs
    >>> pattern, data = figure1_graphs()
    >>> result = fsim_matrix(pattern, data, variant="bj",
    ...                      label_function="indicator")
    >>> result.is_simulated("u", "v4")
    True
    """
    if config is None:
        config = FSimConfig(variant=Variant(variant), **overrides)
    return FSimEngine(graph1, graph2, config).run(workers=workers)


def fsim(
    graph1: LabeledDigraph,
    u: Hashable,
    graph2: LabeledDigraph,
    v: Hashable,
    variant: Variant = Variant.S,
    config: Optional[FSimConfig] = None,
    **overrides,
) -> float:
    """FSim_chi(u, v) for a single pair.

    The framework is inherently all-pairs (neighbor scores feed each
    other), so this computes the full matrix and projects -- prefer
    :func:`fsim_matrix` when querying many pairs.
    """
    result = fsim_matrix(graph1, graph2, variant, config, **overrides)
    return result.score(u, v)


def fsim_matrix_many(
    graphs1: Sequence[LabeledDigraph],
    graph2: LabeledDigraph,
    variant: Variant = Variant.S,
    config: Optional[FSimConfig] = None,
    workers: Optional[int] = None,
    executor=None,
    **overrides,
) -> List[FSimResult]:
    """FSim scores of many query graphs against one shared data graph.

    The batched form of :func:`fsim_matrix` for multi-query workloads
    (pattern matching of many queries, evolving-version alignment): the
    data graph is lowered **once** through the plan cache of
    :mod:`repro.core.plan` and every query's compilation reuses it, so
    per-query cost collapses to the query-specific arena assembly plus
    iteration.  ``workers > 1`` shards *whole queries* over the
    :mod:`repro.runtime` worker pool (one process computes one query
    end to end -- contrast with ``fsim_matrix(workers=...)``, which
    shards pair ranges of a single query).  Each worker receives its
    queries, and the data graph they share, in one pickled payload, so
    it lowers the data graph once.  ``executor`` (an
    :class:`~repro.runtime.executor.Executor` instance) replaces the
    pool ``workers`` would pick.

    Returns one :class:`FSimResult` per query graph, in input order.
    """
    if config is None:
        config = FSimConfig(variant=Variant(variant), **overrides)
    engines = [FSimEngine(graph1, graph2, config) for graph1 in graphs1]
    if len(engines) > 1:
        from repro.runtime import resolve_executor
        from repro.runtime.driver import run_engines

        resolved = resolve_executor(config, workers, executor)
        if resolved.workers > 1:
            return run_engines(engines, resolved)
    # Single query (or serial): keep the requested parallelism by
    # sharding pair ranges within each run instead.
    return [
        engine.run(workers=workers, executor=executor) for engine in engines
    ]


def fsim_single_graph(
    graph: LabeledDigraph,
    variant: Variant = Variant.B,
    config: Optional[FSimConfig] = None,
    workers: Optional[int] = None,
    **overrides,
) -> FSimResult:
    """All-pairs FSim scores from a graph to itself (the paper's
    single-graph experiments compute "the FSim scores from the graph to
    itself")."""
    return fsim_matrix(graph, graph, variant, config, workers, **overrides)
