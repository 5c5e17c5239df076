"""Top-k fractional-simulation search with certified early termination.

The paper's conclusion names efficient top-k queries as future work:
"end-users are also interested in the top-k similarity search".  This
module implements that extension on top of Algorithm 1 using the
machinery the paper already provides:

Theorem 1 shows the iteration is a contraction with factor
``d = w+ + w-``; hence after observing the k-th iteration's maximum
change ``delta_k``, every final score lies within

    bound_k = delta_k * d / (1 - d)

of its current value.  The search can therefore stop as soon as the
query node's k-th best *lower* bound clears every other candidate's
*upper* bound -- returning a certified top-k long before global
convergence.

The iteration is shared across queries: :meth:`TopKSearch.search_many`
runs **one** fixed-point loop over the candidate store and applies the
contraction bound per query row, retiring each query the iteration its
top-k certifies.  Scores are globally coupled but query-independent, so
a batched query returns exactly what a solo :meth:`TopKSearch.search`
would -- at amortized cost.  Two backends implement the loop (selected
by ``FSimConfig(backend=...)``, like :meth:`FSimEngine.run`): the
dict-based reference path below (the semantic ground truth) and the
compiled vectorized path reusing the plan cache of
:mod:`repro.core.plan` -- see docs/PERF.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.config import FSimConfig
from repro.core.engine import FSimEngine
from repro.exceptions import ConfigError
from repro.graph.digraph import LabeledDigraph

Node = Hashable


@dataclass(frozen=True)
class TopKResult:
    """Outcome of a top-k search.

    Attributes
    ----------
    query:
        The query node.
    partners:
        The top-k (node, score) pairs, best first.
    iterations:
        Iterations executed before returning.
    certified:
        True when the early-termination criterion proved the set exact;
        False when the iteration budget ran out first (the returned set
        is then best-effort at the final scores).
    """

    query: Node
    partners: List[Tuple[Node, float]]
    iterations: int
    certified: bool


class _QueryRow:
    """One query's candidate row, indexed once before iteration starts.

    Replaces the old per-iteration scan-and-sort over the *entire* score
    dict (O(|H_c| log |H_c|) per iteration per query) with a fixed list
    of the query's own pairs; each iteration only gathers their current
    values and sorts the row.  Partner reprs are precomputed so the
    reference tie-break costs no string building in the loop.
    """

    __slots__ = ("query", "entries")

    def __init__(self, query: Node):
        self.query = query
        #: (partner, pair-key, repr(partner)) per maintained/pinned pair.
        self.entries: List[Tuple[Node, tuple, str]] = []

    def ranked(self, scores: Dict[tuple, float]) -> List[Tuple[Node, float]]:
        row = [
            (partner, scores[pair], partner_repr)
            for partner, pair, partner_repr in self.entries
        ]
        row.sort(key=lambda item: (-item[1], item[2]))
        return [(partner, value) for partner, value, _ in row]


class TopKSearch:
    """Certified top-k similarity search for one or more query nodes.

    The full candidate store still iterates (scores are globally
    coupled), but the *stopping rule* is query-local: contraction bounds
    separate the query's top-k from the rest, typically several
    iterations before the epsilon convergence of Algorithm 1.  Batch
    queries through :meth:`search_many`: all queries share one iteration
    loop (and, on the numpy backend, one compiled arena), so n queries
    cost roughly one computation instead of n.
    """

    def __init__(
        self,
        graph1: LabeledDigraph,
        graph2: LabeledDigraph,
        config: Optional[FSimConfig] = None,
    ):
        self.engine = FSimEngine(graph1, graph2, config)
        decay = self.engine.config.w_out + self.engine.config.w_in
        if not 0.0 < decay < 1.0:
            raise ConfigError(f"w+ + w- must be in (0, 1), got {decay}")
        self._decay = decay

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def search(self, query: Node, k: int,
               workers: Optional[int] = None,
               shards: Optional[int] = None) -> TopKResult:
        """Return the certified top-k partners of ``query``."""
        return self.search_many([query], k, workers=workers,
                                shards=shards)[0]

    def search_many(self, queries: Sequence[Node], k: int,
                    workers: Optional[int] = None,
                    executor=None,
                    shards: Optional[int] = None) -> List[TopKResult]:
        """Certified top-k for every query node, from one shared run.

        Returns one :class:`TopKResult` per query, in input order.  Each
        result is identical to what a solo :meth:`search` would return:
        the score trajectory does not depend on the query set, and each
        query retires the first iteration its certification criterion
        holds.  ``workers > 1`` runs the shared iteration loop on the
        :mod:`repro.runtime` worker pool (the batch shares one sweep
        session and one persistent pool; ``executor``, an
        :class:`~repro.runtime.executor.Executor` instance, replaces
        the pool ``workers`` would pick); ``shards > 1`` (default ``config.shards``; numpy backend)
        runs the sharded runtime instead, with the query rows gathered
        per iteration through its watch buffer.  Results are bitwise
        identical to the serial loop either way.
        """
        from repro.runtime import resolve_executor

        if k < 1:
            raise ConfigError(f"k must be positive, got {k}")
        queries = list(queries)
        for query in queries:
            if not self.engine.graph1.has_node(query):
                raise ConfigError(f"query node {query!r} not in graph1")
        if not queries:
            return []
        config = self.engine.config
        if shards is None:
            shards = config.shards
        resolved = resolve_executor(config, workers, executor)
        if self.engine._resolve_backend() == "numpy":
            return self._search_many_numpy(queries, k, resolved,
                                           shards=int(shards))
        return self._search_many_python(queries, k, resolved)

    # ------------------------------------------------------------------
    # the certification rule (shared by both backends)
    # ------------------------------------------------------------------
    def _retire(self, row: List[Tuple[Node, float]], k: int, bound: float,
                converged: bool) -> bool:
        """Whether a query can stop now (certified).

        Small rows (nothing beyond the k-th partner) only certify at
        global convergence; otherwise the k-th best lower bound must
        clear the (k+1)-th upper bound -- the Theorem-1 separation.
        """
        if converged:
            return True
        if len(row) <= k:
            return False
        return row[k - 1][1] - bound >= row[k][1] + bound

    # ------------------------------------------------------------------
    # reference (dict) backend
    # ------------------------------------------------------------------
    def _search_many_python(self, queries, k, executor):
        from repro.runtime.executor import round_robin_shards

        from repro.core.engine import update_pairs

        engine = self.engine
        cfg = engine.config
        pinned = cfg.pinned_pairs or {}
        candidates = engine.candidates()
        prev = engine.initial_scores()
        updatable = [pair for pair in candidates if pair not in pinned]
        rows: Dict[Node, _QueryRow] = {
            query: _QueryRow(query) for query in set(queries)
        }
        for pair in prev:
            row = rows.get(pair[0])
            if row is not None:
                row.entries.append((pair[1], pair, repr(pair[1])))
        results: List[Optional[TopKResult]] = [None] * len(queries)
        active = list(range(len(queries)))
        iterations = 0
        shards = round_robin_shards(updatable, executor.workers)
        with executor.pair_session(engine, shards) as step:
            for _ in range(cfg.iteration_budget()):
                iterations += 1
                if step is not None:
                    current, delta = step(prev)
                else:
                    # The in-process form of the same Jacobi step the
                    # executors run shard-wise.
                    current, delta = update_pairs(engine, updatable, prev)
                for pair, value in pinned.items():
                    current[pair] = value
                prev = current
                bound = delta * self._decay / (1.0 - self._decay)
                converged = delta < cfg.epsilon
                remaining = []
                for position in active:
                    row = rows[queries[position]].ranked(prev)
                    if self._retire(row, k, bound, converged):
                        results[position] = TopKResult(
                            query=queries[position], partners=row[:k],
                            iterations=iterations, certified=True,
                        )
                    else:
                        remaining.append(position)
                active = remaining
                if not active:
                    break
        for position in active:  # iteration budget exhausted: best effort
            row = rows[queries[position]].ranked(prev)
            results[position] = TopKResult(
                query=queries[position], partners=row[:k],
                iterations=iterations, certified=False,
            )
        return results

    # ------------------------------------------------------------------
    # compiled (numpy) backend
    # ------------------------------------------------------------------
    def _search_many_numpy(self, queries, k, executor, shards: int = 1):
        import numpy as np

        from repro.core.compile import compile_fsim
        from repro.core.vectorized import VectorizedFSimEngine

        engine = self.engine
        cfg = engine.config
        compiled = compile_fsim(engine.graph1, engine.graph2, cfg)
        vectorized = VectorizedFSimEngine(compiled)

        # Per-query rows over the compiled arena, built once: maintained
        # arena pairs of the query row plus any pinned pairs outside the
        # arena, with the repr tie-break precomputed as a rank vector.
        maintained_ids = np.flatnonzero(compiled.maintained)
        maintained_u = compiled.arena_u[maintained_ids]
        row_ids: Dict[Node, np.ndarray] = {}
        row_partners: Dict[Node, list] = {}
        row_extra: Dict[Node, np.ndarray] = {}
        row_tie: Dict[Node, np.ndarray] = {}
        for query in set(queries):
            qi = compiled.index1[query]
            ids = maintained_ids[maintained_u == qi]
            partners = [
                compiled.nodes2[j] for j in compiled.arena_v[ids].tolist()
            ]
            extra = [
                (pair[1], value)
                for pair, value in compiled.pinned_extra
                if pair[0] == query
            ]
            partners.extend(partner for partner, _ in extra)
            reprs = [repr(partner) for partner in partners]
            order = sorted(range(len(reprs)), key=reprs.__getitem__)
            tie = np.empty(len(reprs), dtype=np.int64)
            tie[np.asarray(order, dtype=np.int64)] = np.arange(
                len(reprs), dtype=np.int64
            )
            row_ids[query] = ids
            row_partners[query] = partners
            row_extra[query] = np.asarray(
                [value for _, value in extra], dtype=np.float64
            )
            row_tie[query] = tie

        def row_values(query: Node, scores: np.ndarray) -> np.ndarray:
            return np.concatenate((scores[row_ids[query]], row_extra[query]))

        def row_order(query: Node, values: np.ndarray) -> np.ndarray:
            return np.lexsort((row_tie[query], -values))

        def top_partners(query: Node, values: np.ndarray,
                         order: np.ndarray, k: int):
            partners = row_partners[query]
            return [
                (partners[position], float(values[position]))
                for position in order[:k].tolist()
            ]

        results: List[Optional[TopKResult]] = [None] * len(queries)
        active = list(range(len(queries)))

        def certify_active(values_of, delta: float, converged: bool,
                           iterations: int) -> None:
            """One round of the retirement rule over the active queries
            (``values_of(query)`` -> that query's current row values)."""
            bound = delta * self._decay / (1.0 - self._decay)
            remaining = []
            for position in active:
                query = queries[position]
                values = values_of(query)
                # The array form of _retire: the separation test reads
                # the k-th and (k+1)-th largest *values*, which the
                # repr tie-break (a permutation of equal values) cannot
                # affect -- an O(n) partition answers it, and the row is
                # only sorted/materialized when the query retires.
                if converged:
                    retire = True
                elif values.size <= k:
                    retire = False
                else:
                    split = values.size - k - 1
                    part = np.partition(values, split)
                    kth_best = part[split + 1:].min()
                    next_best = part[split]
                    retire = bool(kth_best - bound >= next_best + bound)
                if retire:
                    order = row_order(query, values)
                    results[position] = TopKResult(
                        query=query,
                        partners=top_partners(query, values, order, k),
                        iterations=iterations, certified=True,
                    )
                else:
                    remaining.append(position)
            active[:] = remaining

        if shards > 1:
            sharded = self._search_many_sharded(
                queries, k, compiled, shards, results, active,
                certify_active, row_ids, row_extra, row_order,
                top_partners,
            )
            if sharded is not None:
                return sharded

        scores = compiled.scores0.copy()
        upd = np.arange(len(compiled.upd_arena), dtype=np.int64)
        iterations = 0
        with executor.sweep_session(vectorized) as sweep:
            sweep = sweep or vectorized.sweep
            for _ in range(cfg.iteration_budget()):
                iterations += 1
                if upd.size:
                    new_values = sweep(scores, upd)
                    arena_ids = compiled.upd_arena[upd]
                    change = np.abs(new_values - scores[arena_ids])
                    delta = float(change.max())
                    scores[arena_ids] = new_values
                    dirty = arena_ids[change > vectorized.dirty_tolerance]
                else:
                    delta = 0.0
                    dirty = np.empty(0, dtype=np.int64)
                converged = delta < cfg.epsilon
                certify_active(
                    lambda query: row_values(query, scores),
                    delta, converged, iterations,
                )
                if not active:
                    break
                upd = compiled.dependents(dirty)
            # Release the last sweep's zero-copy out-buffer view before
            # the session closes its shared-memory blocks.
            new_values = None  # noqa: F841
        for position in active:  # iteration budget exhausted: best effort
            query = queries[position]
            values = row_values(query, scores)
            order = row_order(query, values)
            results[position] = TopKResult(
                query=query,
                partners=top_partners(query, values, order, k),
                iterations=iterations, certified=False,
            )
        return results

    def _search_many_sharded(self, queries, k, compiled, shards, results,
                             active, certify_active, row_ids, row_extra,
                             row_order, top_partners):
        """The batch search over the sharded runtime, or ``None`` when
        the instance is too small to shard (the caller runs the
        bitwise-identical unsharded loop).

        The union of the query rows becomes the runtime's *watch set*:
        those scores arrive in the parent after every iteration barrier
        (O(watch) traffic) and feed the same retirement rule, so
        results -- partners, scores, iterations, certification -- are
        bitwise identical to the unsharded loop.
        """
        import numpy as np

        from repro.runtime.sharded import open_sharded_runtime

        runtime = open_sharded_runtime(compiled, shards)
        if runtime is None:
            return None
        query_set = sorted(set(queries), key=repr)
        if query_set:
            watch = np.unique(np.concatenate(
                [row_ids[query] for query in query_set]
            ).astype(np.int64))
        else:
            watch = np.empty(0, dtype=np.int64)
        row_pos = {
            query: np.searchsorted(watch, row_ids[query])
            for query in query_set
        }
        state = {"iterations": 0,
                 "values": compiled.scores0[watch].copy()}

        def on_iteration(iteration, watch_values, delta, converged):
            state["iterations"] = iteration
            state["values"] = watch_values
            certify_active(
                lambda query: np.concatenate(
                    (watch_values[row_pos[query]], row_extra[query])
                ),
                delta, converged, iteration,
            )
            return not active

        try:
            _, iterations, _, _ = runtime.iterate(
                watch=watch, on_iteration=on_iteration
            )
        finally:
            runtime.close()
        for position in active:  # iteration budget exhausted: best effort
            query = queries[position]
            values = np.concatenate(
                (state["values"][row_pos[query]], row_extra[query])
            )
            order = row_order(query, values)
            results[position] = TopKResult(
                query=query,
                partners=top_partners(query, values, order, k),
                iterations=iterations, certified=False,
            )
        return results


def top_k_similar(
    graph1: LabeledDigraph,
    graph2: LabeledDigraph,
    query: Node,
    k: int,
    config: Optional[FSimConfig] = None,
    **overrides,
) -> TopKResult:
    """Convenience wrapper: certified top-k partners of ``query``.

    ``overrides`` are forwarded to :class:`FSimConfig` when ``config``
    is not given.
    """
    if config is None:
        config = FSimConfig(**overrides)
    return TopKSearch(graph1, graph2, config).search(query, k)
