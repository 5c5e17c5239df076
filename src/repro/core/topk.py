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
would -- at amortized cost.

This module owns no fixed-point loop.  It builds the query rows and
plugs the certification rule into the engines' own loops as their
``on_iteration`` hook (selected by ``FSimConfig(backend=...)``, like
:meth:`FSimEngine.run`): the reference engine's dict loop
(:func:`repro.runtime.driver.run_reference_engine`, with the list form
of the rule as the oracle) and the compiled loop on whichever runner
:func:`repro.runtime.driver.run_compiled` picks -- the sharded runtime
or an executor's sweep session -- watching only the query rows.  So
top-k records the same phases, and falls back from the shards the same
way, as a full computation -- see docs/PERF.md.
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
        holds.  The shared loop is the engine's own, on the runner
        :meth:`FSimEngine.run` would use: ``workers > 1`` runs it on the
        :mod:`repro.runtime` worker pool (``executor``, an
        :class:`~repro.runtime.executor.Executor` instance, replaces
        the pool ``workers`` would pick); ``shards > 1`` (default
        ``config.shards``; numpy backend) runs the sharded runtime
        instead, with the query rows gathered per iteration through its
        watch buffer.  Results are bitwise identical to the serial loop
        either way.
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
            return self._search_many_numpy(queries, k, resolved, int(shards))
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

    def _certify(self, queries: List[Node], run,
                 certify) -> List[TopKResult]:
        """Drive one engine loop with the retirement rule as its hook.

        ``run(on_iteration)`` runs the backend's fixed-point loop;
        ``certify(query, view, bound, converged)`` returns the query's
        top-k partners when the rule retires it (always when
        ``converged``), else ``None`` -- ``view`` is what the loop hands
        its hook.  The loop stops once every query retired; queries
        still active when the iteration budget runs out get their
        best-effort top-k at the last iteration's view.
        """
        results: List[Optional[TopKResult]] = [None] * len(queries)
        active = list(range(len(queries)))
        last: dict = {}

        def on_iteration(iteration, view, delta, converged) -> bool:
            bound = delta * self._decay / (1.0 - self._decay)
            remaining = []
            for position in active:
                partners = certify(queries[position], view, bound, converged)
                if partners is None:
                    remaining.append(position)
                else:
                    results[position] = TopKResult(
                        query=queries[position], partners=partners,
                        iterations=iteration, certified=True,
                    )
            active[:] = remaining
            last.update(iteration=iteration, view=view)
            return not active

        run(on_iteration)
        for position in active:  # iteration budget exhausted: best effort
            results[position] = TopKResult(
                query=queries[position],
                partners=certify(queries[position], last["view"], 0.0, True),
                iterations=last["iteration"], certified=False,
            )
        return results

    # ------------------------------------------------------------------
    # reference (dict) backend
    # ------------------------------------------------------------------
    def _search_many_python(self, queries, k, executor):
        from repro.runtime.driver import run_reference_engine

        engine = self.engine
        rows: Dict[Node, _QueryRow] = {
            query: _QueryRow(query) for query in set(queries)
        }
        # The score dict's keys, in its order: candidates, then pinned.
        pairs = [*engine.candidates(), *(engine.config.pinned_pairs or {})]
        for pair in dict.fromkeys(pairs):
            row = rows.get(pair[0])
            if row is not None:
                row.entries.append((pair[1], pair, repr(pair[1])))

        def certify(query, scores, bound, converged):
            row = rows[query].ranked(scores)
            return row[:k] if self._retire(row, k, bound, converged) else None

        return self._certify(
            queries,
            lambda hook: run_reference_engine(engine, executor,
                                              on_iteration=hook),
            certify,
        )

    # ------------------------------------------------------------------
    # compiled (numpy) backend
    # ------------------------------------------------------------------
    def _search_many_numpy(self, queries, k, executor, shards: int):
        import numpy as np

        from repro.core.compile import compile_fsim
        from repro.runtime.driver import run_compiled

        engine = self.engine
        compiled = compile_fsim(engine.graph1, engine.graph2, engine.config)

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
        # The union of the rows is the loop's watch set: only those
        # scores reach the hook (O(watch) traffic on the shards).
        watch = np.unique(np.concatenate(list(row_ids.values())))
        row_pos = {
            query: np.searchsorted(watch, ids)
            for query, ids in row_ids.items()
        }

        def certify(query, view, bound, converged):
            values = np.concatenate((view[row_pos[query]], row_extra[query]))
            # The array form of _retire: the separation test reads the
            # k-th and (k+1)-th largest *values*, which the repr
            # tie-break (a permutation of equal values) cannot affect --
            # an O(n) partition answers it, and the row is only sorted
            # when the query retires.
            if not converged:
                if values.size <= k:
                    return None
                split = values.size - k - 1
                part = np.partition(values, split)
                if not (part[split + 1:].min() - bound
                        >= part[split] + bound):
                    return None
            order = np.lexsort((row_tie[query], -values))
            partners = row_partners[query]
            return [
                (partners[position], float(values[position]))
                for position in order[:k].tolist()
            ]

        return self._certify(
            queries,
            lambda hook: run_compiled(compiled, executor, shards,
                                      watch=watch, on_iteration=hook),
            certify,
        )


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
