"""The iterative FSimX computation (Algorithm 1).

The engine precomputes, per graph pair:

- the label-similarity cache (label pairs, not node pairs),
- the theta-feasibility predicate (Remark 2),
- the candidate pair store H_c (pairs with L >= theta; optionally further
  pruned to pairs whose Equation-6 upper bound exceeds beta),

then iterates Equation 3 until the maximum score change drops below
epsilon or the Corollary-1 iteration budget is exhausted.

Two compute backends share this front end (``FSimConfig(backend=...)``):
the dict-based reference implementation below, and the vectorized
integer-indexed engine of :mod:`repro.core.vectorized` (selected
automatically for large enough instances; both produce the same
:class:`FSimResult`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.config import FSimConfig
from repro.core.operators import neighbor_term, term_upper_bound
from repro.exceptions import ConfigError
from repro.graph.digraph import LabeledDigraph
from repro.simulation.base import Variant

Node = Hashable
Pair = Tuple[Node, Node]

#: Scores within this tolerance of 1.0 are treated as exactly 1
#: (simulation definiteness in floating point).
ONE_TOLERANCE = 1e-9


def is_one(score: float) -> bool:
    """True when ``score`` equals 1 up to floating-point tolerance."""
    return score >= 1.0 - ONE_TOLERANCE


#: Below this many candidate cells (|V1| * |V2|) the "auto" backend keeps
#: the reference engine: compiling to arrays costs more than it saves.
#: Recalibrated after the plan-cache refactor (cached per-graph lowering
#: plus vectorized arena assembly): the measured crossover sits between
#: 16 cells (python ~1.3x faster) and 36 cells (numpy ~2.5x faster) --
#: see the compile/iterate split recorded in BENCH_backends.json.  The
#: old threshold of 2500 cost 26% on the smallest Fig-9 row and, worse,
#: routed every small pattern-matching query to the python engine.
AUTO_BACKEND_MIN_CELLS = 32


def vectorized_fallback_reason(config) -> Optional[str]:
    """Why the numpy backend cannot express ``config`` (None = it can).

    The vectorized engine reproduces the reference semantics for every
    variant, theta/upper-bound pruning, pinned pairs and any registered
    label function; it falls back for per-pair callables it cannot lower
    to arrays and for the scipy-backed exact matching mode.
    """
    if config.init_function is not None:
        return "custom init_function"
    if config.candidate_filter is not None:
        return "custom candidate_filter"
    if config.matching_mode == "exact" and config.variant in (
        Variant.DP, Variant.BJ
    ):
        return "exact matching mode"
    return None


@dataclass
class FSimResult:
    """Outcome of one FSimX computation.

    ``scores`` holds the maintained candidate pairs only; unmaintained
    pairs are answered by the pruning fallback (alpha times the upper
    bound when upper-bound updating is on, otherwise 0).
    """

    scores: Dict[Pair, float]
    config: FSimConfig
    iterations: int
    converged: bool
    deltas: List[float] = field(default_factory=list)
    num_candidates: int = 0
    fallback: Optional[Callable[[Node, Node], float]] = None
    #: Lazy per-source partner index (u -> partners sorted by score);
    #: built on the first ranking query and reused across queries.
    _partner_index: Optional[Dict[Node, List[Tuple[Node, float]]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def score(self, u: Node, v: Node) -> float:
        """FSim(u, v), falling back to the pruned-pair approximation."""
        value = self.scores.get((u, v))
        if value is not None:
            return value
        if self.fallback is not None:
            return self.fallback(u, v)
        return 0.0

    def is_simulated(self, u: Node, v: Node) -> bool:
        """Whether the score certifies exact chi-simulation (P2)."""
        return is_one(self.score(u, v))

    def _partners(self, u: Node) -> List[Tuple[Node, float]]:
        """Partners of ``u`` sorted by descending score (repr tie-break).

        The index over all sources is built once, on the first ranking
        query, and shared by :meth:`top_k` / :meth:`best_partner` /
        :meth:`argmax_partners` -- per-query cost drops from a full
        O(|scores|) scan to a dict lookup.  Mutating ``scores`` after a
        ranking query leaves the index stale.
        """
        index = self._partner_index
        if index is None:
            index = {}
            for (x, v), value in self.scores.items():
                index.setdefault(x, []).append((v, value))
            for partners in index.values():
                partners.sort(key=lambda item: (-item[1], repr(item[0])))
            self._partner_index = index
        return index.get(u, [])

    def top_k(self, u: Node, k: int = 10) -> List[Tuple[Node, float]]:
        """The k best partners of ``u`` among maintained pairs."""
        return self._partners(u)[:k]

    def best_partner(self, u: Node) -> Optional[Tuple[Node, float]]:
        """The best partner of ``u`` or None when no pair is maintained."""
        partners = self._partners(u)
        return partners[0] if partners else None

    def argmax_partners(self, u: Node, tolerance: float = 1e-9) -> List[Node]:
        """All partners tying for the maximum score of ``u`` (alignment)."""
        partners = self._partners(u)
        if not partners:
            return []
        best = partners[0][1]
        return [v for v, value in partners if value >= best - tolerance]

    def as_dict(self) -> Dict[Pair, float]:
        """A copy of the maintained score map."""
        return dict(self.scores)

    def score_vector(self, pairs: Sequence[Pair]) -> List[float]:
        """Scores for the given pairs (fallback applied) -- for correlations."""
        return [self.score(u, v) for u, v in pairs]

    def as_matrix(
        self,
        nodes1: Sequence[Node],
        nodes2: Sequence[Node],
    ):
        """Dense numpy score matrix with rows ``nodes1``, columns ``nodes2``.

        Unmaintained pairs are answered by the pruning fallback, so the
        matrix is total.  Handy for plugging FSim scores into numpy/scipy
        pipelines (clustering, assignment, embedding).

        Filled in one pass over the maintained score dict on top of a
        fallback-valued base: when no fallback is active the base is
        zeros and no per-cell Python call happens at all; otherwise only
        the unmaintained cells pay the fallback call.
        """
        import numpy as np

        matrix = np.zeros((len(nodes1), len(nodes2)))
        positions1: Dict[Node, List[int]] = {}
        for i, u in enumerate(nodes1):
            positions1.setdefault(u, []).append(i)
        positions2: Dict[Node, List[int]] = {}
        for j, v in enumerate(nodes2):
            positions2.setdefault(v, []).append(j)
        maintained = (
            None if self.fallback is None
            else np.zeros(matrix.shape, dtype=bool)
        )
        for (u, v), value in self.scores.items():
            rows = positions1.get(u)
            if rows is None:
                continue
            cols = positions2.get(v)
            if cols is None:
                continue
            for i in rows:
                for j in cols:
                    matrix[i, j] = value
                    if maintained is not None:
                        maintained[i, j] = True
        if maintained is not None:
            for i, j in np.argwhere(~maintained):
                matrix[i, j] = self.fallback(nodes1[i], nodes2[j])
        return matrix

    def save_scores(self, path) -> None:
        """Persist the maintained scores as a TSV of ``u, v, score``."""
        with open(path, "w", encoding="utf-8") as handle:
            for (u, v), value in sorted(self.scores.items(), key=repr):
                handle.write(f"{u}\t{v}\t{value:.12f}\n")


def load_scores(path) -> Dict[Pair, float]:
    """Read a score TSV written by :meth:`FSimResult.save_scores`.

    Node ids are restored as strings (relabel as needed).
    """
    scores: Dict[Pair, float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            u, v, value = line.rstrip("\n").split("\t")
            scores[(u, v)] = float(value)
    return scores


def update_pairs(engine: "FSimEngine", pairs, prev) -> Tuple[Dict[Pair, float], float]:
    """One Jacobi step of the reference engine over ``pairs``.

    Returns the new scores of exactly those pairs plus their max
    absolute change vs ``prev`` -- the primitive the serial loop runs
    whole and every :mod:`repro.runtime` executor runs shard-wise, so
    the bitwise-parity contract between serial and sharded iteration
    has one source of truth.
    """
    partial: Dict[Pair, float] = {}
    delta = 0.0
    for pair in pairs:
        value = engine.update_pair(pair[0], pair[1], prev)
        partial[pair] = value
        change = abs(value - prev[pair])
        if change > delta:
            delta = change
    return partial, delta


class FSimEngine:
    """Computes fractional chi-simulation scores between two graphs.

    Parameters
    ----------
    graph1, graph2:
        The compared graphs (``graph1 is graph2`` is allowed and means
        all-pairs self-similarity, as in the paper's single-graph
        experiments).
    config:
        A :class:`~repro.core.config.FSimConfig`.
    """

    def __init__(
        self,
        graph1: LabeledDigraph,
        graph2: LabeledDigraph,
        config: Optional[FSimConfig] = None,
    ):
        self.graph1 = graph1
        self.graph2 = graph2
        self.config = config or FSimConfig()
        self._label_fn = self.config.resolved_label_function
        self._label1 = {node: graph1.label(node) for node in graph1.nodes()}
        self._label2 = {node: graph2.label(node) for node in graph2.nodes()}
        self._out1 = {node: graph1.out_neighbors(node) for node in graph1.nodes()}
        self._out2 = {node: graph2.out_neighbors(node) for node in graph2.nodes()}
        self._in1 = {node: graph1.in_neighbors(node) for node in graph1.nodes()}
        self._in2 = {node: graph2.in_neighbors(node) for node in graph2.nodes()}
        self._lsim_cache: Dict[Tuple[Hashable, Hashable], float] = {}
        self._ub_cache: Dict[Pair, float] = {}
        self._candidates: Optional[List[Pair]] = None

    # ------------------------------------------------------------------
    # label similarity and feasibility
    # ------------------------------------------------------------------
    def label_similarity(self, u: Node, v: Node) -> float:
        """L(u, v): similarity of the node labels (cached per label pair)."""
        key = (self._label1[u], self._label2[v])
        value = self._lsim_cache.get(key)
        if value is None:
            value = float(self._label_fn(key[0], key[1]))
            self._lsim_cache[key] = value
        return value

    def feasible(self, x: Node, y: Node) -> bool:
        """The theta label constraint of Remark 2 for a G1/G2 node pair."""
        return self.label_similarity(x, y) >= self.config.theta

    # ------------------------------------------------------------------
    # upper bound (Equation 6)
    # ------------------------------------------------------------------
    def upper_bound(self, u: Node, v: Node) -> float:
        """Iteration-independent upper bound on FSim(u, v)."""
        cached = self._ub_cache.get((u, v))
        if cached is not None:
            return cached
        cfg = self.config
        out_bound = term_upper_bound(
            cfg.variant, self._out1[u], self._out2[v], self.feasible, cfg.normalizer
        )
        in_bound = term_upper_bound(
            cfg.variant, self._in1[u], self._in2[v], self.feasible, cfg.normalizer
        )
        bound = (
            cfg.w_out * out_bound
            + cfg.w_in * in_bound
            + cfg.w_label * self.label_similarity(u, v)
        )
        bound = min(bound, 1.0)
        self._ub_cache[(u, v)] = bound
        return bound

    # ------------------------------------------------------------------
    # candidate generation (Line 1 of Algorithm 1)
    # ------------------------------------------------------------------
    def candidates(self) -> List[Pair]:
        """Maintained node pairs: L >= theta, optional ub > beta pruning."""
        if self._candidates is not None:
            return self._candidates
        cfg = self.config
        pairs: List[Pair] = []
        nodes2 = self.graph2.nodes()
        # Group G2 nodes by label so the theta test runs per label pair.
        by_label2: Dict[Hashable, List[Node]] = {}
        for v in nodes2:
            by_label2.setdefault(self._label2[v], []).append(v)
        label_feasible: Dict[Tuple[Hashable, Hashable], bool] = {}
        for u in self.graph1.nodes():
            label_u = self._label1[u]
            for label_v, group in by_label2.items():
                key = (label_u, label_v)
                ok = label_feasible.get(key)
                if ok is None:
                    ok = float(self._label_fn(label_u, label_v)) >= cfg.theta
                    label_feasible[key] = ok
                if not ok:
                    continue
                for v in group:
                    pairs.append((u, v))
        if cfg.candidate_filter is not None:
            pairs = [pair for pair in pairs if cfg.candidate_filter(*pair)]
        if cfg.use_upper_bound:
            pairs = [pair for pair in pairs if self.upper_bound(*pair) > cfg.beta]
        self._candidates = pairs
        return pairs

    def initial_scores(self) -> Dict[Pair, float]:
        """FSim^0: L(u, v) by default, or the configured init function."""
        init = self.config.init_function
        scores: Dict[Pair, float] = {}
        for u, v in self.candidates():
            if init is not None:
                scores[(u, v)] = float(init(u, v))
            else:
                scores[(u, v)] = self.label_similarity(u, v)
        if self.config.pinned_pairs:
            for pair, value in self.config.pinned_pairs.items():
                scores[pair] = float(value)
        return scores

    # ------------------------------------------------------------------
    # the iterative update (Lines 3-10 of Algorithm 1)
    # ------------------------------------------------------------------
    def _fallback_score(self, x: Node, y: Node) -> float:
        """Score of an unmaintained pair: alpha * upper bound (Section 3.4)."""
        cfg = self.config
        if cfg.use_upper_bound and cfg.alpha > 0.0:
            return cfg.alpha * self.upper_bound(x, y)
        return 0.0

    def result_fallback(self) -> Optional[Callable[[Node, Node], float]]:
        """The unmaintained-pair fallback for the result, or None when the
        alpha-fallback is inactive (every pruned pair scores 0.0 anyway,
        and a None fallback lets :meth:`FSimResult.as_matrix` skip the
        per-cell calls entirely)."""
        cfg = self.config
        if cfg.use_upper_bound and cfg.alpha > 0.0:
            return self._fallback_score
        return None

    def _resolve_backend(self) -> str:
        """Which backend :meth:`run` uses ("python" or "numpy")."""
        choice = self.config.backend
        if choice == "python":
            return "python"
        reason = vectorized_fallback_reason(self.config)
        if reason is None:
            try:
                import numpy  # noqa: F401
            except ImportError:  # pragma: no cover - numpy is baked in
                reason = "numpy is not installed"
        if choice == "numpy":
            if reason is not None:
                warnings.warn(
                    f"numpy backend unavailable ({reason}); "
                    "falling back to the reference engine",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return "python"
            return "numpy"
        # auto: vectorize when expressible and large enough to amortize
        # the compilation step.
        if reason is not None:
            return "python"
        if self.graph1.num_nodes * self.graph2.num_nodes < AUTO_BACKEND_MIN_CELLS:
            return "python"
        return "numpy"

    def update_pair(self, u: Node, v: Node, prev: Dict[Pair, float]) -> float:
        """One Equation-3 update of FSim(u, v) from the previous scores."""
        cfg = self.config

        def weight(x: Node, y: Node) -> float:
            value = prev.get((x, y))
            if value is None:
                return self._fallback_score(x, y)
            return value

        out_term = 0.0
        if cfg.w_out > 0.0:
            out_term = neighbor_term(
                cfg.variant,
                self._out1[u],
                self._out2[v],
                weight,
                self.feasible,
                cfg.matching_mode,
                cfg.normalizer,
            )
        in_term = 0.0
        if cfg.w_in > 0.0:
            in_term = neighbor_term(
                cfg.variant,
                self._in1[u],
                self._in2[v],
                weight,
                self.feasible,
                cfg.matching_mode,
                cfg.normalizer,
            )
        score = (
            cfg.w_out * out_term
            + cfg.w_in * in_term
            + cfg.w_label * self.label_similarity(u, v)
        )
        return min(max(score, 0.0), 1.0)

    def run(self, workers: Optional[int] = None,
            executor=None, shards: Optional[int] = None) -> FSimResult:
        """Run Algorithm 1 to convergence and return the scores.

        The computation is dispatched to the backend selected by
        ``config.backend``: the vectorized numpy engine
        (:mod:`repro.core.vectorized`) where expressible, the reference
        loop below otherwise.  ``workers > 1`` distributes each
        iteration's pair updates over the :mod:`repro.runtime` worker
        pool (``executor`` -- an
        :class:`~repro.runtime.executor.Executor` instance -- replaces
        the pool ``workers`` would pick); ``shards > 1`` (overriding
        ``config.shards``; numpy backend only) runs the persistent
        sharded runtime of :mod:`repro.runtime.sharded` instead, where
        workers own pair-space slices and only boundary scores cross
        processes per iteration.  Parallel and sharded results are
        bitwise identical to serial iteration on both backends.
        """
        from repro.runtime import resolve_executor

        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be positive, got {workers}")
        if shards is not None and shards < 1:
            raise ConfigError(f"shards must be positive, got {shards}")
        resolved = resolve_executor(self.config, workers, executor)
        if self._resolve_backend() == "numpy":
            from repro.core.vectorized import run_vectorized

            return run_vectorized(self, resolved, shards=shards)
        from repro.runtime.driver import run_reference_engine

        return run_reference_engine(self, resolved)
