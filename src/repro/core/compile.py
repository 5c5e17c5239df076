"""Lowering a graph pair into the integer-indexed FSim representation.

The reference engine (:mod:`repro.core.engine`) evaluates Equation 3
through ``Dict[Pair, float]`` lookups and per-pair Python closures, which
caps every experiment at toy graph sizes.  This module compiles one
``(graph1, graph2, config)`` triple into contiguous numpy arrays once so
that :mod:`repro.core.vectorized` can run Algorithm 1 as array programs:

- CSR adjacency (``int32`` index + indptr) for both directions of both
  graphs -- taken from the per-graph :class:`~repro.core.plan.GraphPlan`
  cache (:func:`~repro.core.plan.lower_graph`), so multi-query workloads
  lower each graph once, not once per query;
- a dense label-similarity table (label pairs, not node pairs) and the
  theta-feasibility table derived from it (Remark 2);
- a flat *candidate-pair arena*: every theta-feasible node pair gets an
  integer pair-id; scores live in one ``float64`` array indexed by
  pair-id.  Pruned pairs occupy frozen slots holding their alpha-fallback
  value, pinned pairs frozen slots holding the pinned value;
- per maintained pair, the precomputed *feasible neighbor-pair index
  lists* (one flat entry per feasible ``(a, b)`` in ``N(u) x N(v)``,
  storing the arena pair-id of ``(a, b)``), enumerated by joining each
  outer neighbor with its theta-feasible bucket of inner neighbors (the
  cross product is never formed) and segmented for the
  variant-specific reduction (per-source groups for s/b, matching
  problems for dp/bj, plain sums for the cross/SimRank configuration);
- Equation-6 upper bounds evaluated in bulk (with vectorized fast paths
  for the common feasibility structures and a Hopcroft-Karp fallback);
- a reverse-dependency CSR (arena pair-id -> consuming maintained pairs)
  that drives the incremental dirty-pair scheduler.

Everything the compiler emits replicates the reference engine's floating
point bit for bit where the update rule is order-sensitive (greedy
matched-weight accumulation, clamping, the Equation-3 weighted sum) --
see ``tie_rank`` and docs/PERF.md for the tie-breaking contract.
"""

from __future__ import annotations

import copy
import os
import shutil
import tempfile
import weakref
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.config import FSimConfig
from repro.core.plan import (
    CsrAdjacency,
    GraphPlan,
    label_similarity_table,
    lower_graph,
)
from repro.graph.digraph import LabeledDigraph
from repro.simulation.base import Variant
from repro.simulation.matching import hopcroft_karp

Node = Hashable
Pair = Tuple[Node, Node]

#: Chunk budget (emitted entries or candidate pairs) for the entry
#: builders and the blocked pruner, bounding peak transient memory
#: during compilation.
_CHUNK_ENTRIES = 2_000_000

#: Maximum |V1| * |V2| for the dense pair-id lookup table (int32 cells).
_DENSE_LOOKUP_CELLS = 1 << 24


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(count)`` for each count (division-free)."""
    counts = counts.astype(np.int64, copy=False)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(np.cumsum(counts) - counts, counts)
    return out


def ragged_indices(starts: np.ndarray, counts: np.ndarray,
                   dtype=np.int64) -> np.ndarray:
    """Concatenate ``arange(start, start + count)`` for each segment.

    The standard vectorized gather for CSR-style ragged ranges; zero
    counts are allowed and contribute nothing.  ``dtype`` must hold
    every index (int32 halves the temporaries of a big gather).
    """
    counts = counts.astype(np.int64, copy=False)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=dtype)
    offsets = np.cumsum(counts) - counts
    out = np.arange(total, dtype=dtype)
    out -= np.repeat(offsets.astype(dtype, copy=False), counts)
    out += np.repeat(starts.astype(dtype, copy=False), counts)
    return out


#: Segments at most this long are summed with the sequential masked loop
#: (bit-identical to the reference engine's Python accumulation order);
#: longer segments use ``np.add.reduceat`` (pairwise summation, within
#: ~1e-15 relative of sequential).
_SEQUENTIAL_SUM_CUTOFF = 64


def segment_sum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``values`` split into consecutive segments.

    ``values`` must be the concatenation of the segments in order.  Small
    segments are accumulated left-to-right so the result is bit-identical
    to the reference engine's sequential Python sums.

    The sequential-vs-reduceat choice is made **per segment**, never per
    batch: a segment's float must be a function of its own content alone,
    because the same pair is re-summed inside different sweep subsets
    (the dirty scheduler, the streaming replay of :mod:`repro.streaming`)
    and its value must not depend on which other pairs share the batch.
    """
    if counts.size == 0:
        return np.zeros(0, dtype=np.float64)
    starts = np.cumsum(counts) - counts
    out = np.zeros(len(counts), dtype=np.float64)
    longest = int(counts.max()) if counts.size else 0
    if longest <= _SEQUENTIAL_SUM_CUTOFF:
        for j in range(longest):
            sel = counts > j
            out[sel] += values[starts[sel] + j]
        return out
    big = counts > _SEQUENTIAL_SUM_CUTOFF
    small_counts = np.where(big, 0, counts)
    for j in range(int(small_counts.max())):
        sel = small_counts > j
        out[sel] += values[starts[sel] + j]
    big_idx = np.flatnonzero(big)
    big_values = values[ragged_indices(starts[big_idx], counts[big_idx])]
    big_starts = np.cumsum(counts[big_idx]) - counts[big_idx]
    out[big_idx] = np.add.reduceat(big_values, big_starts)
    return out


class SBStructure:
    """Per-source group segmentation for one s/b mapping direction.

    Entries are feasible neighbor pairs in the reference iteration order
    (outer source, inner target); a *group* is one source's feasible
    targets.  The s-term of a pair is the sum over its groups of the
    group maximum.
    """

    __slots__ = (
        "ent_arena", "ent_count", "ent_start",
        "grp_len", "grp_count", "grp_start", "grp_pos_full",
    )

    def __init__(self, ent_arena, ent_count, grp_len, grp_count):
        ent_arena = ent_arena.astype(np.int32, copy=False)
        self.ent_arena = ent_arena  # arena pair-id per entry
        self.ent_count = ent_count  # entries per maintained pair
        self.ent_start = np.cumsum(ent_count) - ent_count
        self.grp_len = grp_len  # entries per group
        self.grp_count = grp_count  # groups per maintained pair
        self.grp_start = np.cumsum(grp_count) - grp_count
        #: Group start offsets in full entry space (full-sweep fast path).
        self.grp_pos_full = np.cumsum(grp_len) - grp_len


class MatchStructure:
    """Flat matching-problem arena for one dp/bj direction.

    Each maintained pair is one matching problem; ``ba_lslot`` /
    ``ba_rslot`` are globally disjoint slot ids (so one slot array
    serves every problem at once).  The greedy visit order is *not*
    stored per entry: an entry's weight and repr tie-break are functions
    of its arena pair alone, so the runtime ranks the (much smaller)
    arena once per sweep and concatenates the ``ba_*`` (by-arena CSR)
    ranges in rank order -- every entry in global greedy order, with no
    per-entry sort.  The locally-dominant rounds of the matching kernel
    run over that sequence.  The by-problem ``ent_arena`` remains for
    the dependency counts; the by-problem slot arrays (``ent_lslot`` /
    ``ent_rslot``) are kept so the streaming patcher can splice rebuilt
    rows without reconstructing them from the by-arena layout.
    """

    __slots__ = (
        "ent_arena", "ent_count", "ent_start", "ent_lslot", "ent_rslot",
        "ba_indptr", "ba_prob", "ba_lslot", "ba_rslot",
        "cap", "num_lslots", "num_rslots",
    )

    def __init__(self, ent_arena, ent_lslot, ent_rslot, ent_pair, ent_count,
                 cap, num_lslots, num_rslots, num_arena):
        ent_arena = ent_arena.astype(np.int32, copy=False)
        ent_lslot = ent_lslot.astype(np.int32, copy=False)
        ent_rslot = ent_rslot.astype(np.int32, copy=False)
        self.ent_arena = ent_arena
        self.ent_count = ent_count
        self.ent_start = np.cumsum(ent_count) - ent_count
        self.ent_lslot = ent_lslot
        self.ent_rslot = ent_rslot
        # by-arena CSR (stable radix argsort keeps each arena pair's
        # entries in deterministic problem order, though any order is
        # correct: they never share a slot).
        order = np.argsort(ent_arena, kind="stable")
        counts = np.bincount(ent_arena, minlength=num_arena)
        self.ba_indptr = np.zeros(num_arena + 1, dtype=np.int64)
        np.cumsum(counts, out=self.ba_indptr[1:])
        self.ba_prob = ent_pair.astype(np.int32, copy=False)[order]
        self.ba_lslot = ent_lslot[order]
        self.ba_rslot = ent_rslot[order]
        #: Greedy saturation bound per problem: the maximum matching size
        #: |M_chi| -- once this many pairs are matched the problem is done.
        self.cap = cap
        self.num_lslots = num_lslots
        self.num_rslots = num_rslots


class CrossStructure:
    """Plain per-pair sums for the cross/SimRank mapping direction."""

    __slots__ = ("ent_arena", "ent_count", "ent_start")

    def __init__(self, ent_arena, ent_count):
        self.ent_arena = ent_arena.astype(np.int32, copy=False)
        self.ent_count = ent_count
        self.ent_start = np.cumsum(ent_count) - ent_count


class DirectionTerm:
    """One neighbor term (out or in) of Equation 3, fully precomputed.

    ``conv`` holds the empty-set convention constant where it applies and
    NaN where the term must be computed; ``denom`` is Omega_chi.
    """

    __slots__ = ("family", "conv", "denom", "structures")

    def __init__(self, family: str, conv, denom, structures):
        self.family = family  # "sb" | "match" | "cross"
        self.conv = conv
        self.denom = denom
        #: "sb": (forward, backward-or-None); "match"/"cross": (structure,)
        self.structures = structures


def _file_backed(array) -> bool:
    """True for arrays that live on a memmap file (an unpickled memmap
    loses its file and arrives as plain in-memory data)."""
    return (
        isinstance(array, np.memmap)
        and getattr(array, "filename", None) is not None
    )


class _SlabStore:
    """Directory of memory-mapped slab files backing one compiled instance.

    Files live under ``$REPRO_ARENA_DIR`` (default: the system temp
    directory) and are removed when the owning compiled instance is
    garbage collected.
    """

    def __init__(self):
        root = os.environ.get("REPRO_ARENA_DIR") or tempfile.gettempdir()
        os.makedirs(root, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="repro-arena-", dir=root)
        self._counter = 0
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self.path, True
        )

    def __getstate__(self):
        # A store names files on *this* machine owned by *this* process.
        # Shipping it to a worker (sharded slices pickle the compiled
        # instance wholesale) would have every unpickler share one
        # directory and one file counter, so concurrent workers truncate
        # each other's live mappings (SIGBUS on the next page fault).
        # An unpickled store is therefore a fresh, empty one.
        return {}

    def __setstate__(self, state):
        self.__init__()

    def materialize(self, array: np.ndarray) -> np.ndarray:
        """Spill one array to a memmap file (same dtype/shape/content)."""
        if array.size == 0 or _file_backed(array):
            return array
        self._counter += 1
        path = os.path.join(self.path, f"slab-{self._counter}.bin")
        data = np.ascontiguousarray(array)
        data.tofile(path)
        return np.memmap(path, dtype=data.dtype, mode="r+", shape=data.shape)


#: CSR lowering now lives in :mod:`repro.core.plan`; the alias keeps the
#: historical name used throughout this module's signatures.
_Csr = CsrAdjacency


class CompiledFSim:
    """The array-form FSim instance produced by :func:`compile_fsim`.

    Attribute groups (all numpy unless noted):

    - graph side: ``nodes1``/``nodes2`` (lists), ``nlab1``/``nlab2``
      (label ids), CSR adjacency per direction, ``lsim_table``/``feas``;
    - arena side: ``arena_u``/``arena_v``, ``scores0`` (initial score per
      pair-id; frozen slots already hold their final value),
      ``maintained`` mask, ``upd_arena`` (pair-ids updated each sweep,
      in reference candidate order);
    - update side: ``out_term``/``in_term`` (:class:`DirectionTerm` or
      None when the corresponding weight is zero), ``upd_label``
      (label-similarity term of each updated pair);
    - scheduler side: ``dep_indptr``/``dep_targets`` (arena pair-id ->
      positions in ``upd_arena`` that consume it).
    """

    def __init__(self, graph1: LabeledDigraph, graph2: LabeledDigraph,
                 config: FSimConfig):
        from repro.obs.profiling import phase

        self.config = config
        # lower_graph is cached per graph, so self-similarity and
        # repeated queries share one plan automatically.
        self._attach_plans(lower_graph(graph1), lower_graph(graph2))
        self._build_label_tables()
        self._build_arena()
        self._apply_pinning()
        with phase("compile.enumerate"):
            self._build_terms()
        self._build_dependencies()

    # ------------------------------------------------------------------
    # graph lowering (cached per graph -- see repro.core.plan)
    # ------------------------------------------------------------------
    def _attach_plans(self, plan1: GraphPlan, plan2: GraphPlan):
        self.plan1 = plan1
        self.plan2 = plan2
        self.nodes1: List[Node] = plan1.nodes
        self.nodes2: List[Node] = plan2.nodes
        self.n1 = plan1.n
        self.n2 = plan2.n
        self.index1 = plan1.index
        self.index2 = plan2.index
        self.labels1: List[Hashable] = plan1.labels
        self.labels2: List[Hashable] = plan2.labels
        self.nlab1 = plan1.nlab
        self.nlab2 = plan2.nlab
        self.out1 = plan1.out_csr
        self.in1 = plan1.in_csr
        self.out2 = plan2.out_csr
        self.in2 = plan2.in_csr
        #: Per-CSR artefacts that depend only on the plans: label-count
        #: matrices (:meth:`_label_count_matrix`) and feasible-neighbor
        #: bucket indexes (:meth:`_neighbor_buckets`).  Keyed by CSR
        #: identity, so re-attaching plans invalidates it.
        self._csr_cache: Dict[tuple, object] = {}

    def _build_label_tables(self):
        self.lsim_table = label_similarity_table(
            self.config.resolved_label_function, self.labels1, self.labels2
        )
        self.feas = self.lsim_table >= self.config.theta

    # ------------------------------------------------------------------
    # arena construction (Line 1 of Algorithm 1, array form)
    # ------------------------------------------------------------------
    def _build_arena(self):
        from repro.obs.profiling import phase

        cfg = self.config
        # Feasible G2 partners per G1 label, concatenated in the reference
        # candidate order (G2 labels in first-seen order, members in
        # insertion order).  Concatenating the per-label lists once and
        # assembling the arena with one ragged gather removes the old
        # per-node Python loop.
        members2 = self.plan2.members
        vlists: List[np.ndarray] = []
        for k1 in range(max(len(self.labels1), 1)):
            if self.labels1:
                feasible = [
                    members2[k2]
                    for k2 in range(len(self.labels2))
                    if self.feas[k1, k2]
                ]
            else:
                feasible = []
            vlists.append(
                np.concatenate(feasible) if feasible
                else np.empty(0, dtype=np.int32)
            )
        vlen = np.asarray([len(block) for block in vlists], dtype=np.int64)
        vstart = np.cumsum(vlen) - vlen
        all_v = (
            np.concatenate(vlists) if vlists else np.empty(0, dtype=np.int32)
        )
        if self.n1:
            counts = vlen[self.nlab1]
        else:
            counts = np.zeros(0, dtype=np.int64)
        #: True when the arena holds only the survivors of the Equation-6
        #: prune: with ``alpha == 0`` a pruned pair's score is frozen at
        #: exactly 0.0, so dropping its slot (and its occurrences in
        #: every entry list) leaves all sequential sums, group maxima and
        #: greedy matchings bit-identical -- the pair contributes nothing
        #: that adding 0.0 would not.  Pair-id lookups must then tolerate
        #: misses (:meth:`_lookup_arena`).
        self.pruned_compact = cfg.use_upper_bound and cfg.alpha == 0.0
        if self.pruned_compact:
            with phase("compile.bounds"):
                self._build_arena_blocked(all_v, vstart, counts)
        else:
            if self.n1:
                self.arena_v = all_v[
                    ragged_indices(vstart[self.nlab1], counts)
                ].astype(np.int32)
            else:
                self.arena_v = np.empty(0, dtype=np.int32)
            self.arena_u = np.repeat(
                np.arange(self.n1, dtype=np.int32), counts
            )
            self.num_feasible = len(self.arena_u)
            self.arena_label = (
                self.lsim_table[
                    self.nlab1[self.arena_u], self.nlab2[self.arena_v]
                ]
                if self.num_feasible
                else np.empty(0, dtype=np.float64)
            )
            if cfg.use_upper_bound:
                with phase("compile.bounds"):
                    self.ub = self._bound_pairs(
                        self.arena_u.astype(np.int64),
                        self.arena_v.astype(np.int64),
                        self.arena_label,
                    )
                self.maintained = self.ub > cfg.beta
            else:
                self.ub = None
                self.maintained = np.ones(self.num_feasible, dtype=bool)
        # pair-id lookup: sorted flat keys u * n2 + v -> arena id, plus a
        # dense (u, v) -> id table when the cell count is small enough
        # (one gather then answers feasibility and id at once).
        keys = self.arena_u.astype(np.int64) * max(self.n2, 1) + self.arena_v
        self._key_order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._key_order]
        if self.n1 * self.n2 <= _DENSE_LOOKUP_CELLS:
            dense = np.full((self.n1, self.n2), -1, dtype=np.int32)
            dense[self.arena_u, self.arena_v] = np.arange(
                self.num_feasible, dtype=np.int32
            )
            self._pair_id_dense = dense
        else:
            self._pair_id_dense = None

        scores0 = np.zeros(self.num_feasible, dtype=np.float64)
        scores0[self.maintained] = self.arena_label[self.maintained]
        if cfg.use_upper_bound and cfg.alpha > 0.0:
            pruned = ~self.maintained
            scores0[pruned] = cfg.alpha * self.ub[pruned]
        self.scores0 = scores0
        self.num_candidates = int(self.maintained.sum())

    def _build_arena_blocked(self, all_v: np.ndarray, vstart: np.ndarray,
                             counts: np.ndarray) -> None:
        """Blocked candidate pruning for the compact (``alpha == 0``)
        upper-bound lowering.

        Enumerates the theta-feasible pair space in bounded G1-node
        blocks, evaluates the Equation-6 bound per block and keeps only
        the survivors -- plus pinned pairs, whose frozen (possibly
        nonzero) values neighbor entry lists still read -- so peak
        compile memory tracks the kept arena rather than the full
        candidate cross-product.
        """
        cfg = self.config
        pinned = cfg.pinned_pairs or {}
        pinned_keys = np.unique(np.asarray(
            [
                self.index1[a] * max(self.n2, 1) + self.index2[b]
                for (a, b) in pinned
                if a in self.index1 and b in self.index2
            ],
            dtype=np.int64,
        )) if pinned else np.empty(0, dtype=np.int64)
        keep_u: List[np.ndarray] = []
        keep_v: List[np.ndarray] = []
        keep_label: List[np.ndarray] = []
        keep_ub: List[np.ndarray] = []
        keep_main: List[np.ndarray] = []
        for start, end in self._iter_chunks(counts):
            cnt = counts[start:end]
            total = int(cnt.sum())
            if total == 0:
                continue
            u_blk = np.repeat(np.arange(start, end, dtype=np.int64), cnt)
            v_blk = all_v[
                ragged_indices(vstart[self.nlab1[start:end]], cnt)
            ].astype(np.int64)
            lab_blk = self.lsim_table[self.nlab1[u_blk], self.nlab2[v_blk]]
            ub_blk = self._bound_pairs(u_blk, v_blk, lab_blk)
            main_blk = ub_blk > cfg.beta
            keep = main_blk
            if pinned_keys.size:
                keep = keep | np.isin(
                    u_blk * max(self.n2, 1) + v_blk, pinned_keys
                )
            if not keep.any():
                continue
            keep_u.append(u_blk[keep].astype(np.int32))
            keep_v.append(v_blk[keep].astype(np.int32))
            keep_label.append(lab_blk[keep])
            keep_ub.append(ub_blk[keep])
            keep_main.append(main_blk[keep])
        if keep_u:
            self.arena_u = np.concatenate(keep_u)
            self.arena_v = np.concatenate(keep_v)
            self.arena_label = np.concatenate(keep_label)
            self.ub = np.concatenate(keep_ub)
            self.maintained = np.concatenate(keep_main)
        else:
            self.arena_u = np.empty(0, dtype=np.int32)
            self.arena_v = np.empty(0, dtype=np.int32)
            self.arena_label = np.empty(0, dtype=np.float64)
            self.ub = np.empty(0, dtype=np.float64)
            self.maintained = np.empty(0, dtype=bool)
        self.num_feasible = len(self.arena_u)

    def _lookup_arena(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Arena pair-ids of ``(u, v)`` index pairs, -1 for pairs not in
        the arena (compact arenas drop pruned pairs, so feasibility no
        longer implies membership)."""
        if not len(self._sorted_keys):
            return np.full(len(us), -1, dtype=np.int64)
        keys = us.astype(np.int64) * max(self.n2, 1) + vs
        pos = np.searchsorted(self._sorted_keys, keys)
        pos = np.minimum(pos, len(self._sorted_keys) - 1)
        ids = self._key_order[pos].astype(np.int64)
        ids[self._sorted_keys[pos] != keys] = -1
        return ids

    def _apply_pinning(self):
        """Freeze pinned pair-ids; collect pins outside the arena/graphs."""
        cfg = self.config
        pinned = cfg.pinned_pairs or {}
        self.pinned_in_arena: Dict[int, float] = {}
        #: (pair, value) for pinned pairs outside the theta-feasible arena
        #: (including off-graph pairs) -- appended verbatim to the result.
        self.pinned_extra: List[Tuple[Pair, float]] = []
        frozen = ~self.maintained
        for (a, b), value in pinned.items():
            value = float(value)
            i = self.index1.get(a)
            j = self.index2.get(b)
            arena_id = None
            if i is not None and j is not None:
                key = np.int64(i) * max(self.n2, 1) + j
                pos = int(np.searchsorted(self._sorted_keys, key))
                if (pos < len(self._sorted_keys)
                        and self._sorted_keys[pos] == key):
                    arena_id = int(self._key_order[pos])
            if arena_id is None:
                self.pinned_extra.append(((a, b), value))
            else:
                self.pinned_in_arena[arena_id] = value
                self.scores0[arena_id] = value
                frozen[arena_id] = True
                if not self.maintained[arena_id]:
                    # Pinned-but-pruned pairs are still reported (the
                    # reference keeps every pinned pair in the score map).
                    self.pinned_extra.append(
                        ((self.nodes1[i], self.nodes2[j]), value)
                    )
        self.frozen = frozen
        self.upd_arena = np.flatnonzero(self.maintained & ~frozen)
        self.upd_u = self.arena_u[self.upd_arena].astype(np.int64)
        self.upd_v = self.arena_v[self.upd_arena].astype(np.int64)
        self.upd_label = self.arena_label[self.upd_arena]

    # ------------------------------------------------------------------
    # Equation-6 upper bounds, in bulk
    # ------------------------------------------------------------------
    def _bound_pairs(self, us: np.ndarray, vs: np.ndarray,
                     labels: np.ndarray) -> np.ndarray:
        """Equation-6 bound for an explicit pair set (elementwise, so
        blockwise evaluation is bitwise identical to one full pass)."""
        cfg = self.config
        out_bound = self._term_bounds(self.out1, self.out2, us, vs)
        in_bound = self._term_bounds(self.in1, self.in2, us, vs)
        bound = (
            cfg.w_out * out_bound
            + cfg.w_in * in_bound
            + cfg.w_label * labels
        )
        return np.minimum(bound, 1.0)

    def _term_bounds(self, csr1: _Csr, csr2: _Csr,
                     us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``|M_chi| / Omega_chi`` per arena pair, conventions applied."""
        variant = self.config.variant
        d1 = csr1.degrees[us].astype(np.float64)
        d2 = csr2.degrees[vs].astype(np.float64)
        conv = _empty_conventions(variant, d1, d2)
        active = np.isnan(conv)
        out = conv.copy()
        if active.any():
            sizes = self._mapping_sizes(
                variant, csr1, csr2, us[active], vs[active]
            )
            denom = _omega(
                variant, d1[active], d2[active], self.config.normalizer
            )
            out[active] = np.minimum(sizes / denom, 1.0)
        return out

    def _label_count_matrix(self, csr: _Csr, nlab: np.ndarray,
                            num_labels: int, n: int) -> np.ndarray:
        """Dense ``(node, label) -> neighbor count`` for one direction.

        Cached per CSR (reset when plans are re-attached): the blocked
        pruner and the streaming patcher evaluate bounds many times per
        plan generation and the matrix only depends on the plan.
        """
        key = (id(csr), n, num_labels)
        cached = self._csr_cache.get(key)
        if cached is not None:
            return cached
        counts = np.zeros((n, max(num_labels, 1)), dtype=np.int64)
        if len(csr.indices):
            rows = np.repeat(np.arange(n, dtype=np.int64), csr.degrees)
            np.add.at(counts, (rows, nlab[csr.indices]), 1)
        self._csr_cache[key] = counts
        return counts

    def _mapping_sizes(self, variant, csr1: _Csr, csr2: _Csr,
                       us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``|M_chi(N(u), N(v))|`` under the label constraint (Equation 6)."""
        c1 = self._label_count_matrix(csr1, self.nlab1, len(self.labels1), self.n1)
        c2 = self._label_count_matrix(csr2, self.nlab2, len(self.labels2), self.n2)
        feas_f = self.feas.astype(np.float64)
        if variant is Variant.CROSS:
            reach = c1.astype(np.float64) @ feas_f  # (n1, L2)
            return _chunked_rowdot(reach, us, c2.astype(np.float64), vs)
        if variant is Variant.S:
            any_f = ((c2 > 0).astype(np.float64) @ feas_f.T > 0).astype(
                np.float64
            )  # (n2, L1)
            return _chunked_rowdot(c1.astype(np.float64), us, any_f, vs)
        if variant is Variant.B:
            any_f = ((c2 > 0).astype(np.float64) @ feas_f.T > 0).astype(
                np.float64
            )
            any_b = ((c1 > 0).astype(np.float64) @ feas_f > 0).astype(
                np.float64
            )  # (n1, L2)
            forward = _chunked_rowdot(c1.astype(np.float64), us, any_f, vs)
            backward = _chunked_rowdot(c2.astype(np.float64), vs, any_b, us)
            return forward + backward
        # dp / bj: maximum-cardinality matching on the feasibility graph.
        row_deg = self.feas.sum(axis=1)
        col_deg = self.feas.sum(axis=0)
        if self.feas.all():
            # Complete bipartite blow-up: |M| = min(|S1|, |S2|).
            return np.minimum(csr1.degrees[us], csr2.degrees[vs]).astype(
                np.float64
            )
        if (row_deg <= 1).all() and (col_deg <= 1).all():
            # The label feasibility graph is itself a partial matching, so
            # the blown-up matching decomposes per label:
            # |M| = sum_l min(count1[l], count2[m(l)]).
            partner = np.argmax(self.feas, axis=1)
            has = np.flatnonzero(row_deg > 0)
            c2m = np.zeros((self.n2, c1.shape[1]), dtype=c2.dtype)
            c2m[:, has] = c2[:, partner[has]]
            return _chunked_min_sum(c1, us, c2m, vs)
        return self._matching_sizes_fallback(csr1, csr2, us, vs)

    def _matching_sizes_fallback(self, csr1, csr2, us, vs) -> np.ndarray:
        """Exact per-pair Hopcroft-Karp for irregular feasibility tables."""
        sizes = np.empty(len(us), dtype=np.float64)
        feas = self.feas
        for k in range(len(us)):
            u = int(us[k])
            v = int(vs[k])
            left = csr1.indices[csr1.indptr[u]:csr1.indptr[u + 1]]
            right = csr2.indices[csr2.indptr[v]:csr2.indptr[v + 1]]
            right_labels = self.nlab2[right]
            adjacency = [
                np.flatnonzero(feas[self.nlab1[a], right_labels]).tolist()
                for a in left
            ]
            size, _, _ = hopcroft_karp(len(left), len(right), adjacency)
            sizes[k] = float(size)
        return sizes

    # ------------------------------------------------------------------
    # neighbor-term entry lists
    # ------------------------------------------------------------------
    def _build_terms(self):
        cfg = self.config
        variant = cfg.variant
        if variant is Variant.CROSS:
            family = "cross"
        elif variant in (Variant.DP, Variant.BJ):
            family = "match"
        else:
            family = "sb"
        self.family = family
        if family == "match" and getattr(self, "tie_rank", None) is None:
            # Arena-level and immutable under edge patches, so row-subset
            # clones (build_row_subset) reuse the parent's ranks verbatim.
            self.tie_rank = self._tie_ranks()
        # Spilling each direction as soon as it is built (memmap
        # backend) keeps at most one direction's slabs in RAM during
        # compilation, so the compile-time high-water mark is roughly
        # half the all-in-RAM peak.
        spill = cfg.arena_backend == "memmap"
        self.out_term = (
            self._build_direction(self.out1, self.out2, family, variant)
            if cfg.w_out > 0.0 else None
        )
        if spill and self.out_term is not None:
            self._spill_term(self.out_term)
        self.in_term = (
            self._build_direction(self.in1, self.in2, family, variant)
            if cfg.w_in > 0.0 else None
        )
        if spill and self.in_term is not None:
            self._spill_term(self.in_term)

    def _tie_ranks(self) -> np.ndarray:
        """Rank of ``repr((u, v))`` per arena pair.

        The reference greedy matching breaks weight ties by the repr of
        the node pair; sorting by this precomputed rank reproduces its
        decisions without building strings in the hot loop.
        """
        reprs = [
            repr((self.nodes1[i], self.nodes2[j]))
            for i, j in zip(self.arena_u.tolist(), self.arena_v.tolist())
        ]
        order = sorted(range(len(reprs)), key=reprs.__getitem__)
        ranks = np.empty(len(reprs), dtype=np.int64)
        ranks[np.asarray(order, dtype=np.int64)] = np.arange(
            len(reprs), dtype=np.int64
        )
        return ranks if len(reprs) else np.empty(0, dtype=np.int64)

    def _build_direction(self, csr1: _Csr, csr2: _Csr, family: str,
                         variant) -> DirectionTerm:
        d1 = csr1.degrees[self.upd_u].astype(np.float64)
        d2 = csr2.degrees[self.upd_v].astype(np.float64)
        conv = _empty_conventions(variant, d1, d2)
        denom = _omega(variant, d1, d2, self.config.normalizer)
        if family == "sb":
            forward = self._cross_entries(csr1, csr2, outer="left")
            backward = (
                self._cross_entries(csr1, csr2, outer="right")
                if variant is Variant.B else None
            )
            return DirectionTerm("sb", conv, denom, (forward, backward))
        if family == "cross":
            structure = self._cross_entries(csr1, csr2, outer="left",
                                            grouped=False)
            return DirectionTerm("cross", conv, denom, (structure,))
        structure = self._match_entries(csr1, csr2)
        return DirectionTerm("match", conv, denom, (structure,))

    def _iter_chunks(self, sizes: np.ndarray):
        """Yield ``(start, end)`` ranges whose ``sizes`` sum to about
        ``_CHUNK_ENTRIES``: a range closes at the first item that brings
        its sum to the budget, and the last range takes the rest."""
        total = len(sizes)
        ends = np.cumsum(sizes, dtype=np.int64)
        start = 0
        while start < total:
            base = int(ends[start - 1]) if start else 0
            end = int(np.searchsorted(ends, base + _CHUNK_ENTRIES)) + 1
            end = min(end, total)
            yield start, end
            start = end

    def _neighbor_buckets(self, csr: _Csr, outer: str):
        """Feasible-neighbor index of the inner side of an enumeration.

        ``csr`` is the inner side: G2 when G1 neighbors drive the outer
        loop (``outer="left"``), G1 for ``"right"``.  Key ``(x, k)`` --
        inner node ``x``, outer label ``k`` -- maps to the CSR-ordered
        local positions of ``x``'s neighbors whose labels are
        theta-feasible with ``k``.  Outer labels with identical
        feasibility rows share one class, so the index holds each CSR
        entry once per feasible class (once in total at theta = 0).
        Returns ``(label_class, num_classes, keys, starts, counts,
        local)``: key ``x * num_classes + label_class[k]`` is found by
        searchsorted in the sorted distinct ``keys``, and its bucket is
        ``local[starts:starts + counts]``.  Cached per CSR, like
        :meth:`_label_count_matrix`.
        """
        key = ("buckets", id(csr), outer)
        cached = self._csr_cache.get(key)
        if cached is not None:
            return cached
        if outer == "left":
            feas, inner_lab = self.feas, self.nlab2
        else:
            feas, inner_lab = self.feas.T, self.nlab1
        class_rows, label_class = np.unique(
            feas, axis=0, return_inverse=True
        )
        num_classes = len(class_rows)
        # Per inner label, its feasible classes in ascending order.
        per_label = class_rows.sum(axis=0)
        label_classes = np.nonzero(class_rows.T)[1]
        ent_lab = inner_lab[csr.indices]
        reps = per_label[ent_lab]
        ent = np.repeat(np.arange(len(csr.indices), dtype=np.int64), reps)
        ent_class = label_classes[
            ragged_indices((np.cumsum(per_label) - per_label)[ent_lab], reps)
        ]
        ent_row = np.repeat(
            np.arange(len(csr.degrees), dtype=np.int64), csr.degrees
        )[ent]
        keys = ent_row * num_classes + ent_class
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        local = (ent - csr.indptr[ent_row])[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        counts = np.diff(np.append(starts, len(keys)))
        index = (label_class.reshape(-1), num_classes, keys[starts], starts,
                 counts, local)
        self._csr_cache[key] = index
        return index

    def _cross_feasible(self, csr1: _Csr, csr2: _Csr, outer: str,
                        us: "np.ndarray | None" = None,
                        vs: "np.ndarray | None" = None):
        """Feasible neighbor pairs of every maintained pair, chunked.

        Yields ``(pair_pos, a_local, b_local, arena_id)`` blocks in the
        reference iteration order for the requested nesting (``left``:
        G1 neighbor outer loop; ``right``: G2 neighbor outer loop, used
        by the backward leg of the b operator).  ``us`` / ``vs`` select
        an explicit row subset (default: every updatable pair); the
        streaming patcher uses this to rebuild only the rows a graph
        delta touched.

        Each (pair, outer neighbor) row gathers its bucket from
        :meth:`_neighbor_buckets`; buckets keep CSR order, so the output
        is the reference nested loop restricted to its feasible cells,
        and infeasible cells are never formed.
        """
        if us is None:
            us = self.upd_u
            vs = self.upd_v
        if outer == "left":
            ocsr, icsr, onodes, inodes, olab = csr1, csr2, us, vs, self.nlab1
        else:
            ocsr, icsr, onodes, inodes, olab = csr2, csr1, vs, us, self.nlab2
        d_out = ocsr.degrees[onodes]
        if not d_out.any():
            return
        label_class, width, keys, starts, counts, local = (
            self._neighbor_buckets(icsr, outer)
        )
        if not len(keys):
            return
        for start, end in self._iter_chunks(d_out):
            row_pair = np.repeat(
                np.arange(start, end, dtype=np.int64), d_out[start:end]
            )
            o_local = _ragged_arange(d_out[start:end])
            o_node = ocsr.indices[ocsr.indptr[onodes[row_pair]] + o_local]
            i_node = inodes[row_pair]
            query = i_node * width + label_class[olab[o_node]]
            pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
            b_count = np.where(keys[pos] == query, counts[pos], 0)
            b_start = starts[pos]
            for r0, r1 in self._iter_chunks(b_count):
                cnt = b_count[r0:r1]
                ent_row = np.repeat(np.arange(r0, r1, dtype=np.int64), cnt)
                i_local = local[ragged_indices(b_start[r0:r1], cnt)]
                pair_pos = row_pair[ent_row]
                inner = icsr.indices[icsr.indptr[i_node[ent_row]] + i_local]
                if outer == "left":
                    a_local, b_local = o_local[ent_row], i_local
                    a_node, b_node = o_node[ent_row], inner
                else:
                    a_local, b_local = i_local, o_local[ent_row]
                    a_node, b_node = inner, o_node[ent_row]
                if self._pair_id_dense is not None:
                    arena = self._pair_id_dense[a_node, b_node].astype(
                        np.int64
                    )
                else:
                    arena = self._lookup_arena(a_node, b_node)
                if self.pruned_compact:
                    # Compact arenas drop pruned pairs: feasible cells
                    # without an arena id contribute nothing.
                    hit = arena >= 0
                    pair_pos, a_local, b_local, arena = (
                        pair_pos[hit], a_local[hit], b_local[hit], arena[hit]
                    )
                yield pair_pos, a_local, b_local, arena

    def _cross_entries(self, csr1: _Csr, csr2: _Csr, outer: str,
                       grouped: bool = True,
                       us: "np.ndarray | None" = None,
                       vs: "np.ndarray | None" = None):
        num_pairs = len(self.upd_arena) if us is None else len(us)
        parts_pair: List[np.ndarray] = []
        parts_outer: List[np.ndarray] = []
        parts_arena: List[np.ndarray] = []
        for pair_pos, a_local, b_local, arena in self._cross_feasible(
            csr1, csr2, outer, us, vs
        ):
            parts_pair.append(pair_pos)
            parts_outer.append(a_local if outer == "left" else b_local)
            parts_arena.append(arena)
        if parts_pair:
            ent_pair = np.concatenate(parts_pair)
            ent_outer = np.concatenate(parts_outer)
            ent_arena = np.concatenate(parts_arena).astype(np.int64)
        else:
            ent_pair = np.empty(0, dtype=np.int64)
            ent_outer = np.empty(0, dtype=np.int64)
            ent_arena = np.empty(0, dtype=np.int64)
        ent_count = np.bincount(ent_pair, minlength=num_pairs).astype(np.int64)
        if not grouped:
            return CrossStructure(ent_arena, ent_count)
        if len(ent_pair):
            new_group = np.ones(len(ent_pair), dtype=bool)
            new_group[1:] = (
                (ent_pair[1:] != ent_pair[:-1])
                | (ent_outer[1:] != ent_outer[:-1])
            )
            grp_starts = np.flatnonzero(new_group)
            grp_len = np.diff(np.append(grp_starts, len(ent_pair)))
            grp_pair = ent_pair[grp_starts]
            grp_count = np.bincount(grp_pair, minlength=num_pairs).astype(
                np.int64
            )
        else:
            grp_len = np.empty(0, dtype=np.int64)
            grp_count = np.zeros(num_pairs, dtype=np.int64)
        return SBStructure(ent_arena, ent_count, grp_len, grp_count)

    def _match_raw(self, csr1: _Csr, csr2: _Csr, us: np.ndarray,
                   vs: np.ndarray, lbase: np.ndarray, rbase: np.ndarray):
        """Flat matching entries for the rows ``(us, vs)`` in reference
        order, with the given per-row slot base offsets.  Returns
        ``(ent_pair, ent_lslot, ent_rslot, ent_arena, ent_count)``."""
        parts: List[Tuple[np.ndarray, ...]] = []
        for pair_pos, a_local, b_local, arena in self._cross_feasible(
            csr1, csr2, outer="left", us=us, vs=vs
        ):
            parts.append((
                pair_pos,
                lbase[pair_pos] + a_local,
                rbase[pair_pos] + b_local,
                arena,
            ))
        if parts:
            ent_pair = np.concatenate([p[0] for p in parts])
            ent_lslot = np.concatenate([p[1] for p in parts])
            ent_rslot = np.concatenate([p[2] for p in parts])
            ent_arena = np.concatenate([p[3] for p in parts]).astype(np.int64)
        else:
            ent_pair = np.empty(0, dtype=np.int64)
            ent_lslot = np.empty(0, dtype=np.int64)
            ent_rslot = np.empty(0, dtype=np.int64)
            ent_arena = np.empty(0, dtype=np.int64)
        ent_count = np.bincount(ent_pair, minlength=len(us)).astype(np.int64)
        return ent_pair, ent_lslot, ent_rslot, ent_arena, ent_count

    def _match_entries(self, csr1: _Csr, csr2: _Csr) -> MatchStructure:
        d1 = csr1.degrees[self.upd_u]
        d2 = csr2.degrees[self.upd_v]
        lbase = np.cumsum(d1) - d1
        rbase = np.cumsum(d2) - d2
        ent_pair, ent_lslot, ent_rslot, ent_arena, ent_count = self._match_raw(
            csr1, csr2, self.upd_u, self.upd_v, lbase, rbase
        )
        caps = self._mapping_sizes(
            self.config.variant, csr1, csr2, self.upd_u, self.upd_v
        ).astype(np.int64)
        return MatchStructure(
            ent_arena,
            ent_lslot,
            ent_rslot,
            ent_pair,
            ent_count,
            caps,
            int(d1.sum()),
            int(d2.sum()),
            self.num_feasible,
        )

    # ------------------------------------------------------------------
    # reverse dependencies (dirty-pair scheduler)
    # ------------------------------------------------------------------
    def _dep_structures(self):
        for term in (self.out_term, self.in_term):
            if term is None:
                continue
            for structure in term.structures:
                if structure is not None:
                    yield structure

    def _build_dependencies(self):
        """Reverse-dependency CSR counts; targets are built lazily.

        The indptr (a bincount) is cheap and enough to size a prospective
        gather; the targets array (a big radix sort) is only materialized
        the first time a sweep is actually sparse enough to use it.
        """
        self.num_updatable = len(self.upd_arena)
        counts = np.zeros(self.num_feasible, dtype=np.int64)
        for structure in self._dep_structures():
            if structure.ent_arena.size:
                counts += np.bincount(
                    structure.ent_arena, minlength=self.num_feasible
                )
        indptr = np.zeros(self.num_feasible + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.dep_indptr = indptr
        self._dep_targets: "np.ndarray | None" = None
        #: Updatable positions whose entry lists changed since the CSR
        #: was built (streaming patches).  The CSR then under-reports
        #: exactly these rows' new dependencies, so they are unioned
        #: into every dependents() answer -- a sound superset -- until
        #: the patcher decides to rebuild.  None = CSR is exact.
        self._dep_stale_rows: "np.ndarray | None" = None

    @property
    def dep_targets(self) -> np.ndarray:
        if self._dep_targets is None:
            arena_parts: List[np.ndarray] = []
            consumer_parts: List[np.ndarray] = []
            for structure in self._dep_structures():
                arena_parts.append(structure.ent_arena)
                consumer_parts.append(
                    np.repeat(
                        np.arange(self.num_updatable, dtype=np.int32),
                        structure.ent_count,
                    )
                )
            if arena_parts:
                dep_arena = np.concatenate(arena_parts)
                consumers = np.concatenate(consumer_parts)
                # Stable integer argsort (radix); duplicates across
                # directions are fine -- dependents() deduplicates.
                order = np.argsort(dep_arena, kind="stable")
                self._dep_targets = consumers[order]
            else:
                self._dep_targets = np.empty(0, dtype=np.int32)
        return self._dep_targets

    def dependents(self, arena_ids: np.ndarray) -> np.ndarray:
        """Positions in ``upd_arena`` whose Equation-3 inputs include any
        of the given arena pair-ids (the next dirty sweep).

        May over-approximate after a streaming patch (stale rows are
        always included); over-approximation is sound, because
        recomputing a pair from unchanged inputs reproduces its value.
        """
        if arena_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.dep_indptr[arena_ids]
        counts = self.dep_indptr[arena_ids + 1] - starts
        total = int(counts.sum())
        # When nearly everything is dirty the gather costs more than just
        # resweeping every pair (recomputing a clean pair is exact).
        if total >= 4 * self.num_updatable:
            return np.arange(self.num_updatable, dtype=np.int64)
        gathered = self.dep_targets[ragged_indices(starts, counts)]
        result = np.unique(gathered).astype(np.int64)
        if self._dep_stale_rows is not None:
            result = np.union1d(result, self._dep_stale_rows)
        return result

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def result_scores(self, scores: np.ndarray) -> Dict[Pair, float]:
        """Maintained scores as the reference-ordered ``{pair: value}``.

        The node-pair tuples are a pure function of the arena, so they
        are materialized once and reused -- repeated result assembly
        (the streaming session re-wraps after every delta) reduces to
        one ``dict(zip(...))`` over the cached tuple list.
        """
        pairs = getattr(self, "_result_pairs", None)
        if pairs is None:
            ids = np.flatnonzero(self.maintained)
            nodes1 = self.nodes1
            nodes2 = self.nodes2
            pairs = [
                (nodes1[i], nodes2[j])
                for i, j in zip(
                    self.arena_u[ids].tolist(), self.arena_v[ids].tolist()
                )
            ]
            self._result_pairs = pairs
            self._result_ids = ids
        out = dict(zip(pairs, scores[self._result_ids].tolist()))
        for pair, value in self.pinned_extra:
            out[pair] = value
        return out

    # ------------------------------------------------------------------
    # row-subset views (sharded runtime)
    # ------------------------------------------------------------------
    def build_row_subset(self, positions: np.ndarray) -> "CompiledFSim":
        """A compiled instance updating only the given ``upd_arena`` rows.

        ``positions`` indexes ``upd_arena`` (the partitioner's shard
        slices, :mod:`repro.core.partition`).  The clone shares the
        immutable arena-level arrays with its parent but owns subset
        entry lists, slot layouts and a dependency CSR covering just its
        rows, so a sharded worker's dominant resident state is O(shard
        entries), not O(arena entries).  Global arena pair-ids remain
        the coordinate system: a full-size score vector drives the
        clone's sweeps and its updates land at the same arena ids the
        parent would write, which is what makes shard-local sweeps
        bitwise composable into the unsharded iteration.
        """
        positions = np.asarray(positions, dtype=np.int64)
        clone = copy.copy(self)
        clone.upd_arena = self.upd_arena[positions]
        clone.upd_u = self.upd_u[positions]
        clone.upd_v = self.upd_v[positions]
        clone.upd_label = self.upd_label[positions]
        for cached in ("_result_pairs", "_result_ids"):
            clone.__dict__.pop(cached, None)
        clone._csr_cache = {}
        clone._build_terms()
        clone._build_dependencies()
        return clone

    # ------------------------------------------------------------------
    # storage backends
    # ------------------------------------------------------------------
    #: Per-entry slab fields of each structure class -- the O(entries)
    #: arrays that dominate a compiled instance's footprint, plus the
    #: O(rows) companions that live next to them.
    _SLAB_FIELDS = {
        SBStructure: SBStructure.__slots__,
        MatchStructure: (
            "ent_arena", "ent_count", "ent_start", "ent_lslot", "ent_rslot",
            "ba_indptr", "ba_prob", "ba_lslot", "ba_rslot", "cap",
        ),
        CrossStructure: CrossStructure.__slots__,
    }

    def release_resident_slabs(self) -> "CompiledFSim":
        """Drop file-backed slab pages from this process's resident set.

        ``madvise(MADV_DONTNEED)`` on each memmap slab evicts its pages
        from this process's RSS; the data stays intact in the file (the
        mappings are ``MAP_SHARED``, dirty pages are preserved) and
        re-faults transparently on the next access.  A sharded-session
        parent calls this after broadcasting worker slices: it keeps the
        full compiled instance for O(delta) patching but rarely touches
        the entry slabs again, so there is no reason to stay charged for
        them.  No-op for RAM-backed slabs and on platforms without
        ``madvise``.
        """
        import mmap as _mmap

        advice = getattr(_mmap, "MADV_DONTNEED", None)
        if advice is None:  # pragma: no cover - platform without madvise
            return self
        released: set = set()

        def release(array):
            mapping = getattr(array, "_mmap", None)
            if (
                _file_backed(array) and mapping is not None
                and id(mapping) not in released
            ):
                released.add(id(mapping))
                try:
                    mapping.madvise(advice)
                except (ValueError, OSError):  # pragma: no cover
                    pass

        for structure in self._dep_structures():
            for name in self._SLAB_FIELDS[type(structure)]:
                release(getattr(structure, name))
        for term in (self.out_term, self.in_term):
            if term is not None:
                release(term.conv)
                release(term.denom)
        release(self.dep_indptr)
        if self._dep_targets is not None:
            release(self._dep_targets)
        return self

    def _spill_term(self, term: "DirectionTerm") -> None:
        """Move one direction term's slabs onto memmap storage."""
        store = getattr(self, "_slab_store", None)
        if store is None:
            store = self._slab_store = _SlabStore()
        for structure in term.structures:
            if structure is None:
                continue
            for name in self._SLAB_FIELDS[type(structure)]:
                setattr(
                    structure, name,
                    store.materialize(getattr(structure, name)),
                )
        term.conv = store.materialize(term.conv)
        term.denom = store.materialize(term.denom)

    def convert_to_memmap(self) -> "CompiledFSim":
        """Move the per-entry slabs onto ``numpy.memmap`` storage.

        The arrays keep their dtype, shape and plain ndarray interface
        (``np.memmap`` is an ndarray subclass), so every consumer --
        sweeps, streaming patches, the dependency gather -- works
        unchanged while the OS pages entry lists in and out on demand.
        Idempotent.  Pickling a converted instance materializes the data
        back into bytes (numpy reconstructs memmaps as in-memory
        arrays), so workers re-convert after unpickling when
        ``config.arena_backend == "memmap"``.
        """
        store = getattr(self, "_slab_store", None)
        if store is None:
            store = self._slab_store = _SlabStore()
        for term in (self.out_term, self.in_term):
            if term is not None:
                self._spill_term(term)
        if self._dep_targets is not None:
            self._dep_targets = store.materialize(self._dep_targets)
        self.dep_indptr = store.materialize(self.dep_indptr)
        return self

    def arena_nbytes(self) -> Dict[str, int]:
        """Compiled-slab bytes by storage kind (``ram`` / ``memmap``).

        Covers the arena-level arrays, the per-entry structure slabs and
        the dependency CSR -- everything whose footprint scales with the
        candidate space.  Feeds the ``repro_arena_bytes{kind}`` gauge.
        """
        totals = {"ram": 0, "memmap": 0}
        seen: set = set()

        def add(array):
            if isinstance(array, np.ndarray) and id(array) not in seen:
                seen.add(id(array))
                kind = "memmap" if _file_backed(array) else "ram"
                totals[kind] += int(array.nbytes)

        for name in (
            "arena_u", "arena_v", "arena_label", "scores0", "maintained",
            "frozen", "ub", "upd_arena", "upd_u", "upd_v", "upd_label",
            "tie_rank", "_key_order", "_sorted_keys", "_pair_id_dense",
            "dep_indptr", "_dep_targets",
        ):
            add(getattr(self, name, None))
        for structure in self._dep_structures():
            for field in self._SLAB_FIELDS[type(structure)]:
                add(getattr(structure, field))
        for term in (self.out_term, self.in_term):
            if term is not None:
                add(term.conv)
                add(term.denom)
        return totals


# ----------------------------------------------------------------------
# Table 3 operators in array form
# ----------------------------------------------------------------------
def _omega(variant, d1: np.ndarray, d2: np.ndarray,
           normalizer: str) -> np.ndarray:
    """Omega_chi per pair (float64; zero only where a convention applies)."""
    if variant is Variant.CROSS:
        return d1 * d2
    if variant is Variant.B:
        return d1 + d2
    if variant is Variant.BJ:
        if normalizer == "max":
            return np.maximum(d1, d2)
        return np.sqrt(d1 * d2)
    if variant is Variant.DP and normalizer == "max":
        return np.maximum(d1, d2)
    return d1.copy()


def _empty_conventions(variant, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Empty-set convention constant per pair, NaN where both sides are
    nonempty (mirrors ``operators._empty_convention``)."""
    conv = np.full(len(d1), np.nan)
    if variant is Variant.CROSS:
        conv[(d1 == 0) | (d2 == 0)] = 0.0
        return conv
    if variant in (Variant.S, Variant.DP):
        conv[d2 == 0] = 0.0
        conv[d1 == 0] = 1.0  # overrides: S1 empty wins in the reference
        return conv
    conv[(d1 == 0) | (d2 == 0)] = 0.0
    conv[(d1 == 0) & (d2 == 0)] = 1.0
    return conv


def _chunked_rowdot(mat_a: np.ndarray, rows_a: np.ndarray,
                    mat_b: np.ndarray, rows_b: np.ndarray,
                    chunk: int = 1 << 20) -> np.ndarray:
    """``sum(mat_a[rows_a] * mat_b[rows_b], axis=1)`` with bounded temps."""
    n = len(rows_a)
    out = np.empty(n, dtype=np.float64)
    cols = mat_a.shape[1] if mat_a.ndim == 2 else 1
    step = max(1, chunk // max(cols, 1))
    for start in range(0, n, step):
        end = min(start + step, n)
        out[start:end] = np.einsum(
            "ij,ij->i",
            mat_a[rows_a[start:end]],
            mat_b[rows_b[start:end]],
            optimize=False,
        )
    return out


def _chunked_min_sum(mat_a: np.ndarray, rows_a: np.ndarray,
                     mat_b: np.ndarray, rows_b: np.ndarray,
                     chunk: int = 1 << 20) -> np.ndarray:
    """``sum(minimum(mat_a[rows_a], mat_b[rows_b]), axis=1)`` chunked."""
    n = len(rows_a)
    out = np.empty(n, dtype=np.float64)
    cols = mat_a.shape[1] if mat_a.ndim == 2 else 1
    step = max(1, chunk // max(cols, 1))
    for start in range(0, n, step):
        end = min(start + step, n)
        out[start:end] = np.minimum(
            mat_a[rows_a[start:end]], mat_b[rows_b[start:end]]
        ).sum(axis=1)
    return out


def compile_fsim(graph1: LabeledDigraph, graph2: LabeledDigraph,
                 config: FSimConfig) -> CompiledFSim:
    """Compile ``(graph1, graph2, config)`` into the array representation.

    Raises no errors for unsupported configurations -- callers gate on
    :func:`repro.core.engine.vectorized_fallback_reason` first.
    """
    from repro.obs.metrics import gauge
    from repro.obs.profiling import phase

    with phase("engine.compile"):
        compiled = CompiledFSim(graph1, graph2, config)
        if config.arena_backend == "memmap":
            compiled.convert_to_memmap()
    sizes = compiled.arena_nbytes()
    for kind in ("ram", "memmap"):
        gauge(
            "repro_arena_bytes",
            "Bytes of compiled candidate-arena slabs by storage kind.",
            kind=kind,
        ).set(float(sizes[kind]))
    return compiled
