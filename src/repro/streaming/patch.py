"""In-place patching of a :class:`~repro.core.compile.CompiledFSim`.

A compiled FSim instance is, per update rule, a ragged row-major layout:
one *row* per maintained pair, holding that pair's feasible
neighbor-pair entries (plus denominators, conventions and -- for the
dp/bj matching family -- slot ids and caps).  An edge insertion or
deletion changes only the rows whose endpoint neighborhoods it touches:
for an edge ``(s, t)`` of G1, the out-direction rows of pairs ``(s, *)``
and the in-direction rows of pairs ``(t, *)`` (symmetrically for G2
edits on the ``v`` side).  Everything label-derived -- the candidate
arena, feasibility, initial scores, tie ranks -- is untouched by edge
edits.

:func:`patch_compiled_edges` therefore rebuilds exactly the touched rows
through the same subset-capable builders the full compilation uses
(:meth:`CompiledFSim._cross_entries` / ``_match_raw``) and splices them
into the flat arrays with two vectorized gathers.  The result is
entry-for-entry identical to a cold ``compile_fsim`` on the mutated
graphs, except for the dp/bj slot ids, which are arbitrary as long as
they stay disjoint across matching problems: rebuilt rows take fresh
slot ranges past the current maximum, and when the accumulated dead
ranges exceed the live slots the whole direction term is rebuilt (slot
compaction).

Deltas the patcher does not support raise :class:`CompiledPatchError`
and the caller falls back to a full recompile (which still benefits from
the patched :class:`~repro.core.plan.GraphPlan`):

- non-edge ops (node/label churn moves the candidate arena itself);
- upper-bound pruning (edge edits change Equation-6 bounds, which can
  flip ``maintained`` membership).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.compile import (
    CompiledFSim,
    CrossStructure,
    MatchStructure,
    SBStructure,
    _empty_conventions,
    _omega,
)
from repro.core.plan import GraphPlan, patch_plan
from repro.streaming.delta import Delta, DeltaOp

#: Rebuild a matching term outright once dead slot ranges exceed this
#: multiple of the live slot count (bounds stamp-array bloat over long
#: edit streams).
SLOT_COMPACTION_FACTOR = 2

#: Rebuild the reverse-dependency CSR (a large radix sort) once the
#: accumulated stale rows exceed this fraction of the updatable pairs;
#: below it the stale rows simply ride along in every dependents()
#: answer (sound superset, see ``CompiledFSim.dependents``).
DEP_REBUILD_FRACTION = 16


class CompiledPatchError(Exception):
    """The delta cannot be applied in place; recompile instead."""


def _splice_segments(
    old_counts: np.ndarray,
    rows: np.ndarray,
    new_counts: np.ndarray,
    arrays: List[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Replace the segments of ``rows`` inside ragged flat arrays.

    ``arrays`` pairs each old flat array (segmented by ``old_counts``)
    with the replacement rows' flat array (segmented by ``new_counts``,
    concatenated in ascending ``rows`` order).  The unchanged rows
    between two replaced rows form one contiguous slice of the old
    array, so the splice is a single concatenation of ``2k + 1`` slices
    for ``k`` replaced rows -- memcpy-bound, no index gathers.
    """
    counts = old_counts.copy()
    counts[rows] = new_counts
    old_start = np.cumsum(old_counts) - old_counts
    starts = old_start[rows].tolist()
    ends = (old_start[rows] + old_counts[rows]).tolist()
    sub_start = np.cumsum(new_counts) - new_counts
    sub_starts = sub_start.tolist()
    sub_ends = (sub_start + new_counts).tolist()
    spliced = []
    for old_flat, new_flat in arrays:
        new_flat = new_flat.astype(old_flat.dtype, copy=False)
        pieces = []
        cursor = 0
        for k in range(len(starts)):
            pieces.append(old_flat[cursor:starts[k]])
            pieces.append(new_flat[sub_starts[k]:sub_ends[k]])
            cursor = ends[k]
        pieces.append(old_flat[cursor:])
        spliced.append(np.concatenate(pieces))
    return counts, spliced


def _affected_rows(compiled: CompiledFSim, u_nodes: set, v_nodes: set,
                   index1, index2) -> np.ndarray:
    """Updatable row positions whose u is in ``u_nodes`` or v in ``v_nodes``."""
    mask = np.zeros(compiled.num_updatable, dtype=bool)
    if u_nodes:
        sel = np.zeros(compiled.n1, dtype=bool)
        sel[[index1[node] for node in u_nodes]] = True
        mask |= sel[compiled.upd_u]
    if v_nodes:
        sel = np.zeros(compiled.n2, dtype=bool)
        sel[[index2[node] for node in v_nodes]] = True
        mask |= sel[compiled.upd_v]
    return np.flatnonzero(mask)


def _patch_term(compiled: CompiledFSim, term, csr1, csr2,
                rows: np.ndarray) -> None:
    """Rebuild the rows of one direction term and splice them in."""
    cfg = compiled.config
    variant = cfg.variant
    us = compiled.upd_u[rows]
    vs = compiled.upd_v[rows]
    d1 = csr1.degrees[us].astype(np.float64)
    d2 = csr2.degrees[vs].astype(np.float64)
    term.conv[rows] = _empty_conventions(variant, d1, d2)
    term.denom[rows] = _omega(variant, d1, d2, cfg.normalizer)
    if term.family == "sb":
        old_forward, old_backward = term.structures
        forward = _splice_sb(
            old_forward, rows,
            compiled._cross_entries(csr1, csr2, outer="left", us=us, vs=vs),
        )
        backward = old_backward
        if old_backward is not None:
            backward = _splice_sb(
                old_backward, rows,
                compiled._cross_entries(csr1, csr2, outer="right",
                                        us=us, vs=vs),
            )
        term.structures = (forward, backward)
    elif term.family == "cross":
        (old,) = term.structures
        sub = compiled._cross_entries(csr1, csr2, outer="left",
                                      grouped=False, us=us, vs=vs)
        counts, (ent_arena,) = _splice_segments(
            old.ent_count, rows, sub.ent_count,
            [(old.ent_arena, sub.ent_arena)],
        )
        term.structures = (CrossStructure(ent_arena, counts),)
    else:
        term.structures = (_splice_match(compiled, term, csr1, csr2, rows,
                                         us, vs),)


def _splice_sb(old: SBStructure, rows: np.ndarray,
               sub: SBStructure) -> SBStructure:
    ent_count, (ent_arena,) = _splice_segments(
        old.ent_count, rows, sub.ent_count,
        [(old.ent_arena, sub.ent_arena)],
    )
    grp_count, (grp_len,) = _splice_segments(
        old.grp_count, rows, sub.grp_count,
        [(old.grp_len, sub.grp_len)],
    )
    return SBStructure(ent_arena, ent_count, grp_len, grp_count)


def _splice_match(compiled: CompiledFSim, term, csr1, csr2,
                  rows: np.ndarray, us: np.ndarray,
                  vs: np.ndarray) -> MatchStructure:
    (old,) = term.structures
    cfg = compiled.config
    d1 = csr1.degrees[us]
    d2 = csr2.degrees[vs]
    num_lslots = old.num_lslots + int(d1.sum())
    num_rslots = old.num_rslots + int(d2.sum())
    live_l = int(csr1.degrees[compiled.upd_u].sum())
    live_r = int(csr2.degrees[compiled.upd_v].sum())
    if (num_lslots > SLOT_COMPACTION_FACTOR * live_l + 64
            or num_rslots > SLOT_COMPACTION_FACTOR * live_r + 64):
        # Slot compaction: dead ranges from previously rebuilt rows
        # dominate -- rebuild the whole term from scratch.
        return compiled._match_entries(csr1, csr2)
    lbase = old.num_lslots + np.cumsum(d1) - d1
    rbase = old.num_rslots + np.cumsum(d2) - d2
    _, ent_lslot, ent_rslot, ent_arena, ent_count = compiled._match_raw(
        csr1, csr2, us, vs, lbase, rbase
    )
    counts, (arena, lslot, rslot) = _splice_segments(
        old.ent_count, rows, ent_count,
        [
            (old.ent_arena, ent_arena.astype(np.int32, copy=False)),
            (old.ent_lslot, ent_lslot.astype(np.int32, copy=False)),
            (old.ent_rslot, ent_rslot.astype(np.int32, copy=False)),
        ],
    )
    cap = old.cap.copy()
    cap[rows] = compiled._mapping_sizes(
        cfg.variant, csr1, csr2, us.astype(np.int64), vs.astype(np.int64)
    ).astype(np.int64)
    ent_pair = np.repeat(
        np.arange(compiled.num_updatable, dtype=np.int64), counts
    )
    return MatchStructure(
        arena, lslot, rslot, ent_pair, counts, cap,
        num_lslots, num_rslots, compiled.num_feasible,
    )


def patch_compiled_edges(
    compiled: CompiledFSim,
    plan1: GraphPlan,
    plan2: GraphPlan,
    delta1: Delta,
    delta2: Delta,
) -> np.ndarray:
    """Patch ``compiled`` in place for edge-only deltas.

    ``plan1`` / ``plan2`` are the *current* (already patched or
    relowered) graph plans; ``delta1`` / ``delta2`` the drained deltas
    of each side (pass the same object twice for self-similarity).
    Returns the touched ``upd_arena`` positions -- the replay frontier
    for :meth:`~repro.core.vectorized.VectorizedFSimEngine.iterate_incremental`.
    Raises :class:`CompiledPatchError` when the delta shape is
    unsupported; the instance is untouched in that case.
    """
    cfg = compiled.config
    if cfg.use_upper_bound:
        raise CompiledPatchError("upper-bound pruning is degree-sensitive")
    if not (delta1.edges_only and delta2.edges_only):
        raise CompiledPatchError("non-edge ops move the candidate arena")
    out1_nodes, in1_nodes = delta1.adjacency_changes()
    out2_nodes, in2_nodes = delta2.adjacency_changes()
    # Validate endpoints before any mutation (edge ops cannot introduce
    # nodes, so every endpoint must already be indexed).
    for node in out1_nodes | in1_nodes:
        if node not in plan1.index:
            raise CompiledPatchError(f"unknown G1 endpoint {node!r}")
    for node in out2_nodes | in2_nodes:
        if node not in plan2.index:
            raise CompiledPatchError(f"unknown G2 endpoint {node!r}")
    _freeze_dependency_snapshot(compiled)
    compiled._attach_plans(plan1, plan2)
    touched_parts: List[np.ndarray] = []
    if compiled.out_term is not None:
        rows = _affected_rows(compiled, out1_nodes, out2_nodes,
                              plan1.index, plan2.index)
        if rows.size:
            _patch_term(compiled, compiled.out_term,
                        compiled.out1, compiled.out2, rows)
            touched_parts.append(rows)
    if compiled.in_term is not None:
        rows = _affected_rows(compiled, in1_nodes, in2_nodes,
                              plan1.index, plan2.index)
        if rows.size:
            _patch_term(compiled, compiled.in_term,
                        compiled.in1, compiled.in2, rows)
            touched_parts.append(rows)
    if touched_parts:
        touched = np.unique(np.concatenate(touched_parts))
    else:
        touched = np.empty(0, dtype=np.int64)
    # Dependency bookkeeping: new dependencies exist only inside the
    # rebuilt (touched) rows, so instead of re-sorting the whole reverse
    # CSR we mark those rows stale -- dependents() then includes them in
    # every answer until enough staleness accrues to amortize a rebuild.
    stale = compiled._dep_stale_rows
    stale = touched if stale is None else np.union1d(stale, touched)
    if stale.size > compiled.num_updatable // DEP_REBUILD_FRACTION:
        compiled._build_dependencies()
    else:
        compiled._dep_stale_rows = stale
    return touched


def journal_entry(delta1: Delta, delta2: Delta, selfsim: bool) -> tuple:
    """The picklable wire form of one applied patch: each side's ops as
    plain tuples plus the self-similarity flag.  Workers follow it with
    :func:`replay_journal_entry`."""
    return (tuple(tuple(op) for op in delta1.ops),
            tuple(tuple(op) for op in delta2.ops),
            bool(selfsim))


def replay_journal_entry(compiled: CompiledFSim, entry: tuple) -> np.ndarray:
    """Make a worker's compiled copy follow one :func:`journal_entry`.

    Patches both graph plans, rebuilds the deltas and runs
    :func:`patch_compiled_edges`.  The surgery is deterministic, so the
    copy ends up with arrays identical to the parent's patched instance.
    Returns the touched ``upd_arena`` positions.
    """
    raw1, raw2, selfsim = entry
    ops1 = tuple(DeltaOp(*fields) for fields in raw1)
    ops2 = tuple(DeltaOp(*fields) for fields in raw2)
    plan1 = patch_plan(compiled.plan1, ops1) if ops1 else compiled.plan1
    delta1 = Delta(ops1, 0, len(ops1))
    if selfsim:
        plan2, delta2 = plan1, delta1
    else:
        plan2 = patch_plan(compiled.plan2, ops2) if ops2 else compiled.plan2
        delta2 = Delta(ops2, 0, len(ops2))
    return patch_compiled_edges(compiled, plan1, plan2, delta1, delta2)


def _freeze_dependency_snapshot(compiled: CompiledFSim) -> None:
    """Materialize ``dep_targets`` from the *pre-patch* structures.

    The stale-rows scheme keeps serving the old reverse CSR after a
    patch, which is only sound if ``dep_indptr`` and ``dep_targets``
    describe the same snapshot: the targets array is built lazily, and
    letting it materialize *after* the structures were spliced would
    gather post-patch consumers through pre-patch offsets -- corrupt
    dependents, silent divergence from cold recomputation.
    """
    if compiled._dep_targets is None:
        compiled.dep_targets  # noqa: B018 - property materializes the array
