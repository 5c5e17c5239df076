"""The dp/bj greedy-matching kernel under adversarial ties.

:meth:`repro.core.vectorized.VectorizedFSimEngine._match_totals` runs the
greedy as locally-dominant rounds.  Two oracles pin it down bit for bit:

- :func:`per_rank_match_totals`, the per-rank-step kernel it replaced,
  kept here as the only copy: it walks arena pairs in exact reference
  order and stamps slots one rank at a time;
- the python reference engine (``backend="python"``) on small graphs.

The generated arenas make many arena pairs score the same, so only the
repr tie rank orders them; they also carry zero and negative weights
(never visited by the greedy), binding ``|M_chi|`` caps, empty problems
and dirty subsets of the scheduled pairs.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fsim_matrix
from repro.core import FSimConfig, FSimEngine
from repro.core.compile import (
    DirectionTerm,
    MatchStructure,
    compile_fsim,
    ragged_indices,
)
from repro.core.vectorized import VectorizedFSimEngine
from repro.graph.generators import random_graph, uniform_labels
from repro.obs.profiling import PhaseProfile, profiled
from repro.simulation import Variant

#: Few distinct weights, so most arena pairs tie and the tie rank decides.
TIED_WEIGHTS = (-0.5, 0.0, 0.25, 0.5, 1.0)


def per_rank_match_totals(compiled, scores, upd, structure):
    """Greedy matching sums, one arena pair (rank step) at a time.

    Arena pairs are visited in exact reference order; all entries of one
    arena pair are conflict-free (at most one occurrence per problem,
    globally disjoint slots), so each step runs vectorized: mask
    already-stamped slots, stamp the survivors, log their problems.  A
    problem leaves the active set once its matching saturates the
    |M_chi| cap.  The final per-problem sums are one ``bincount`` over
    the logged (problem, weight) pairs, in visit order.
    """
    num_updatable = compiled.num_updatable
    if structure.ba_prob.size == 0 or upd.size == 0:
        return np.zeros(len(upd), dtype=np.float64)
    order = np.lexsort((compiled.tie_rank, -scores))
    num_positive = int(np.count_nonzero(scores > 0.0))
    visit_order = order[:num_positive]
    rank = np.full(
        compiled.num_feasible, compiled.num_feasible, dtype=np.int64
    )
    rank[visit_order] = np.arange(num_positive, dtype=np.int64)
    full = upd.size == num_updatable
    if full:
        rounds = visit_order
        active = np.ones(num_updatable, dtype=bool)
        active_count = num_updatable
    else:
        counts = structure.ent_count[upd]
        sub = ragged_indices(structure.ent_start[upd], counts)
        pair_ids = np.unique(structure.ent_arena[sub])
        pair_ranks = rank[pair_ids]
        keep = pair_ranks < compiled.num_feasible
        pair_ids = pair_ids[keep]
        rounds = pair_ids[np.argsort(pair_ranks[keep])]
        active = np.zeros(num_updatable, dtype=bool)
        active[upd] = True
        active_count = int(upd.size)
    lstamp = np.zeros(structure.num_lslots, dtype=np.int64)
    rstamp = np.zeros(structure.num_rslots, dtype=np.int64)
    stamp = 1
    matched_counts = np.zeros(num_updatable, dtype=np.int64)
    caps = structure.cap
    prob_all = structure.ba_prob
    l_all = structure.ba_lslot
    r_all = structure.ba_rslot
    starts = structure.ba_indptr[rounds].tolist()
    ends = structure.ba_indptr[rounds + 1].tolist()
    weights = scores[rounds].tolist()
    parts_p = []
    parts_w = []
    for i in range(len(starts)):
        if active_count == 0:
            break
        start = starts[i]
        end = ends[i]
        if start == end:
            continue
        probs = prob_all[start:end]
        lslots = l_all[start:end]
        rslots = r_all[start:end]
        free = (
            active[probs]
            & (lstamp[lslots] != stamp)
            & (rstamp[rslots] != stamp)
        )
        if not free.any():
            continue
        chosen = probs[free]
        lstamp[lslots[free]] = stamp
        rstamp[rslots[free]] = stamp
        parts_p.append(chosen)
        parts_w.append(np.full(chosen.size, weights[i]))
        new_counts = matched_counts[chosen] + 1
        matched_counts[chosen] = new_counts
        saturated = chosen[new_counts == caps[chosen]]
        if saturated.size:
            active[saturated] = False
            active_count -= int(saturated.size)
    if parts_p:
        totals = np.bincount(
            np.concatenate(parts_p),
            weights=np.concatenate(parts_w),
            minlength=num_updatable,
        )
    else:
        totals = np.zeros(num_updatable, dtype=np.float64)
    return totals if full else totals[upd]


# ----------------------------------------------------------------------
# synthetic arenas
# ----------------------------------------------------------------------
@st.composite
def tied_arenas(draw):
    """``(compiled stand-in, scores, upd, structure)`` for one direction."""
    num_arena = draw(st.integers(1, 12))
    scores = np.array(
        draw(st.lists(st.sampled_from(TIED_WEIGHTS),
                      min_size=num_arena, max_size=num_arena)),
        dtype=np.float64,
    )
    tie_rank = np.array(draw(st.permutations(range(num_arena))),
                        dtype=np.int64)
    num_problems = draw(st.integers(0, 6))
    ent_pair, ent_arena, ent_lslot, ent_rslot = [], [], [], []
    caps = []
    lbase = rbase = 0
    for problem in range(num_problems):
        nl = draw(st.integers(0, 4))
        nr = draw(st.integers(0, 4))
        size = draw(st.integers(0, min(nl * nr, num_arena)))
        cells = draw(st.permutations(range(nl * nr)))[:size]
        arenas = draw(st.permutations(range(num_arena)))[:size]
        for cell, arena in zip(cells, arenas):
            ent_pair.append(problem)
            ent_arena.append(arena)
            ent_lslot.append(lbase + cell // nr)
            ent_rslot.append(rbase + cell % nr)
        # A problem with entries has |M_chi| >= 1; anything below
        # min(nl, nr) can bind before the greedy saturates.
        caps.append(draw(st.integers(1, min(nl, nr))) if size else 0)
        lbase += nl
        rbase += nr
    ent_pair = np.array(ent_pair, dtype=np.int64)
    structure = MatchStructure(
        np.array(ent_arena, dtype=np.int64),
        np.array(ent_lslot, dtype=np.int64),
        np.array(ent_rslot, dtype=np.int64),
        ent_pair,
        np.bincount(ent_pair, minlength=num_problems).astype(np.int64),
        np.array(caps, dtype=np.int64),
        lbase,
        rbase,
        num_arena,
    )
    if draw(st.booleans()):
        upd = np.arange(num_problems, dtype=np.int64)
    else:
        upd = np.array(sorted(draw(st.sets(
            st.integers(0, max(num_problems - 1, 0)),
            max_size=num_problems,
        ))), dtype=np.int64)
    compiled = SimpleNamespace(
        num_updatable=num_problems, num_feasible=num_arena,
        tie_rank=tie_rank,
    )
    return compiled, scores, upd, structure


def rounds_match_totals(compiled, scores, upd, structure):
    engine = VectorizedFSimEngine(compiled)
    term = DirectionTerm("match", None, None, (structure,))
    return engine._match_totals(scores, upd, term)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tied_arenas())
def test_rounds_match_per_rank_kernel_bitwise(case):
    compiled, scores, upd, structure = case
    expected = per_rank_match_totals(compiled, scores, upd, structure)
    got = rounds_match_totals(compiled, scores, upd, structure)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


def _single_problem(scores, cells, arenas, cap, nl=3, nr=3):
    structure = MatchStructure(
        np.array(arenas, dtype=np.int64),
        np.array([c // nr for c in cells], dtype=np.int64),
        np.array([c % nr for c in cells], dtype=np.int64),
        np.zeros(len(cells), dtype=np.int64),
        np.array([len(cells)], dtype=np.int64),
        np.array([cap], dtype=np.int64),
        nl, nr, len(scores),
    )
    compiled = SimpleNamespace(
        num_updatable=1, num_feasible=len(scores),
        tie_rank=np.arange(len(scores), dtype=np.int64),
    )
    return compiled, np.array(scores, dtype=np.float64), structure


def test_binding_cap_keeps_first_acceptances():
    # A diagonal of three equal weights: the greedy accepts all three in
    # tie-rank order; a cap of 2 keeps the first two only.
    compiled, scores, structure = _single_problem(
        [0.5, 0.5, 0.5], cells=[0, 4, 8], arenas=[2, 0, 1], cap=2,
    )
    upd = np.arange(1, dtype=np.int64)
    got = rounds_match_totals(compiled, scores, upd, structure)
    assert got.tobytes() == np.array([1.0]).tobytes()
    assert got.tobytes() == per_rank_match_totals(
        compiled, scores, upd, structure
    ).tobytes()


def test_dirty_sweep_without_positive_entries():
    # Every weight is zero or negative: nothing is visited, on a full
    # sweep and on a dirty one alike.
    compiled, scores, structure = _single_problem(
        [0.0, -0.5], cells=[0, 4], arenas=[0, 1], cap=2,
    )
    for upd in (np.arange(1), np.empty(0, dtype=np.int64)):
        got = rounds_match_totals(compiled, scores, upd, structure)
        assert got.tobytes() == np.zeros(upd.size).tobytes()


# ----------------------------------------------------------------------
# whole runs: every kernel call against the per-rank kernel, and the
# final scores against the python reference engine
# ----------------------------------------------------------------------
def _score_bytes(result):
    keys = sorted(result.scores, key=repr)
    return np.array([result.scores[k] for k in keys]).tobytes()


@st.composite
def tied_graph_cases(draw):
    n1 = draw(st.integers(2, 9))
    n2 = draw(st.integers(2, 9))
    labels = draw(st.integers(1, 2))
    seeds = st.integers(0, 99)
    g1 = random_graph(n1, draw(st.integers(1, n1 * (n1 - 1))),
                      uniform_labels(n1, labels, seed=draw(seeds)),
                      seed=draw(seeds))
    g2 = random_graph(n2, draw(st.integers(1, n2 * (n2 - 1))),
                      uniform_labels(n2, labels, seed=draw(seeds)),
                      seed=draw(seeds))
    nodes1 = sorted(g1.nodes(), key=repr)
    nodes2 = sorted(g2.nodes(), key=repr)
    pinned = {
        (draw(st.sampled_from(nodes1)), draw(st.sampled_from(nodes2))):
            draw(st.sampled_from((-0.5, 0.0, 0.5)))
        for _ in range(draw(st.integers(0, 3)))
    }
    config = FSimConfig(
        variant=draw(st.sampled_from([Variant.DP, Variant.BJ])),
        theta=draw(st.sampled_from([0.0, 1.0])),
        pinned_pairs=pinned or None,
    )
    return g1, g2, config


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tied_graph_cases())
def test_rounds_kernel_matches_python_reference_bitwise(case):
    g1, g2, config = case
    reference = FSimEngine(
        g1, g2, config.with_options(backend="python")
    ).run()
    vectorized = FSimEngine(
        g1, g2, config.with_options(backend="numpy")
    ).run()
    assert _score_bytes(vectorized) == _score_bytes(reference)
    assert vectorized.iterations == reference.iterations


@pytest.mark.parametrize("variant", [Variant.DP, Variant.BJ])
def test_every_kernel_call_matches_per_rank_kernel(variant, monkeypatch):
    g1 = random_graph(30, 140, uniform_labels(30, 2, seed=5), seed=6)
    g2 = random_graph(34, 160, uniform_labels(34, 2, seed=7), seed=8)
    calls = []
    rounds_kernel = VectorizedFSimEngine._match_totals

    def checked(self, scores, upd, term):
        got = rounds_kernel(self, scores, upd, term)
        expected = per_rank_match_totals(
            self.compiled, scores, upd, term.structures[0]
        )
        calls.append(got.tobytes() == expected.tobytes())
        return got

    monkeypatch.setattr(VectorizedFSimEngine, "_match_totals", checked)
    compiled = compile_fsim(g1, g2, FSimConfig(variant=variant, theta=1.0))
    VectorizedFSimEngine(compiled).iterate()
    assert calls and all(calls)


# ----------------------------------------------------------------------
# the kernel is visible in profiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant,expected", [
    (Variant.BJ, True), (Variant.B, False),
])
def test_match_phase_recorded_only_for_matching_variants(variant, expected):
    g1 = random_graph(20, 60, uniform_labels(20, 2, seed=1), seed=2)
    g2 = random_graph(20, 60, uniform_labels(20, 2, seed=3), seed=4)
    profile = PhaseProfile()
    with profiled(profile):
        fsim_matrix(g1, g2, variant, backend="numpy")
    snapshot = profile.snapshot()
    assert "engine.iterate" in snapshot
    assert ("engine.match" in snapshot) is expected
    if expected:
        # once per direction per sweep, never per round
        sweeps = snapshot["iterations"]["total"]
        assert snapshot["engine.match"]["count"] <= 2 * sweeps
