"""Feasible neighbor-pair enumeration against its brute-force oracle.

:meth:`repro.core.compile.CompiledFSim._cross_feasible` joins each outer
neighbor with its theta-feasible bucket of inner neighbors.  The oracle
below is the cross-product enumerator it replaced, kept here as the only
copy: it forms every ``N(u) x N(v)`` cell in nested-loop order and drops
the infeasible ones afterwards.  Both must emit the same entries in the
same order, so every compiled structure array is byte-identical with
the same dtype -- across all five variants, theta in {0, 0.6, 1}
(irregular multi-partner feasibility tables included), compact and
non-compact arenas, the dense and the searchsorted pair-id lookup,
pinned pairs, isolated nodes, self-loops and explicit row subsets.
"""

import numpy as np
import pytest

from repro.core import compile as compile_mod
from repro.core.compile import CompiledFSim, _ragged_arange, compile_fsim
from repro.core.config import FSimConfig
from repro.graph.generators import random_graph
from repro.obs.profiling import PhaseProfile, profiled
from repro.simulation import Variant

ALL_VARIANTS = [Variant.S, Variant.DP, Variant.B, Variant.BJ, Variant.CROSS]

#: Words whose Jaro-Winkler similarities at 0.6 give an irregular
#: feasibility table: labels with different numbers of partners.
WORDS = ["apple", "apply", "ample", "maple", "zebra", "zeal", "cart", "cat",
         "dog", "doge"]

#: Cross-product cells per oracle chunk (the old enumerator's budget).
ORACLE_CHUNK_CELLS = 2_000_000


def oracle_iter_chunks(sizes, budget):
    """The per-item Python loop the vectorized ``_iter_chunks`` replaced."""
    total = len(sizes)
    start = 0
    while start < total:
        end = start
        acc = 0
        while end < total:
            acc += int(sizes[end])
            end += 1
            if acc >= budget:
                break
        yield start, end
        start = end


def oracle_cross_feasible(self, csr1, csr2, outer, us=None, vs=None):
    """The cross-product enumerator: every cell of ``N(u) x N(v)`` in
    nested-loop order, infeasible (or, on compact arenas, pruned) cells
    masked out afterwards.  Pair ids come from ``_lookup_arena`` (-1 on
    a miss), which equals the unchecked lookup wherever the pair is in
    the arena."""
    if us is None:
        us = self.upd_u
        vs = self.upd_v
    d1 = csr1.degrees[us]
    d2 = csr2.degrees[vs]
    cells = d1 * d2
    for start, end in oracle_iter_chunks(cells, ORACLE_CHUNK_CELLS):
        cnt = cells[start:end]
        if int(cnt.sum()) == 0:
            continue
        pair_pos = np.repeat(np.arange(start, end, dtype=np.int64), cnt)
        if outer == "left":
            outer_deg, inner_deg = d1[start:end], d2[start:end]
        else:
            outer_deg, inner_deg = d2[start:end], d1[start:end]
        inner_per_row = np.repeat(inner_deg, outer_deg)
        o_local = np.repeat(_ragged_arange(outer_deg), inner_per_row)
        i_local = _ragged_arange(inner_per_row)
        if outer == "left":
            a_local, b_local = o_local, i_local
        else:
            a_local, b_local = i_local, o_local
        a_node = csr1.indices[
            np.repeat(csr1.indptr[us[start:end]], cnt) + a_local
        ]
        b_node = csr2.indices[
            np.repeat(csr2.indptr[vs[start:end]], cnt) + b_local
        ]
        if self._pair_id_dense is not None:
            ids = self._pair_id_dense[a_node, b_node]
            mask = ids >= 0
            if not mask.any():
                continue
            arena = ids[mask].astype(np.int64)
        else:
            mask = self.feas[self.nlab1[a_node], self.nlab2[b_node]]
            if not mask.any():
                continue
            if self.pruned_compact:
                ids = self._lookup_arena(a_node[mask], b_node[mask])
                hit = ids >= 0
                if not hit.any():
                    continue
                sel = np.flatnonzero(mask)[hit]
                mask = np.zeros(len(a_node), dtype=bool)
                mask[sel] = True
                arena = ids[hit]
            else:
                arena = self._lookup_arena(a_node[mask], b_node[mask])
        yield pair_pos[mask], a_local[mask], b_local[mask], arena


def _graph(n, m, labels, seed, loops=(), isolated=0):
    graph = random_graph(n, m, labels, seed)
    for node in loops:
        graph.add_edge_if_absent(node, node)
    for k in range(isolated):
        graph.add_node(f"iso{k}", labels[k % len(labels)])
    return graph


def _labels(n, alphabet, seed):
    rng = np.random.default_rng(seed)
    return [alphabet[i] for i in rng.integers(0, len(alphabet), size=n)]


def graph_pairs():
    """(name, g1, g2): two distinct graphs with self-loops and isolated
    nodes, and a self-similarity pair (one plan serves both sides)."""
    g1 = _graph(24, 90, _labels(24, WORDS, 1), 2, loops=(0, 3, 7), isolated=2)
    g2 = _graph(28, 110, _labels(28, WORDS[2:], 3), 4, loops=(1, 5),
                isolated=1)
    return [("two", g1, g2), ("self", g1, g1)]


LABELS = {
    # theta=0: every label pair feasible (one feasibility class).
    "jw-0": dict(label_function="jaro_winkler", theta=0.0),
    # irregular multi-partner table.
    "jw-0.6": dict(label_function="jaro_winkler", theta=0.6),
    "indicator-1": dict(label_function="indicator", theta=1.0),
}

ARENAS = {
    "no-ub": dict(use_upper_bound=False),
    "ub-compact": dict(use_upper_bound=True, alpha=0.0, beta=0.3),
    "ub-alpha": dict(use_upper_bound=True, alpha=0.3, beta=0.3),
}


def _config(variant, labels, arena, g1, g2):
    nodes1, nodes2 = g1.nodes(), g2.nodes()
    return FSimConfig(
        variant=variant, w_out=0.3, w_in=0.5, backend="numpy",
        pinned_pairs={(nodes1[0], nodes2[0]): 1.0,
                      (nodes1[2], nodes2[5]): 0.25,
                      ("missing", nodes2[1]): 0.5},
        **LABELS[labels], **ARENAS[arena],
    )


def _arrays(structure):
    for name in type(structure).__slots__:
        yield name, getattr(structure, name)


def assert_same_structure(expected, actual, where):
    assert type(expected) is type(actual), where
    for (name, want), (_, got) in zip(_arrays(expected), _arrays(actual)):
        label = f"{where}.{name}"
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, label
            assert got.shape == want.shape, label
            assert got.tobytes() == want.tobytes(), label
        else:
            assert got == want, label


def assert_same_compiled(expected, actual):
    for side in ("out_term", "in_term"):
        want, got = getattr(expected, side), getattr(actual, side)
        assert (want is None) == (got is None), side
        if want is None:
            continue
        assert want.family == got.family
        for k, (w, g) in enumerate(zip(want.structures, got.structures)):
            assert (w is None) == (g is None), f"{side}[{k}]"
            if w is not None:
                assert_same_structure(w, g, f"{side}[{k}]")
    assert expected.dep_indptr.tobytes() == actual.dep_indptr.tobytes()
    assert expected.dep_targets.tobytes() == actual.dep_targets.tobytes()


def _compile_with_oracle(monkeypatch, g1, g2, config):
    with monkeypatch.context() as patch:
        patch.setattr(CompiledFSim, "_cross_feasible", oracle_cross_feasible)
        return compile_fsim(g1, g2, config)


def test_feasibility_tables_cover_the_shapes():
    """The label setups really produce a complete table, an irregular
    multi-partner one and a partial matching."""
    g1, g2 = graph_pairs()[0][1:]
    shapes = {}
    for name in LABELS:
        config = _config(Variant.S, name, "no-ub", g1, g2)
        feas = compile_fsim(g1, g2, config).feas
        shapes[name] = sorted(set(feas.sum(axis=1).tolist()))
    assert shapes["jw-0"] == [len(set(_labels(28, WORDS[2:], 3)))]
    # several partners per label, unequal counts, not complete
    assert len(shapes["jw-0.6"]) >= 2 and max(shapes["jw-0.6"]) >= 2
    assert max(shapes["jw-0.6"]) < shapes["jw-0"][0]
    assert max(shapes["indicator-1"]) == 1


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "searchsorted"])
@pytest.mark.parametrize("arena", sorted(ARENAS))
@pytest.mark.parametrize("labels", sorted(LABELS))
@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_structures_match_cross_product_oracle(monkeypatch, variant, labels,
                                               arena, dense):
    if not dense:
        monkeypatch.setattr(compile_mod, "_DENSE_LOOKUP_CELLS", 0)
    for name, g1, g2 in graph_pairs():
        config = _config(variant, labels, arena, g1, g2)
        expected = _compile_with_oracle(monkeypatch, g1, g2, config)
        actual = compile_fsim(g1, g2, config)
        assert (actual._pair_id_dense is not None) == dense
        assert actual.pruned_compact == (arena == "ub-compact")
        assert_same_compiled(expected, actual)


@pytest.mark.parametrize("budget", [1, 7, 64])
@pytest.mark.parametrize("variant", [Variant.B, Variant.BJ, Variant.CROSS],
                         ids=lambda v: v.value)
def test_small_chunk_budgets_split_pairs_identically(monkeypatch, variant,
                                                      budget):
    """Chunks that split one pair's entries still concatenate to the
    oracle's arrays."""
    _, g1, g2 = graph_pairs()[0]
    config = _config(variant, "jw-0.6", "ub-compact", g1, g2)
    expected = _compile_with_oracle(monkeypatch, g1, g2, config)
    monkeypatch.setattr(compile_mod, "_CHUNK_ENTRIES", budget)
    assert_same_compiled(expected, compile_fsim(g1, g2, config))


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "searchsorted"])
@pytest.mark.parametrize("labels", sorted(LABELS))
def test_row_subsets_match_oracle(monkeypatch, labels, dense):
    """Explicit ``us``/``vs`` rows, as the streaming patcher passes them
    (unsorted, repeated, and node pairs outside the updatable set)."""
    if not dense:
        monkeypatch.setattr(compile_mod, "_DENSE_LOOKUP_CELLS", 0)
    _, g1, g2 = graph_pairs()[0]
    rng = np.random.default_rng(5)
    for arena in sorted(ARENAS):
        compiled = compile_fsim(
            g1, g2, _config(Variant.B, labels, arena, g1, g2)
        )
        rows = rng.integers(0, compiled.num_updatable, size=40)
        picks = [
            (compiled.upd_u[rows], compiled.upd_v[rows]),
            (compiled.upd_u[rows[::-1]], compiled.upd_v[rows[::-1]]),
            (rng.integers(0, compiled.n1, size=30).astype(np.int64),
             rng.integers(0, compiled.n2, size=30).astype(np.int64)),
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
        ]
        for us, vs in picks:
            lbase = np.arange(len(us), dtype=np.int64) * 1000
            rbase = np.arange(len(us), dtype=np.int64) * 1000 + 7
            for csr1, csr2 in ((compiled.out1, compiled.out2),
                               (compiled.in1, compiled.in2)):
                new = [
                    compiled._cross_entries(csr1, csr2, outer="left",
                                            us=us, vs=vs),
                    compiled._cross_entries(csr1, csr2, outer="right",
                                            us=us, vs=vs),
                    compiled._cross_entries(csr1, csr2, outer="left",
                                            grouped=False, us=us, vs=vs),
                ]
                new_match = compiled._match_raw(csr1, csr2, us, vs,
                                                lbase, rbase)
                with monkeypatch.context() as patch:
                    patch.setattr(CompiledFSim, "_cross_feasible",
                                  oracle_cross_feasible)
                    old = [
                        compiled._cross_entries(csr1, csr2, outer="left",
                                                us=us, vs=vs),
                        compiled._cross_entries(csr1, csr2, outer="right",
                                                us=us, vs=vs),
                        compiled._cross_entries(csr1, csr2, outer="left",
                                                grouped=False, us=us, vs=vs),
                    ]
                    old_match = compiled._match_raw(csr1, csr2, us, vs,
                                                    lbase, rbase)
                for k, (want, got) in enumerate(zip(old, new)):
                    assert_same_structure(want, got, f"{arena}[{k}]")
                for want, got in zip(old_match, new_match):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()


def test_iter_chunks_matches_the_loop(monkeypatch):
    rng = np.random.default_rng(11)
    compiled = compile_fsim(*graph_pairs()[1][1:],
                            FSimConfig(variant=Variant.S, backend="numpy"))
    for budget in (1, 3, 10, 1000):
        monkeypatch.setattr(compile_mod, "_CHUNK_ENTRIES", budget)
        for size in (0, 1, 5, 200):
            sizes = rng.integers(0, 6, size=size) * (rng.random(size) < 0.7)
            assert list(compiled._iter_chunks(sizes)) == list(
                oracle_iter_chunks(sizes, budget)
            )
    monkeypatch.setattr(compile_mod, "_CHUNK_ENTRIES", 5)
    zeros = np.zeros(9, dtype=np.int64)
    assert list(compiled._iter_chunks(zeros)) == [(0, 9)]


def test_bucket_index_is_cached_per_plan_generation():
    _, g1, g2 = graph_pairs()[0]
    compiled = compile_fsim(g1, g2, _config(Variant.B, "jw-0.6", "no-ub",
                                            g1, g2))
    first = compiled._neighbor_buckets(compiled.out2, "left")
    assert compiled._neighbor_buckets(compiled.out2, "left") is first
    clone = compiled.build_row_subset(np.arange(3))
    assert clone._neighbor_buckets(clone.out2, "left") is not first
    compiled._attach_plans(compiled.plan1, compiled.plan2)
    assert not compiled._csr_cache


def test_profiled_fig9_compile_records_enumerate_and_bounds():
    """A fig9-style compile (FSim_bj, upper bound, theta=1, Jaro-Winkler
    labels) records each compile phase exactly once."""
    from repro.datasets import load_dataset

    graph = load_dataset("acmcit", scale=0.05, seed=0)
    config = FSimConfig(variant=Variant.BJ, theta=1.0, use_upper_bound=True,
                        backend="numpy")
    profile = PhaseProfile()
    with profiled(profile):
        compile_fsim(graph, graph, config)
    phases = profile.snapshot()
    for name in ("compile.enumerate", "compile.bounds", "engine.compile"):
        assert phases[name]["count"] == 1, name
    assert phases["compile.enumerate"]["total"] <= (
        phases["engine.compile"]["total"]
    )
