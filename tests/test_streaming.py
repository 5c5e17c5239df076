"""The streaming subsystem: delta capture, patching, incremental sessions.

The central invariant: an :class:`~repro.streaming.session.IncrementalFSim`
session is **observationally identical** to recomputing from scratch
after every delta -- scores, iteration counts and per-iteration deltas,
bitwise -- whether it replays its stored trajectory (touching only the
state the delta reaches) or, over its memory budget, re-runs the
patched arena cold.  Cold baselines are computed on the *same*
graph objects with the plan caches cleared (a structural copy reorders
adjacency lists, which legitimately perturbs the last ulp of the
order-sensitive reference semantics).
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSimConfig, fsim_matrix
from repro.core.plan import (
    GraphPlan,
    PlanPatchError,
    clear_plan_caches,
    lower_graph,
    patch_cached_plan,
    patch_plan,
    plan_cache_stats,
    plan_patch_budget,
)
from repro.exceptions import ConfigError, GraphError
from repro.graph.digraph import LabeledDigraph
from repro.graph.generators import random_graph, uniform_labels
from repro.simulation import Variant
from repro.streaming import (
    DeltaLog,
    DeltaOp,
    IncrementalFSim,
    apply_script_op,
    parse_edit_script,
)
from repro.streaming import session as session_module


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_caches()
    yield
    clear_plan_caches()


def small_graph(seed=0, n=10, labels=3):
    num_edges = min(3 * n, n * (n - 1))
    return random_graph(
        n, num_edges, uniform_labels(n, labels, seed=seed), seed=seed + 1
    )


def cold_reference(graph1, graph2, config):
    """What the repo computes without streaming: caches cold."""
    clear_plan_caches()
    return fsim_matrix(graph1, graph2, config=config)


def random_mutation(log, rng, next_id):
    """One random mutation through the log; returns the next fresh id."""
    graph = log.graph
    nodes = list(graph.nodes())
    choice = rng.random()
    if choice < 0.35 and len(nodes) > 1:
        source, target = rng.sample(nodes, 2)
        log.add_edge_if_absent(source, target)
    elif choice < 0.6 and graph.num_edges:
        log.remove_edge(*rng.choice(list(graph.edges())))
    elif choice < 0.72:
        log.add_node(f"x{next_id}", f"L{rng.randint(0, 2)}")
        next_id += 1
    elif choice < 0.85 and len(nodes) > 2:
        log.remove_node(rng.choice(nodes))
    elif nodes:
        log.set_label(rng.choice(nodes), f"L{rng.randint(0, 2)}")
    return next_id


# ----------------------------------------------------------------------
# DeltaLog
# ----------------------------------------------------------------------
class TestDeltaLog:
    def test_records_one_op_per_mutation(self):
        g = LabeledDigraph()
        log = DeltaLog(g)
        log.add_node("a", "X")
        log.add_node("b", "Y")
        log.add_edge("a", "b")
        log.set_label("b", "Z")
        delta = log.drain()
        assert [op.kind for op in delta.ops] == [
            "add_node", "add_node", "add_edge", "set_label",
        ]
        assert not delta.out_of_band
        assert delta.end_version - delta.base_version == 4

    def test_remove_node_expands_incident_edges(self):
        g = LabeledDigraph()
        for node in "abc":
            g.add_node(node, "X")
        g.add_edge("a", "b")
        g.add_edge("c", "a")
        g.add_edge("a", "a")  # self loop
        log = DeltaLog(g)
        log.remove_node("a")
        delta = log.drain()
        kinds = [op.kind for op in delta.ops]
        assert kinds == ["remove_edge", "remove_edge", "remove_edge",
                         "remove_node"]
        assert not delta.out_of_band
        assert not g.has_node("a")

    def test_no_ops_not_recorded(self):
        g = LabeledDigraph()
        g.add_node("a", "X")
        g.add_node("b", "X")
        g.add_edge("a", "b")
        log = DeltaLog(g)
        log.add_node("a", "X")
        log.set_label("a", "X")
        assert not log.add_edge_if_absent("a", "b")
        assert log.pending == 0
        assert not log.drain().out_of_band

    def test_add_node_with_new_label_records_set_label(self):
        g = LabeledDigraph()
        g.add_node("a", "X")
        log = DeltaLog(g)
        log.add_node("a", "Y")  # digraph semantics: relabel
        delta = log.drain()
        assert delta.ops == (DeltaOp("set_label", "a", "Y"),)

    def test_out_of_band_mutation_detected(self):
        g = small_graph()
        log = DeltaLog(g)
        log.add_node("fresh", "L0")
        g.add_node("sneaky", "L0")  # bypasses the log
        assert log.drain().out_of_band
        # drain resynchronizes
        log.add_node("fresh2", "L0")
        assert not log.drain().out_of_band

    def test_failed_mutation_not_recorded(self):
        g = small_graph()
        log = DeltaLog(g)
        with pytest.raises(Exception):
            log.add_edge("missing", "also-missing")
        assert log.pending == 0
        assert not log.drain().out_of_band

    def test_reads_delegate_blocked_mutators_raise(self):
        g = small_graph()
        log = DeltaLog(g)
        assert log.nodes() == g.nodes()
        assert log.num_nodes == g.num_nodes
        assert list(log) == list(g)
        with pytest.raises(GraphError):
            log.sort_adjacency()

    def test_edges_only_and_adjacency_changes(self):
        g = LabeledDigraph()
        for node in "abc":
            g.add_node(node, "X")
        log = DeltaLog(g)
        assert log.add_edge_if_absent("a", "b")
        delta = log.drain()
        assert delta.edges_only
        out_changed, in_changed = delta.adjacency_changes()
        assert out_changed == {"a"} and in_changed == {"b"}
        log.add_node("n", "L0")
        assert not log.drain().edges_only


# ----------------------------------------------------------------------
# plan patching
# ----------------------------------------------------------------------
def assert_plans_equal(patched, fresh):
    assert patched.nodes == fresh.nodes
    assert patched.index == fresh.index
    assert patched.labels == fresh.labels
    assert patched.lab_index == fresh.lab_index
    assert np.array_equal(patched.nlab, fresh.nlab)
    assert patched.nlab.dtype == fresh.nlab.dtype
    for mine, theirs in ((patched.out_csr, fresh.out_csr),
                         (patched.in_csr, fresh.in_csr)):
        assert np.array_equal(mine.indptr, theirs.indptr)
        assert np.array_equal(mine.indices, theirs.indices)
        assert mine.indices.dtype == theirs.indices.dtype
    assert len(patched.members) == len(fresh.members)
    for mine, theirs in zip(patched.members, fresh.members):
        assert np.array_equal(mine, theirs)


class TestPlanPatching:
    def test_randomized_scripts_match_fresh_lowering(self):
        for trial in range(60):
            rng = random.Random(trial)
            g = small_graph(seed=trial, n=rng.randint(2, 10))
            base = GraphPlan(g)
            log = DeltaLog(g)
            next_id = 0
            for _ in range(rng.randint(1, 10)):
                next_id = random_mutation(log, rng, next_id)
            delta = log.drain()
            assert_plans_equal(patch_plan(base, delta.ops), GraphPlan(g))

    def test_label_alphabet_churn_preserves_first_seen_order(self):
        g = LabeledDigraph()
        g.add_node("a", "X")
        g.add_node("b", "Y")
        base = GraphPlan(g)
        log = DeltaLog(g)
        log.set_label("a", "Y")   # X dies
        log.add_node("c", "X")    # X reborn at the END of the alphabet
        delta = log.drain()
        patched = patch_plan(base, delta.ops)
        fresh = GraphPlan(g)
        assert fresh.labels == ["Y", "X"]
        assert_plans_equal(patched, fresh)

    def test_corrupt_ops_raise(self):
        g = small_graph()
        plan = GraphPlan(g)
        with pytest.raises(PlanPatchError):
            patch_plan(plan, [DeltaOp("add_node", g.nodes()[0], "L0")])
        with pytest.raises(PlanPatchError):
            patch_plan(plan, [DeltaOp("remove_edge", "no", "pe")])
        with pytest.raises(PlanPatchError):
            patch_plan(plan, [DeltaOp("warp", "a", "b")])

    def test_patch_cached_plan_registers_hit(self):
        g = small_graph()
        lower_graph(g)
        base_version = g.version
        log = DeltaLog(g)
        log.add_edge_if_absent(g.nodes()[0], g.nodes()[5])
        delta = log.drain()
        patched = patch_cached_plan(g, delta.ops, base_version)
        assert patched is not None
        before = plan_cache_stats()["plan_misses"]
        assert lower_graph(g) is patched  # cache hit, no relowering
        assert plan_cache_stats()["plan_misses"] == before
        assert plan_cache_stats()["plan_patches"] == 1
        assert_plans_equal(patched, GraphPlan(g))

    def test_patch_cached_plan_declines_oversized_and_stale(self):
        g = small_graph()
        lower_graph(g)
        base_version = g.version
        log = DeltaLog(g)
        log.add_edge_if_absent(g.nodes()[0], g.nodes()[5])
        delta = log.drain()
        # stale base version
        assert patch_cached_plan(g, delta.ops, base_version - 1) is None
        # oversized delta
        huge = delta.ops * (plan_patch_budget(g) + 1)
        assert patch_cached_plan(g, huge, base_version) is None


# ----------------------------------------------------------------------
# incremental sessions: bitwise replay parity
# ----------------------------------------------------------------------
VARIANTS = [Variant.S, Variant.B, Variant.BJ, Variant.DP]


class TestReplayParity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_edge_stream_matches_cold_bitwise(self, variant):
        """Edge-only deltas ride the compiled-patch fast path."""
        rng = random.Random(hash(variant.value) % 97)
        g = small_graph(seed=3, n=12)
        config = FSimConfig(variant=variant, label_function="indicator",
                            backend="numpy")
        session = IncrementalFSim(g, g, config)
        session.compute()
        for step in range(6):
            nodes = list(g.nodes())
            if rng.random() < 0.5 and g.num_edges:
                session.log1.remove_edge(*rng.choice(list(g.edges())))
            else:
                s, t = rng.sample(nodes, 2)
                session.log1.add_edge_if_absent(s, t)
            warm = session.compute()
            ref = cold_reference(g, g, config)
            assert warm.scores == ref.scores, step
            assert warm.iterations == ref.iterations
            assert warm.deltas == ref.deltas
        assert session.stats["compiled_patches"] == session.stats[
            "incremental_runs"
        ]
        assert session.stats["full_recompiles"] == 0

    @pytest.mark.parametrize("variant", [Variant.B, Variant.DP])
    def test_node_and_label_churn_matches_cold_bitwise(self, variant):
        """Non-edge deltas take the recompile + trajectory-remap path."""
        rng = random.Random(11)
        g1 = small_graph(seed=5, n=10)
        g2 = small_graph(seed=7, n=11)
        config = FSimConfig(variant=variant, label_function="indicator",
                            backend="numpy")
        session = IncrementalFSim(g1, g2, config)
        session.compute()
        next_id = 0
        for step in range(5):
            log = session.log1 if rng.random() < 0.6 else session.log2
            for _ in range(rng.randint(1, 4)):
                next_id = random_mutation(log, rng, next_id)
            warm = session.compute()
            ref = cold_reference(g1, g2, config)
            assert warm.scores == ref.scores, step
            assert warm.iterations == ref.iterations
            assert warm.deltas == ref.deltas

    def test_upper_bound_pruning_config(self):
        rng = random.Random(13)
        g1 = small_graph(seed=9, n=11)
        g2 = small_graph(seed=10, n=12)
        config = FSimConfig(variant=Variant.BJ, use_upper_bound=True,
                            alpha=0.3, beta=0.4, backend="numpy")
        session = IncrementalFSim(g1, g2, config)
        session.compute()
        for step in range(4):
            nodes = list(g1.nodes())
            s, t = rng.sample(nodes, 2)
            if rng.random() < 0.5 and g1.num_edges:
                session.log1.remove_edge(*rng.choice(list(g1.edges())))
            else:
                session.log1.add_edge_if_absent(s, t)
            warm = session.compute()
            ref = cold_reference(g1, g2, config)
            assert warm.scores == ref.scores, step
            assert warm.iterations == ref.iterations
            # pruned pairs answered through the alpha-fallback
            u, v = g1.nodes()[0], g2.nodes()[0]
            assert warm.score(u, v) == ref.score(u, v)
        # degree-sensitive bounds force the recompile path
        assert session.stats["compiled_patches"] == 0

    def test_pinned_pairs_stay_frozen(self):
        g = small_graph(seed=15, n=9)
        pinned = {(g.nodes()[0], g.nodes()[1]): 0.5}
        config = FSimConfig(variant=Variant.S, label_function="indicator",
                            pinned_pairs=pinned, backend="numpy")
        session = IncrementalFSim(g, g, config)
        session.compute()
        session.log1.add_edge_if_absent(g.nodes()[2], g.nodes()[3])
        warm = session.compute()
        ref = cold_reference(g, g, config)
        assert warm.scores == ref.scores
        assert warm.scores[(g.nodes()[0], g.nodes()[1])] == 0.5

    def test_out_of_band_mutation_resyncs_cold(self):
        g = small_graph(seed=17)
        config = FSimConfig(variant=Variant.S, backend="numpy")
        session = IncrementalFSim(g, g, config)
        session.compute()
        g.add_edge_if_absent(g.nodes()[0], g.nodes()[3])  # bypasses log
        warm = session.compute()
        ref = cold_reference(g, g, config)
        assert warm.scores == ref.scores
        assert session.stats["out_of_band_resyncs"] == 1

    def test_no_pending_delta_returns_cached_result(self):
        g = small_graph(seed=19)
        session = IncrementalFSim(g, g, FSimConfig(backend="numpy"))
        first = session.compute()
        assert session.compute() is first

    def test_patch_before_any_sparse_sweep_stays_exact(self):
        """Regression: patching a compiled instance whose lazy
        ``dep_targets`` was never materialized (cold run converged on
        full sweeps only) must not let it materialize later from the
        *patched* structures against the pre-patch ``dep_indptr``."""
        from repro.graph.generators import power_law_graph

        for seed in range(4):
            rng = random.Random(seed)
            g = power_law_graph(
                40, 2, uniform_labels(40, 3, seed=seed), seed=seed + 1
            )
            config = FSimConfig(variant=Variant.B, label_function="indicator",
                                theta=1.0, backend="numpy")
            session = IncrementalFSim(g, g, config)
            session.compute()
            nodes = list(g.nodes())
            for step in range(2):
                s, t = rng.sample(nodes, 2)
                while not session.log1.add_edge_if_absent(s, t):
                    s, t = rng.sample(nodes, 2)
                warm = session.compute()
                ref = cold_reference(g, g, config)
                assert warm.scores == ref.scores, (seed, step)
                assert warm.iterations == ref.iterations

    def test_failed_update_never_serves_stale_results(self, monkeypatch):
        """Regression: a failure mid-update (delta already drained) must
        not leave a cached pre-delta result for the next compute()."""
        g = small_graph(seed=41, n=10)
        config = FSimConfig(variant=Variant.S, label_function="indicator",
                            backend="numpy")
        session = IncrementalFSim(g, g, config)
        session.compute()
        # make the next (recompile-path) update fail exactly once
        real_compile = session_module.compile_fsim
        failures = []

        def compile_once_failing(*args, **kwargs):
            if not failures:
                failures.append(True)
                raise ConfigError("injected compile failure")
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(session_module, "compile_fsim",
                            compile_once_failing)
        session.log1.add_node("grown", "L0")
        with pytest.raises(ConfigError):
            session.compute()
        # the next compute must recompute cold, not serve the pre-delta
        # cached result
        fresh = session.compute()
        ref = cold_reference(g, g, config)
        assert fresh.scores == ref.scores
        assert any(u == "grown" or v == "grown" for u, v in fresh.scores)

    def test_python_backend_agrees(self):
        """Replay == cold numpy == reference python engine, end to end."""
        g = small_graph(seed=21, n=8)
        config = FSimConfig(variant=Variant.B, label_function="indicator")
        session = IncrementalFSim(g, g, config.with_options(backend="numpy"))
        session.compute()
        session.log1.add_edge_if_absent(g.nodes()[0], g.nodes()[5])
        warm = session.compute()
        clear_plan_caches()
        reference = fsim_matrix(
            g, g, config=config.with_options(backend="python")
        )
        assert warm.scores.keys() == reference.scores.keys()
        for pair, value in reference.scores.items():
            assert warm.scores[pair] == value
        assert warm.iterations == reference.iterations


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    variant=st.sampled_from([Variant.S, Variant.B, Variant.BJ, Variant.DP]),
    steps=st.integers(min_value=1, max_value=3),
)
def test_property_randomized_edit_scripts_bitwise_parity(seed, variant, steps):
    """Satellite: randomized edit scripts, incremental == cold bitwise on
    both backends."""
    clear_plan_caches()
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    g1 = small_graph(seed=seed % 100, n=n)
    g2 = small_graph(seed=seed % 100 + 50, n=rng.randint(3, 8))
    config = FSimConfig(variant=variant, label_function="indicator",
                        backend="numpy")
    session = IncrementalFSim(g1, g2, config)
    session.compute()
    next_id = 0
    for _ in range(steps):
        log = session.log1 if rng.random() < 0.7 else session.log2
        for _ in range(rng.randint(1, 4)):
            next_id = random_mutation(log, rng, next_id)
        warm = session.compute()
        clear_plan_caches()
        cold_numpy = fsim_matrix(g1, g2, config=config)
        assert warm.scores == cold_numpy.scores
        assert warm.iterations == cold_numpy.iterations
        clear_plan_caches()
        cold_python = fsim_matrix(
            g1, g2, config=config.with_options(backend="python")
        )
        assert warm.scores.keys() == cold_python.scores.keys()
        for pair, value in cold_python.scores.items():
            assert warm.scores[pair] == value
        assert warm.iterations == cold_python.iterations


# ----------------------------------------------------------------------
# resume state: the trajectory is kept only when it fits the budget
# ----------------------------------------------------------------------
class TestWarmMode:
    def test_replay_keeps_trajectory_state(self):
        g = small_graph(seed=27)
        session = IncrementalFSim(g, g, FSimConfig(backend="numpy"))
        session.compute()
        assert session.trajectory_bytes > 0

    def test_trajectory_memory_guard(self):
        """Over budget, the session keeps no trajectory and re-runs the
        patched arena cold -- still bitwise equal to a cold run, across
        edge edits (compiled patches) and node churn (recompiles)."""
        rng = random.Random(29)
        g = small_graph(seed=29, n=12)
        config = FSimConfig(variant=Variant.B, label_function="indicator",
                            backend="numpy")
        session = IncrementalFSim(g, g, config, max_trajectory_mb=1e-6)
        session.compute()
        for step in range(6):
            nodes = list(g.nodes())
            if step % 3 == 0:
                session.log1.remove_edge(*rng.choice(list(g.edges())))
            elif step % 3 == 1:
                session.log1.remove_node(rng.choice(nodes))
            else:
                session.log1.add_node(f"n{step}", "L0")
                session.log1.add_edge(f"n{step}", rng.choice(nodes))
            got = session.compute()
            ref = cold_reference(g, g, config)
            assert got.scores == ref.scores, step
            assert got.iterations == ref.iterations
            assert got.deltas == ref.deltas
            assert session.trajectory_bytes == 0
        assert session.stats["compiled_patches"] == 2
        assert session.stats["full_recompiles"] == 4


# ----------------------------------------------------------------------
# configuration guards
# ----------------------------------------------------------------------
class TestSessionGuards:
    def test_inexpressible_config_rejected(self):
        g = small_graph(seed=31)
        with pytest.raises(ConfigError):
            IncrementalFSim(
                g, g, FSimConfig(init_function=lambda u, v: 0.5)
            )

    def test_python_backend_rejected(self):
        """Sessions always run the vectorized engine; a config explicitly
        demanding the reference backend must fail loudly, not be
        silently overridden."""
        g = small_graph(seed=34)
        with pytest.raises(ConfigError):
            IncrementalFSim(g, g, FSimConfig(backend="python"))


# ----------------------------------------------------------------------
# edit scripts
# ----------------------------------------------------------------------
class TestEditScripts:
    def test_parse_and_apply_round_trip(self):
        script = parse_edit_script([
            "# comment",
            "",
            "add_node w L0",
            "g1 add_edge w u0",
            "g2 set_label u0 L1",
            "remove_edge w u0",
            "remove_node w",
        ])
        assert [(target, op.kind) for target, op in script] == [
            (1, "add_node"), (1, "add_edge"), (2, "set_label"),
            (1, "remove_edge"), (1, "remove_node"),
        ]
        g = LabeledDigraph()
        g.add_node("u0", "L0")
        log = DeltaLog(g)
        for target, op in script:
            if target == 1:
                apply_script_op(log, op)
        assert not g.has_node("w")
        assert g.has_node("u0")
        assert not log.drain().out_of_band

    def test_malformed_lines_raise(self):
        with pytest.raises(GraphError):
            parse_edit_script(["frobnicate a b"])
        with pytest.raises(GraphError):
            parse_edit_script(["add_edge onlyone"])


# ----------------------------------------------------------------------
# evolving-alignment app wiring
# ----------------------------------------------------------------------
class TestEvolvingAlignment:
    def test_incremental_session_matches_batch_aligner(self):
        from repro.apps.alignment.evolving import (
            EvolvingAlignmentSession,
            evolve_inplace,
        )

        base = small_graph(seed=35, n=16)
        session = EvolvingAlignmentSession(base)
        first = session.alignment()
        # the unevolved copy aligns every node to (at least) itself
        assert all(u in partners for u, partners in first.items())
        session.step(seed=1)
        # ground truth: compare against a cold aligner on the same graphs
        from repro.apps.alignment.aligners import FSimAligner

        clear_plan_caches()
        expected = FSimAligner(Variant.B).align(session.current, base)
        assert session.alignment() == expected
        assert 0.0 <= session.self_match_rate() <= 1.0

    def test_evolve_inplace_records_clean_delta(self):
        from repro.apps.alignment.evolving import evolve_inplace

        base = small_graph(seed=37, n=14)
        log = DeltaLog(base)
        mutations = evolve_inplace(log, seed=3)
        delta = log.drain()
        assert not delta.out_of_band
        assert len(delta.ops) >= mutations  # remove_node ops expand
