"""Tests for the persistent sharded runtime (repro.runtime.sharded).

The load-bearing contract is **bitwise parity**: partitioning the pair
space, pinning each shard to a worker for the session's lifetime and
exchanging only boundary ("halo") scores per Jacobi iteration must
reproduce the unsharded engine's ``FSimResult`` exactly -- scores,
iteration count, per-iteration deltas, convergence flag.  Plus the
resource story the sharding exists for: per-iteration cross-process
traffic is O(boundary pairs) rather than O(arena), structural patches
ship as O(delta) journals, and the executor registry never reclaims a
pool whose workers own live arena shards.
"""

import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.compile import compile_fsim
from repro.core.config import FSimConfig
from repro.core.engine import FSimEngine
from repro.core.partition import compute_halo, partition_pairs
from repro.core.topk import TopKSearch
from repro.core.vectorized import VectorizedFSimEngine
from repro.exceptions import ConfigError
from repro.graph.digraph import LabeledDigraph
from repro.graph.generators import random_graph, uniform_labels
from repro.obs import metrics
from repro.obs.profiling import ITERATIONS_HISTOGRAM, PHASE_HISTOGRAM
from repro.runtime import (
    SerialExecutor,
    SharedMemoryExecutor,
    evict_idle_executors,
    get_executor,
    run_compiled,
    shutdown_all,
    shutdown_executors,
)
from repro.runtime import executor as executor_module
from repro.runtime import sharded as sharded_module
from repro.runtime.sharded import (
    HALO_BYTES_PER_PAIR,
    InProcessShardRunner,
    ShardedSweepRuntime,
    open_sharded_runtime,
)
from repro.service import ClientPool, GraphStore, ServerThread
from repro.service.client import ServiceConnectionError
from repro.service.snapshot import restore_snapshot, save_snapshot
from repro.simulation import Variant
from repro.streaming import IncrementalFSim
from repro.streaming.delta import DeltaOp

VARIANTS = [Variant.S, Variant.B, Variant.DP, Variant.BJ, Variant.CROSS]


def make_config(variant=Variant.DP, **overrides):
    base = dict(variant=variant, label_function="indicator",
                theta=0.0, backend="numpy")
    base.update(overrides)
    return FSimConfig(**base)


def make_pair(seed=7, n1=45, m1=180, n2=40, m2=160, labels=5):
    g1 = random_graph(n1, m1, uniform_labels(n1, labels, seed=seed),
                      seed=seed + 1)
    g2 = random_graph(n2, m2, uniform_labels(n2, labels, seed=seed + 2),
                      seed=seed + 3)
    return g1, g2


def assert_bitwise(ref, got):
    """(scores, iterations, converged, deltas) tuples bitwise equal."""
    ref_scores, ref_iter, ref_conv, ref_deltas = ref
    got_scores, got_iter, got_conv, got_deltas = got
    assert got_iter == ref_iter
    assert got_conv == ref_conv
    assert got_deltas == ref_deltas  # exact float equality, on purpose
    np.testing.assert_array_equal(np.asarray(got_scores),
                                  np.asarray(ref_scores))


@pytest.fixture
def low_threshold(monkeypatch):
    """Drop the min-updatable gate so small test graphs actually shard.

    ``open_sharded_runtime``'s default keeps tiny workloads unsharded
    (per-iteration dispatch would dominate); tests exercise the sharded
    path itself, so they route every call through ``min_updatable=1``.
    The engine/top-k/streaming layers all resolve the factory through
    the module attribute at call time, so one patch covers them all.
    """
    orig = sharded_module.open_sharded_runtime

    def _open(compiled, shards, executor=None, min_updatable=None):
        return orig(compiled, shards, executor=executor, min_updatable=1)

    monkeypatch.setattr(sharded_module, "open_sharded_runtime", _open)
    return _open


# ----------------------------------------------------------------------
# partition invariants
# ----------------------------------------------------------------------
class TestPartition:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_positions_are_a_disjoint_cover(self, shards):
        g1, g2 = make_pair()
        compiled = compile_fsim(g1, g2, make_config())
        partition = partition_pairs(compiled, shards)
        assert partition.shards == shards
        merged = np.concatenate(partition.positions)
        assert len(merged) == compiled.num_updatable
        np.testing.assert_array_equal(np.sort(merged),
                                      np.arange(compiled.num_updatable))
        for shard, positions in enumerate(partition.positions):
            np.testing.assert_array_equal(partition.owner[positions], shard)

    def test_halo_is_the_cross_shard_read_set(self):
        g1, g2 = make_pair(seed=11)
        compiled = compile_fsim(g1, g2, make_config(variant=Variant.B))
        partition = partition_pairs(compiled, 3)
        halo_ids, halo_owner, cross_reads = compute_halo(
            compiled, partition.owner, partition.arena_owner
        )
        np.testing.assert_array_equal(halo_ids, partition.halo_ids)
        # Every halo pair is updatable and owned by the shard the owner
        # map says (exports write disjoint slices of the halo buffer).
        np.testing.assert_array_equal(
            partition.arena_owner[halo_ids], halo_owner
        )
        assert np.all(halo_owner >= 0)
        assert partition.stats["boundary_pairs"] == len(halo_ids)
        assert partition.stats["cross_reads"] == cross_reads
        # The partitioner's whole point: the boundary is a strict
        # subset of the arena.
        assert len(halo_ids) < compiled.num_updatable

    def test_shard_count_is_clamped_to_updatable_rows(self):
        g1 = random_graph(6, 10, uniform_labels(6, 2, seed=1), seed=2)
        compiled = compile_fsim(g1, g1, make_config(variant=Variant.S))
        partition = partition_pairs(compiled, 64)
        assert partition.shards <= max(compiled.num_updatable, 1)
        merged = np.concatenate(partition.positions)
        np.testing.assert_array_equal(np.sort(merged),
                                      np.arange(compiled.num_updatable))


# ----------------------------------------------------------------------
# in-process protocol parity (deterministic + property)
# ----------------------------------------------------------------------
class TestInProcessParity:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_bitwise_parity_all_variants(self, variant, shards):
        g1, g2 = make_pair(seed=5)
        compiled = compile_fsim(g1, g2, make_config(variant=variant))
        ref = VectorizedFSimEngine(compiled).iterate()
        runner = InProcessShardRunner(
            compiled, partition_pairs(compiled, shards)
        )
        assert_bitwise(ref, runner.iterate())

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), shards=st.integers(2, 6),
           variant=st.sampled_from([Variant.DP, Variant.BJ, Variant.B]))
    def test_parity_property(self, seed, shards, variant):
        n = 12 + seed % 20
        g1 = random_graph(n, 3 * n, uniform_labels(n, 3, seed=seed),
                          seed=seed + 1)
        g2 = random_graph(n + 3, 3 * n, uniform_labels(n + 3, 3,
                                                       seed=seed + 2),
                          seed=seed + 3)
        compiled = compile_fsim(g1, g2, make_config(variant=variant))
        ref = VectorizedFSimEngine(compiled).iterate()
        runner = InProcessShardRunner(
            compiled, partition_pairs(compiled, shards)
        )
        assert_bitwise(ref, runner.iterate())

    def test_selfsim_parity(self):
        g1, _ = make_pair(seed=23)
        compiled = compile_fsim(g1, g1, make_config(variant=Variant.BJ))
        ref = VectorizedFSimEngine(compiled).iterate()
        runner = InProcessShardRunner(compiled, partition_pairs(compiled, 4))
        assert_bitwise(ref, runner.iterate())


# ----------------------------------------------------------------------
# real multi-process runtime: both backends, fork and spawn
# ----------------------------------------------------------------------
class TestProcessParity:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("arena_backend", ["ram", "memmap"])
    def test_runtime_parity_backend_matrix(self, start_method,
                                           arena_backend, tmp_path):
        if start_method == "fork" and not hasattr(socket, "AF_UNIX"):
            pytest.skip("fork start method needs a unix-like platform")
        g1, g2 = make_pair(seed=31)
        config = make_config(variant=Variant.DP,
                             arena_backend=arena_backend)
        compiled = compile_fsim(g1, g2, config)
        if arena_backend == "memmap":
            assert compiled.arena_nbytes()["memmap"] > 0
        ref = VectorizedFSimEngine(compiled).iterate()
        runtime = ShardedSweepRuntime(
            compiled, partition_pairs(compiled, 2),
            start_method=start_method,
        )
        try:
            assert_bitwise(ref, runtime.iterate())
            # Second run on the same resident session: the run-id reset
            # protocol must make every run cold (bitwise repeatable).
            assert_bitwise(ref, runtime.iterate())
        finally:
            runtime.close()

    def test_run_sharded_falls_back_when_unavailable(self):
        g1 = random_graph(8, 16, uniform_labels(8, 2, seed=3), seed=4)
        compiled = compile_fsim(g1, g1, make_config(variant=Variant.S))
        ref = VectorizedFSimEngine(compiled).iterate()
        # Tiny workload: open declines, run_compiled silently degrades.
        assert open_sharded_runtime(compiled, 4) is None
        assert_bitwise(ref, run_compiled(compiled, SerialExecutor(), 4))

    def test_open_declines_single_shard(self):
        g1, g2 = make_pair()
        compiled = compile_fsim(g1, g2, make_config())
        assert open_sharded_runtime(compiled, 1, min_updatable=1) is None

    def test_engine_run_shards_parity(self, low_threshold):
        g1, g2 = make_pair(seed=17)
        config = make_config(variant=Variant.DP)
        ref = FSimEngine(g1, g2, config).run()
        res = FSimEngine(g1, g2, config).run(shards=3)
        assert res.scores == ref.scores
        assert res.iterations == ref.iterations
        assert res.deltas == ref.deltas
        # config-driven selection, same contract
        res2 = FSimEngine(g1, g2, config.with_options(shards=3)).run()
        assert res2.scores == ref.scores

    def test_engine_run_rejects_bad_shards(self):
        g1, g2 = make_pair()
        with pytest.raises(ConfigError):
            FSimEngine(g1, g2, make_config()).run(shards=0)

    def test_topk_sharded_parity(self, low_threshold):
        g1, g2 = make_pair(seed=29)
        queries = list(g1.nodes())[:5]
        # max_iterations=2 runs out of budget before certification.
        for max_iterations in (None, 2):
            config = make_config(variant=Variant.DP,
                                 max_iterations=max_iterations)
            base = TopKSearch(g1, g2, config).search_many(queries, 3)
            shd = TopKSearch(g1, g2, config).search_many(queries, 3,
                                                         shards=3)
            for a, b in zip(base, shd):
                assert a.query == b.query
                assert a.partners == b.partners
                assert a.iterations == b.iterations
                assert a.certified == b.certified
            if max_iterations == 2:
                assert not all(a.certified for a in base)


def unpicklable_graph():
    """An 80-node graph (1,646 updatable pairs under FSim_b, theta=1)
    whose node ids are instances of a function-local class, so its
    compiled state cannot be pickled to the shard workers."""

    class LocalNode:
        def __init__(self, index):
            self.index = index

        def __repr__(self):
            return f"n{self.index:02d}"

    base = random_graph(80, 400, uniform_labels(80, 4, seed=3), seed=4)
    nodes = {node: LocalNode(node) for node in base.nodes()}
    graph = LabeledDigraph()
    for node in base.nodes():
        graph.add_node(nodes[node], base.label(node))
    for source, target in base.edges():
        graph.add_edge(nodes[source], nodes[target])
    return graph


class TestUnpicklableFallback:
    """Every layer that shards falls back to the unsharded loop, with a
    RuntimeWarning, when the shard slices cannot be published."""

    @staticmethod
    def _run(layer, graph, shards):
        config = make_config(variant=Variant.B, theta=1.0)
        if layer == "fsim":
            result = FSimEngine(graph, graph, config).run(shards=shards)
            return result.scores, result.iterations, result.deltas
        if layer == "topk":
            return TopKSearch(graph, graph, config).search_many(
                graph.nodes()[:8], 3, shards=shards
            )
        evolving = graph.copy()
        with IncrementalFSim(evolving, graph, config,
                             shards=shards) as session:
            results = [session.compute()]
            session.log1.remove_edge(*next(iter(evolving.edges())))
            results.append(session.compute())
        return [(r.scores, r.iterations, r.deltas) for r in results]

    @pytest.mark.parametrize("layer", ["fsim", "topk", "stream"])
    def test_falls_back_with_a_warning(self, layer):
        graph = unpicklable_graph()
        compiled = compile_fsim(graph, graph,
                                make_config(variant=Variant.B, theta=1.0))
        assert open_sharded_runtime(compiled, 2) is not None
        expected = self._run(layer, graph, shards=1)
        with pytest.warns(RuntimeWarning,
                          match="not picklable; running unsharded"):
            got = self._run(layer, graph, shards=2)
        assert got == expected


# ----------------------------------------------------------------------
# streaming: O(delta) patches that migrate pairs across shard boundaries
# ----------------------------------------------------------------------
class TestStreamingMigration:
    def _paired_sessions(self, config, shards, seed=41):
        n, m, labels = 36, 140, 4
        ga = random_graph(n, m, uniform_labels(n, labels, seed=seed),
                          seed=seed + 1)
        gb = random_graph(n, m, uniform_labels(n, labels, seed=seed),
                          seed=seed + 1)
        ref = IncrementalFSim(ga, ga, config)
        shd = IncrementalFSim(gb, gb, config, shards=shards)
        return ref, shd

    def test_mid_session_edits_stay_bitwise_identical(self, low_threshold):
        config = make_config(variant=Variant.DP)
        ref, shd = self._paired_sessions(config, shards=3)
        try:
            r1, r2 = ref.compute(), shd.compute()
            assert r1.scores == r2.scores
            assert r1.iterations == r2.iterations
            assert shd.stats["sharded_runs"] == 1
            runtime = shd._sharded
            assert runtime is not None and not runtime.closed
            base_bytes = runtime.broadcast_bytes
            assert runtime.base_broadcasts == 1

            # Structural edits patch the resident shards in place;
            # removing and re-adding edges moves dependency entries
            # between rows, i.e. pairs migrate across shard boundaries.
            edges = list(ref.log1.graph.edges())
            for i, (u, v) in enumerate(edges[:3]):
                ref.log1.remove_edge(u, v)
                shd.log1.remove_edge(u, v)
                r1, r2 = ref.compute(), shd.compute()
                assert r1.scores == r2.scores, f"edit {i}: scores diverged"
                assert r1.iterations == r2.iterations
                assert r1.deltas == r2.deltas
            u, v = edges[0]
            ref.log1.add_edge(u, v)
            shd.log1.add_edge(u, v)
            r1, r2 = ref.compute(), shd.compute()
            assert r1.scores == r2.scores
            assert r1.deltas == r2.deltas

            assert shd.stats["compiled_patches"] >= 4
            assert shd._sharded is runtime  # session survived every edit
            # The edits shipped as journal deltas, never a re-broadcast
            # of the base arena slices.
            assert runtime.base_broadcasts == 1
            assert runtime.delta_broadcasts >= 1
            delta_bytes = runtime.broadcast_bytes - base_bytes
            assert 0 < delta_bytes < base_bytes
        finally:
            ref.close()
            shd.close()

    def test_node_add_recompiles_and_reshards(self, low_threshold):
        config = make_config(variant=Variant.DP)
        ref, shd = self._paired_sessions(config, shards=3, seed=47)
        try:
            ref.compute(), shd.compute()
            first_runtime = shd._sharded
            anchor = list(ref.log1.graph.nodes())[0]
            for session in (ref, shd):
                session.log1.add_node("fresh", "L0")
                session.log1.add_edge("fresh", anchor)
            r1, r2 = ref.compute(), shd.compute()
            assert r1.scores == r2.scores
            assert r1.iterations == r2.iterations
            assert shd.stats["full_recompiles"] >= 1
            assert first_runtime is None or first_runtime.closed \
                or shd._sharded is not first_runtime
        finally:
            ref.close()
            shd.close()

    def test_unsharded_session_adopts_sharded_snapshot(self,
                                                       low_threshold):
        """A sharded snapshot carries no trajectory; an unsharded
        session adopting it re-runs the patched arena cold on each edit
        and stays bitwise equal to the cold reference."""
        config = make_config(variant=Variant.DP)
        _, shd = self._paired_sessions(config, shards=3, seed=53)
        plain = None
        try:
            shd.compute()
            assert shd.stats["sharded_runs"] == 1
            state = shd.snapshot_state()
            assert state["trajectory"] is None
            n = 36
            g = random_graph(n, 140, uniform_labels(n, 4, seed=53),
                             seed=54)
            plain = IncrementalFSim(g, g, config)
            plain.adopt_state(state)
            assert plain.compute() is state["result"]
            edges = list(g.edges())
            for u, v in edges[:2]:
                plain.log1.remove_edge(u, v)
                got = plain.compute()
                ref = repro.fsim_matrix(g, g, config=config)
                assert got.scores == ref.scores
                assert got.iterations == ref.iterations
                assert got.deltas == ref.deltas
            assert plain.stats["cold_runs"] == 0
            assert plain.stats["compiled_patches"] == 2
            assert plain.stats["sharded_runs"] == 0
        finally:
            if plain is not None:
                plain.close()
            shd.close()

    def test_restored_sharded_snapshot_serves_first_edit(self, tmp_path):
        """Regression: a sharded store restored from its snapshot used
        to crash on the first edit (no trajectory, no shard runtime).
        Runs at the default sharding threshold: the pair has well over
        ``MIN_PARALLEL_UPD`` updatable pairs."""
        config = FSimConfig(variant=Variant.B, label_function="indicator",
                            theta=1.0, backend="numpy")

        def make_graph():
            return random_graph(80, 400, uniform_labels(80, 4, seed=71),
                                seed=72)

        path = tmp_path / "g.snap"
        store = GraphStore(default_config=config, shards=2)
        try:
            store.register("g", make_graph())
            store.fsim("g", "g")
            pair = store.pair("g", "g", store.default_config)
            assert pair.session.stats["sharded_runs"] == 1
            save_snapshot(store, "g", path)
        finally:
            store.close()

        fresh = GraphStore(default_config=config, shards=2)
        try:
            live = make_graph()
            restore_snapshot(fresh, path, graph=live)
            edge = next(iter(live.edges()))
            fresh.mutate("g", [DeltaOp("remove_edge", *edge)])
            result = fresh.fsim("g", "g")
            session = fresh.pair("g", "g", fresh.default_config).session
            assert session.stats["cold_runs"] == 0
            assert session.stats["sharded_runs"] == 1
            replica = make_graph()
            replica.remove_edge(*edge)
            direct = repro.fsim_matrix(replica, replica, config=config)
            assert result.scores == direct.scores
            assert result.iterations == direct.iterations
        finally:
            fresh.close()


# ----------------------------------------------------------------------
# traffic bounds: O(boundary) per iteration, O(delta) per patch
# ----------------------------------------------------------------------
class TestTrafficBounds:
    def test_per_iteration_traffic_is_o_boundary_not_o_arena(self):
        g1, g2 = make_pair(seed=61, n1=60, m1=260, n2=55, m2=240)
        compiled = compile_fsim(g1, g2, make_config(variant=Variant.DP))
        runtime = ShardedSweepRuntime(compiled, partition_pairs(compiled, 3))
        try:
            _, iterations, _, _ = runtime.iterate()
            stats = runtime.stats()
            # Exact wire accounting: every iteration moves the halo
            # (values + dirty flags) and nothing else.
            assert stats["halo_bytes_per_iteration"] == (
                HALO_BYTES_PER_PAIR * runtime.halo_pairs
            )
            assert stats["exchange_bytes"] == (
                iterations * runtime.halo_bytes_per_iteration
            )
            # The regression this guards: per-iteration traffic must be
            # bounded by the boundary, not the arena.  Re-broadcasting
            # scores would cost >= 8 bytes/pair/iteration over the full
            # candidate space.
            arena_bytes = sum(compiled.arena_nbytes().values())
            assert runtime.halo_bytes_per_iteration < arena_bytes
            assert runtime.halo_pairs < compiled.num_updatable
            # The one-time base broadcast is not charged per iteration.
            before = runtime.broadcast_bytes
            _, more_iters, _, _ = runtime.iterate()
            assert runtime.broadcast_bytes == before  # still resident
            assert stats_total(runtime) == (
                (iterations + more_iters) * runtime.halo_bytes_per_iteration
            )
        finally:
            runtime.close()

    def test_watch_traffic_is_o_watch(self):
        g1, g2 = make_pair(seed=67)
        compiled = compile_fsim(g1, g2, make_config(variant=Variant.DP))
        runtime = ShardedSweepRuntime(compiled, partition_pairs(compiled, 2))
        try:
            watch = np.arange(min(5, compiled.num_feasible), dtype=np.int64)
            seen = []
            _, iterations, _, _ = runtime.iterate(
                watch=watch,
                on_iteration=lambda k, values, delta, conv:
                    seen.append(values.shape) and False,
            )
            assert seen == [(len(watch),)] * iterations
            assert runtime.exchange_bytes == iterations * (
                runtime.halo_bytes_per_iteration + 8 * len(watch)
            )
        finally:
            runtime.close()


def stats_total(runtime):
    return runtime.stats()["exchange_bytes"]


# ----------------------------------------------------------------------
# executor registry: live sharded sessions are never reclaimed
# ----------------------------------------------------------------------
class TestExecutorShardGuard:
    def _compiled(self):
        g1, g2 = make_pair(seed=71)
        return compile_fsim(g1, g2, make_config(variant=Variant.DP))

    def test_eviction_and_shutdown_skip_live_sharded_session(self):
        shutdown_executors()
        ex = get_executor(2)
        compiled = self._compiled()
        runtime = ShardedSweepRuntime(
            compiled, partition_pairs(compiled, 2), executor=ex
        )
        try:
            assert evict_idle_executors(0.0) == 0
            assert get_executor(2) is ex
            shutdown_all()  # the regression: must not destroy the session
            assert get_executor(2) is ex
            assert not runtime.closed
            # ...and the session still works after the sweep.
            ref = VectorizedFSimEngine(compiled).iterate()
            assert_bitwise(ref, runtime.iterate())
        finally:
            runtime.close()
        # Once the session closes, the executor is ordinary again.
        assert evict_idle_executors(0.0) >= 1
        assert executor_module._CACHE.get(2) is None
        shutdown_executors()

    def test_closing_executor_closes_registered_runtimes(self):
        ex = SharedMemoryExecutor(2)
        compiled = self._compiled()
        runtime = ShardedSweepRuntime(
            compiled, partition_pairs(compiled, 2), executor=ex
        )
        assert not runtime.closed
        ex.close()
        assert runtime.closed

    def test_capacity_eviction_spares_shard_holder(self, monkeypatch):
        shutdown_executors()
        monkeypatch.setattr(executor_module, "MAX_CACHED_EXECUTORS", 1)
        ex = get_executor(2)
        compiled = self._compiled()
        runtime = ShardedSweepRuntime(
            compiled, partition_pairs(compiled, 2), executor=ex
        )
        try:
            # Inserting another executor at capacity must not evict the
            # shard holder (soft bound instead).
            get_executor(3)
            assert executor_module._CACHE.get(2) is ex
            assert not runtime.closed
        finally:
            runtime.close()
            shutdown_executors()


# ----------------------------------------------------------------------
# observability: arena gauge + partition phase span
# ----------------------------------------------------------------------
class TestShardingObservability:
    @pytest.fixture
    def fresh_registry(self):
        prior = metrics.enabled()
        metrics.configure(enabled=True)
        metrics.REGISTRY.reset()
        yield metrics.REGISTRY
        metrics.REGISTRY.reset()
        metrics.configure(enabled=prior)

    def test_compile_sets_arena_bytes_gauge(self, fresh_registry):
        g1, g2 = make_pair(seed=73)
        compiled = compile_fsim(g1, g2, make_config())
        sizes = compiled.arena_nbytes()
        ram = fresh_registry.get("repro_arena_bytes", kind="ram")
        memmap = fresh_registry.get("repro_arena_bytes", kind="memmap")
        assert ram is not None and ram.value == float(sizes["ram"])
        assert memmap is not None and memmap.value == float(sizes["memmap"])
        assert ram.value > 0

    def test_memmap_compile_reports_memmap_bytes(self, fresh_registry,
                                                 tmp_path):
        g1, g2 = make_pair(seed=79)
        compile_fsim(g1, g2, make_config(arena_backend="memmap"))
        memmap = fresh_registry.get("repro_arena_bytes", kind="memmap")
        assert memmap is not None and memmap.value > 0

    def test_partition_records_phase_span(self, fresh_registry):
        g1, g2 = make_pair(seed=83)
        compiled = compile_fsim(g1, g2, make_config())
        partition_pairs(compiled, 3)
        hist = fresh_registry.get(PHASE_HISTOGRAM,
                                  phase="compile.partition")
        assert hist is not None and hist.count >= 1

    @pytest.mark.parametrize("shards", [1, 3])
    def test_topk_records_one_iterate_phase(self, fresh_registry,
                                            low_threshold, shards):
        g1, g2 = make_pair(seed=89)
        TopKSearch(g1, g2, make_config()).search_many(
            list(g1.nodes())[:4], 3, shards=shards
        )
        hist = fresh_registry.get(PHASE_HISTOGRAM, phase="engine.iterate")
        assert hist is not None and hist.count == 1
        runs = [fresh_registry.get(ITERATIONS_HISTOGRAM, converged=flag)
                for flag in ("true", "false")]
        assert sum(run.count for run in runs if run is not None) == 1


# ----------------------------------------------------------------------
# ClientPool (extracted from bench_service)
# ----------------------------------------------------------------------
class TestClientPool:
    def test_pool_opens_wraps_and_closes(self):
        with ServerThread(GraphStore()) as server:
            with ClientPool(server.port, 3) as pool:
                assert len(pool) == 3
                assert len(set(map(id, pool))) == 3  # distinct sockets
                assert pool.client(0) is pool.client(3)  # wraparound
                assert pool.client(2) is pool.clients[2]
                for client in pool:
                    assert client.ping()["pong"] is True
            # close() drained the pool and is idempotent
            assert len(pool) == 0
            pool.close()

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            ClientPool(12345, 0)

    def test_connect_failure_propagates(self):
        # A bound-but-closed ephemeral port: nothing is listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServiceConnectionError):
            ClientPool(port, 2, timeout=2.0)

    def test_forwards_client_kwargs(self):
        with ServerThread(GraphStore()) as server:
            with ClientPool(server.port, 2, tracing=True) as pool:
                pool.client(0).graphs()  # ping is deliberately untraced
                assert pool.client(0).last_trace_id is not None
                assert pool.client(1).last_trace_id is None
