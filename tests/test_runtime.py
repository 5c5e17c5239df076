"""Tests for the parallel runtime (repro.runtime).

The load-bearing contract: the shared-memory worker pool produces
**bitwise identical** ``FSimResult``s (scores, iterations,
per-iteration deltas) to serial iteration on both compute backends,
under both the fork and spawn start methods.  Plus the runtime's
resource behavior: lazy pool creation (tiny workloads never spawn a
process), pool reuse across queries, and graceful degradation for
state the pool cannot ship.
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSimConfig, FSimEngine, fsim_matrix
from repro.core.api import fsim_matrix_many
from repro.core.topk import TopKSearch
from repro.exceptions import ConfigError
from repro.graph.generators import random_graph, uniform_labels
from repro.runtime import (
    SerialExecutor,
    SharedMemoryExecutor,
    get_executor,
    resolve_executor,
    shutdown_executors,
)
from repro.runtime import executor as executor_module
from repro.simulation import Variant


@pytest.fixture(scope="module")
def shm_executor():
    """One persistent shared-memory executor shared by the module
    (threshold lowered so small test graphs actually hit the pool)."""
    ex = SharedMemoryExecutor(2, min_parallel_upd=1, min_parallel_pairs=1)
    yield ex
    ex.close()


def assert_identical(serial, parallel):
    """Bitwise result equality: scores, trajectory and metadata."""
    assert serial.scores == parallel.scores
    assert serial.iterations == parallel.iterations
    assert serial.converged == parallel.converged
    assert serial.deltas == parallel.deltas
    assert serial.num_candidates == parallel.num_candidates


# ----------------------------------------------------------------------
# bitwise parity across executors (property test, both backends)
# ----------------------------------------------------------------------
class TestExecutorParity:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_nodes=st.integers(min_value=8, max_value=24),
        num_labels=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        backend=st.sampled_from(["python", "numpy"]),
        variant=st.sampled_from([Variant.S, Variant.B, Variant.BJ]),
    )
    def test_bitwise_identical_results(
        self, shm_executor, num_nodes, num_labels, seed, backend, variant,
    ):
        graph = random_graph(
            num_nodes, 2 * num_nodes,
            uniform_labels(num_nodes, num_labels, seed=seed), seed=seed + 1,
        )
        cfg = FSimConfig(
            variant=variant, label_function="indicator", backend=backend,
        )
        serial = FSimEngine(graph, graph, cfg).run()
        parallel = FSimEngine(graph, graph, cfg).run(executor=shm_executor)
        assert_identical(serial, parallel)

    def test_parity_with_pruning(self, medium_random_graph, shm_executor):
        cfg = FSimConfig(
            variant=Variant.BJ, label_function="indicator",
            theta=1.0, use_upper_bound=True, alpha=0.4, backend="numpy",
        )
        g = medium_random_graph
        serial = FSimEngine(g, g, cfg).run()
        parallel = FSimEngine(g, g, cfg).run(executor=shm_executor)
        assert_identical(serial, parallel)

    def test_parity_with_pinned_pairs(self, medium_random_graph,
                                      shm_executor):
        g = medium_random_graph
        node = g.nodes()[0]
        for backend in ("python", "numpy"):
            cfg = FSimConfig(
                variant=Variant.S, label_function="indicator",
                pinned_pairs={(node, node): 1.0}, backend=backend,
            )
            serial = FSimEngine(g, g, cfg).run()
            parallel = FSimEngine(g, g, cfg).run(executor=shm_executor)
            assert_identical(serial, parallel)
            assert parallel.scores[(node, node)] == 1.0

    def test_num_candidates_excludes_foreign_pinned_pairs(
        self, medium_random_graph, shm_executor
    ):
        """A pinned pair outside the candidate store must not inflate
        ``num_candidates`` on the parallel path (the legacy runner
        counted every pinned pair as a candidate)."""
        g = medium_random_graph
        # theta=1 with indicator labels: only equal-label pairs are
        # candidates; pin a pair of differently-labeled nodes.
        nodes = g.nodes()
        foreign = next(
            (u, v)
            for u in nodes for v in nodes
            if g.label(u) != g.label(v)
        )
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", theta=1.0,
            pinned_pairs={foreign: 0.5}, backend="python",
        )
        serial = FSimEngine(g, g, cfg).run()
        parallel = FSimEngine(g, g, cfg).run(executor=shm_executor)
        assert parallel.num_candidates == serial.num_candidates
        assert parallel.scores[foreign] == 0.5


# ----------------------------------------------------------------------
# batched and streaming layers share the runtime
# ----------------------------------------------------------------------
class TestSharedRuntimeLayers:
    def test_topk_parity_both_backends(self, medium_random_graph,
                                       shm_executor):
        g = medium_random_graph
        queries = g.nodes()[:4]
        for backend in ("python", "numpy"):
            # max_iterations=2 runs out of budget before certification.
            for max_iterations in (None, 2):
                cfg = FSimConfig(
                    variant=Variant.S, label_function="indicator",
                    backend=backend, max_iterations=max_iterations,
                )
                search = TopKSearch(g, g, cfg)
                serial = search.search_many(queries, 3)
                parallel = search.search_many(queries, 3,
                                              executor=shm_executor)
                for a, b in zip(serial, parallel):
                    assert a.partners == b.partners
                    assert a.iterations == b.iterations
                    assert a.certified == b.certified
                if max_iterations == 2:
                    assert not all(a.certified for a in serial)

    def test_query_sharding_parity(self, medium_random_graph, shm_executor):
        data = medium_random_graph
        queries = [
            random_graph(8, 14, uniform_labels(8, 3, seed=s), seed=s)
            for s in range(4)
        ]
        serial = fsim_matrix_many(
            queries, data, "s", label_function="indicator"
        )
        parallel = fsim_matrix_many(
            queries, data, "s", label_function="indicator",
            executor=shm_executor,
        )
        for a, b in zip(serial, parallel):
            assert_identical(a, b)

    def test_shared_memory_pool_survives_batch_and_queries(
        self, medium_random_graph, shm_executor
    ):
        """One persistent pool serves repeated queries and batches."""
        g = medium_random_graph
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", backend="numpy",
        )
        for _ in range(2):
            FSimEngine(g, g, cfg).run(executor=shm_executor)
        TopKSearch(g, g, cfg).search_many(g.nodes()[:3], 2,
                                          executor=shm_executor)
        assert shm_executor.pools_created == 1

    def test_streaming_session_on_executor(self, shm_executor):
        from repro.core.plan import clear_plan_caches, lower_graph
        from repro.streaming import IncrementalFSim

        labels = uniform_labels(60, 4, seed=1)
        base = random_graph(60, 150, labels, seed=2)
        evolving = base.copy()
        cfg = FSimConfig(
            variant=Variant.B, label_function="indicator", theta=1.0,
            backend="numpy",
        )
        clear_plan_caches()
        session = IncrementalFSim(evolving, base, cfg,
                                  executor=shm_executor)
        session.compute()
        nodes = evolving.nodes()
        session.log1.add_edge_if_absent(nodes[0], nodes[1])
        warm = session.compute()
        clear_plan_caches()
        lower_graph(base)
        cold = fsim_matrix(evolving, base, config=cfg)
        assert warm.scores == cold.scores
        assert warm.iterations == cold.iterations
        assert warm.deltas == cold.deltas


# ----------------------------------------------------------------------
# resource behavior: lazy pools, thresholds
# ----------------------------------------------------------------------
class TestPoolLifetime:
    def test_no_pool_spawn_for_tiny_workloads(self, small_random_graph):
        """A run whose sweeps all stay below the parallel threshold must
        never fork/spawn a pool."""
        g = small_random_graph
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", backend="numpy",
        )
        shm = SharedMemoryExecutor(4)  # default threshold
        try:
            serial = FSimEngine(g, g, cfg).run()
            parallel = FSimEngine(g, g, cfg).run(executor=shm)
            assert_identical(serial, parallel)
            assert not shm.pool_started
            assert shm.pools_created == 0
        finally:
            shm.close()

    def test_no_pool_spawn_for_tiny_dict_workloads(self):
        """The dict-engine pair path has the same lazy-pool guarantee:
        a workload below the pair threshold never pickles the engine or
        spawns a pool."""
        # 7x7 = 49 candidate pairs, below MIN_PARALLEL_PAIRS (64).
        g = random_graph(7, 12, uniform_labels(7, 2, seed=3), seed=4)
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", backend="python",
        )
        shm = SharedMemoryExecutor(4)  # default thresholds
        try:
            serial = FSimEngine(g, g, cfg).run()
            parallel = FSimEngine(g, g, cfg).run(executor=shm)
            assert_identical(serial, parallel)
            assert not shm.pool_started
            assert shm.pools_created == 0
        finally:
            shm.close()

    def test_serial_resolution(self):
        cfg = FSimConfig()
        assert isinstance(resolve_executor(cfg), SerialExecutor)
        assert isinstance(resolve_executor(cfg, workers=1), SerialExecutor)
        assert isinstance(
            resolve_executor(cfg.with_options(workers=4), workers=1),
            SerialExecutor,
        )

    def test_registry_caches_instances(self):
        first = get_executor(3)
        second = get_executor(3)
        assert first is second
        assert get_executor(2) is not first

    def test_executor_instance_passes_through(self, shm_executor):
        assert resolve_executor(None, 8, shm_executor) is shm_executor
        with pytest.raises(ConfigError):
            resolve_executor(None, 2, "shared_memory")


# ----------------------------------------------------------------------
# platform degradation
# ----------------------------------------------------------------------
class TestSpawnFallback:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_resolve_to_the_shared_memory_pool(self, monkeypatch,
                                                       method):
        """``workers > 1`` always means the shared-memory pool, whatever
        the start method."""
        monkeypatch.setenv(executor_module.START_METHOD_ENV, method)
        shutdown_executors()
        try:
            assert executor_module.preferred_start_method() == method
            resolved = resolve_executor(None, 2)
            assert isinstance(resolved, SharedMemoryExecutor)
            assert resolved.workers == 2
        finally:
            shutdown_executors()

    def test_spawn_pool_parity(self, medium_random_graph):
        """The shared-memory executor is correct under a spawn pool."""
        g = medium_random_graph
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", backend="numpy",
        )
        serial = FSimEngine(g, g, cfg).run()
        ex = SharedMemoryExecutor(2, min_parallel_upd=1,
                                  start_method="spawn")
        try:
            parallel = FSimEngine(g, g, cfg).run(executor=ex)
            assert_identical(serial, parallel)
        finally:
            ex.close()

    def test_unpicklable_state_falls_back_to_serial(self,
                                                    medium_random_graph):
        """An engine the executor cannot ship degrades to the serial
        path (with a warning), never to a crash."""
        g = medium_random_graph
        cfg = FSimConfig(
            variant=Variant.S,
            label_function=lambda a, b: 1.0 if a == b else 0.0,
            backend="python",
        )
        serial = FSimEngine(g, g, cfg).run()
        ex = SharedMemoryExecutor(2, min_parallel_upd=1,
                                  min_parallel_pairs=1)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                parallel = FSimEngine(g, g, cfg).run(executor=ex)
            assert_identical(serial, parallel)
            assert not ex.pool_started
        finally:
            ex.close()


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_workers_validated(self):
        with pytest.raises(ConfigError):
            FSimConfig(workers=0)

    def test_config_workers_drive_run(self, small_random_graph):
        g = small_random_graph
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", workers=2,
        )
        result = FSimEngine(g, g, cfg).run()
        serial = FSimEngine(
            g, g, cfg.with_options(workers=1)
        ).run()
        assert_identical(serial, result)

    def test_run_rejects_bad_workers(self, small_random_graph):
        g = small_random_graph
        with pytest.raises(ConfigError):
            FSimEngine(g, g, FSimConfig()).run(workers=0)


# ----------------------------------------------------------------------
# concurrent sessions on one cached executor
# ----------------------------------------------------------------------
class TestConcurrentSessions:
    def test_threads_sharing_one_executor_stay_bitwise_correct(self):
        """Two threads running sessions on the same cached executor must
        not clobber each other's sweep state (per-session buffers and
        broadcast blocks)."""
        import threading

        graphs = [
            random_graph(20 + 4 * i, 50 + 8 * i,
                         uniform_labels(20 + 4 * i, 3, seed=i), seed=i + 50)
            for i in range(2)
        ]
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", backend="numpy",
        )
        serials = [FSimEngine(g, g, cfg).run() for g in graphs]
        ex = SharedMemoryExecutor(2, min_parallel_upd=1,
                                  min_parallel_pairs=1)
        # Warm the pool from the main thread first (the documented
        # pattern for multi-threaded services: lazily forking a pool
        # while other threads run risks inheriting held locks).
        first = FSimEngine(graphs[0], graphs[0], cfg).run(executor=ex)
        assert first.scores == serials[0].scores
        failures = []

        def worker(index):
            try:
                for _ in range(3):
                    result = FSimEngine(
                        graphs[index], graphs[index], cfg
                    ).run(executor=ex)
                    if result.scores != serials[index].scores:
                        failures.append(index)
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            ex.close()
        assert not failures


# ----------------------------------------------------------------------
# persistent sweep channels: O(delta) broadcast for streaming sessions
# ----------------------------------------------------------------------
class TestSweepChannel:
    @staticmethod
    def _streaming_graph(seed=7):
        labels = uniform_labels(80, 3, seed=seed)
        return random_graph(80, 240, labels, seed=seed + 1)

    @staticmethod
    def _config():
        return FSimConfig(
            variant=Variant.B, label_function="indicator", backend="numpy",
        )

    def test_broadcast_bytes_scale_with_delta(self):
        """After the one-time base broadcast, a parallel streaming
        update ships only the recorded delta ops -- not the compiled
        state -- so broadcast bytes scale with the edit, not the graph
        (the ROADMAP O(delta) item)."""
        from repro.streaming import IncrementalFSim

        graph = self._streaming_graph()
        replica = self._streaming_graph()
        cfg = self._config()
        ex = SharedMemoryExecutor(2, min_parallel_upd=1)
        try:
            session = IncrementalFSim(graph, graph, cfg, executor=ex)
            mirror = IncrementalFSim(replica, replica, cfg)
            assert_identical(mirror.compute(), session.compute())
            channel = session._channel
            assert channel is not None
            assert channel.base_broadcasts == 1
            base_bytes = channel.last_broadcast_bytes
            edges = list(graph.edges())
            single_delta_bytes = None
            for index in range(3):
                u, v = edges[index * 11]
                session.log1.remove_edge(u, v)
                mirror.log1.remove_edge(u, v)
                assert_identical(mirror.compute(), session.compute())
                if single_delta_bytes is None:
                    single_delta_bytes = channel.last_broadcast_bytes
            assert channel.base_broadcasts == 1  # never re-broadcast
            assert channel.delta_broadcasts >= 1
            # O(delta): a one-edge update costs a few hundred bytes at
            # most; the compiled state is many orders larger.
            assert single_delta_bytes < base_bytes / 50
            assert channel.last_broadcast_bytes < base_bytes / 50
            # The cumulative journal grows linearly in ops, not graph.
            assert channel.last_broadcast_bytes <= 3 * single_delta_bytes + 256
            session.close()
            assert channel.closed
        finally:
            ex.close()

    def test_journal_budget_rebroadcasts_base(self, monkeypatch):
        from repro.streaming import IncrementalFSim

        monkeypatch.setattr(executor_module, "CHANNEL_JOURNAL_BUDGET", 2)
        graph = self._streaming_graph(seed=19)
        replica = self._streaming_graph(seed=19)
        cfg = self._config()
        ex = SharedMemoryExecutor(2, min_parallel_upd=1)
        try:
            session = IncrementalFSim(graph, graph, cfg, executor=ex)
            mirror = IncrementalFSim(replica, replica, cfg)
            assert_identical(mirror.compute(), session.compute())
            edges = list(graph.edges())
            for index in range(5):
                u, v = edges[index * 7]
                session.log1.remove_edge(u, v)
                mirror.log1.remove_edge(u, v)
                assert_identical(mirror.compute(), session.compute())
            channel = session._channel
            # Budget 2 forces at least one base re-broadcast across 5
            # patched updates -- and parity held throughout.
            assert channel.base_broadcasts >= 2
            session.close()
        finally:
            ex.close()

    def test_over_budget_session_reruns_cold_on_the_pool(self):
        """A session over its trajectory budget re-runs every edit cold
        through the pool's sweeps -- bitwise equal to the serial replay
        session across edge edits (channel deltas) and node churn."""
        from repro.streaming import IncrementalFSim

        graph = self._streaming_graph(seed=43)
        replica = self._streaming_graph(seed=43)
        cfg = self._config()
        ex = SharedMemoryExecutor(2, min_parallel_upd=1)
        try:
            session = IncrementalFSim(graph, graph, cfg, executor=ex,
                                      max_trajectory_mb=1e-6)
            mirror = IncrementalFSim(replica, replica, cfg)
            assert_identical(mirror.compute(), session.compute())
            edges = list(graph.edges())
            for index in range(3):
                u, v = edges[index * 13]
                session.log1.remove_edge(u, v)
                mirror.log1.remove_edge(u, v)
                assert_identical(mirror.compute(), session.compute())
            for live in (session, mirror):
                live.log1.add_node("fresh-node", "L0")
                live.log1.add_edge("fresh-node", edges[0][0])
            assert_identical(mirror.compute(), session.compute())
            assert session.trajectory_bytes == 0
            assert mirror.trajectory_bytes > 0
            assert session.stats["compiled_patches"] == 3
            assert session.stats["full_recompiles"] == 1
            assert session._channel.delta_broadcasts >= 1
            session.close()
        finally:
            ex.close()

    def test_recompile_invalidates_channel(self):
        """Node churn forces a full recompile; the channel must drop its
        stale base instead of shipping deltas against it."""
        from repro.streaming import IncrementalFSim

        graph = self._streaming_graph(seed=31)
        replica = self._streaming_graph(seed=31)
        cfg = self._config()
        ex = SharedMemoryExecutor(2, min_parallel_upd=1)
        try:
            session = IncrementalFSim(graph, graph, cfg, executor=ex)
            mirror = IncrementalFSim(replica, replica, cfg)
            assert_identical(mirror.compute(), session.compute())
            channel = session._channel
            first_bases = channel.base_broadcasts
            nodes = graph.nodes()
            for live, ghost in ((session, mirror),):
                live.log1.add_node("fresh-node", "L0")
                live.log1.add_edge("fresh-node", nodes[0])
                ghost.log1.add_node("fresh-node", "L0")
                ghost.log1.add_edge("fresh-node", nodes[0])
            assert_identical(mirror.compute(), session.compute())
            assert session.stats["full_recompiles"] == 1
            assert channel.base_broadcasts == first_bases + 1
            session.close()
        finally:
            ex.close()


# ----------------------------------------------------------------------
# bounded executor registry: shutdown_all / idle eviction
# ----------------------------------------------------------------------
class TestRegistryBounds:
    def test_idle_pools_are_reclaimed(self, medium_random_graph):
        from repro.runtime import evict_idle_executors

        shutdown_executors()
        g = medium_random_graph
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", backend="numpy",
        )
        ex = get_executor(2)
        ex.min_parallel_upd = 1  # force the pool to actually spawn
        serial = FSimEngine(g, g, cfg).run()
        parallel = FSimEngine(g, g, cfg).run(executor=ex)
        assert_identical(serial, parallel)
        assert ex.pool_started
        assert ex.last_used > 0.0
        assert ex.active_sessions == 0
        closed = evict_idle_executors(0.0)
        assert closed == 1
        assert not ex.pool_started  # pool terminated
        assert get_executor(2) is not ex  # evicted
        shutdown_executors()

    def test_idle_grace_period_is_respected(self):
        from repro.runtime import evict_idle_executors

        shutdown_executors()
        ex = get_executor(2)
        # A just-created, never-used executor is inside the grace
        # period too (last_used is stamped at construction).
        assert evict_idle_executors(3600.0) == 0
        assert get_executor(2) is ex
        shutdown_executors()

    def test_live_channels_block_eviction(self):
        """A resident streaming session's channel pins its executor:
        evicting it would demote the session from O(delta) broadcasts
        and orphan the respawned pool outside the registry."""
        from repro.runtime import evict_idle_executors

        shutdown_executors()
        ex = get_executor(2)
        channel = ex.open_channel()
        assert evict_idle_executors(0.0) == 0
        assert get_executor(2) is ex
        channel.close()
        assert evict_idle_executors(0.0) == 1
        shutdown_executors()

    def test_registry_bound_evicts_lru_idle(self, monkeypatch):
        shutdown_executors()
        monkeypatch.setattr(executor_module, "MAX_CACHED_EXECUTORS", 2)
        first = get_executor(2)
        second = get_executor(3)
        third = get_executor(4)  # evicts `first` (LRU)
        registry = executor_module._CACHE
        assert len(registry) <= 2
        assert 2 not in registry
        assert get_executor(3) is second
        assert get_executor(4) is third
        shutdown_executors()

    def test_busy_executors_survive_the_bound(self, monkeypatch):
        shutdown_executors()
        monkeypatch.setattr(executor_module, "MAX_CACHED_EXECUTORS", 1)
        first = get_executor(2)
        first.active_sessions += 1  # simulate an open session
        try:
            second = get_executor(3)
            assert get_executor(2) is first  # not evicted
            assert second is not first
        finally:
            first.active_sessions -= 1
        shutdown_executors()

    def test_shutdown_all_clears_registry(self):
        from repro.runtime import shutdown_all

        ex = get_executor(2)
        shutdown_all()
        assert executor_module._CACHE == {}
        assert get_executor(2) is not ex
        shutdown_executors()
