"""Tests for repro.service: store, scheduler, server, snapshots.

The service's load-bearing contract mirrors the runtime's: every
response is **bitwise identical** to the corresponding direct library
call on the same graph state -- micro-batching, result caches, resident
sessions and snapshot restores change latency, never values.  Parity
baselines rebuild graphs through the same construction sequence (never
``graph.copy()``, which reorders adjacency and legitimately perturbs
the last ulp).
"""

import pickle
import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSimConfig, fsim_matrix
from repro.core.plan import clear_plan_caches, plan_cache_stats
from repro.core.topk import TopKSearch
from repro.exceptions import (
    ServiceError,
    ServiceOverloadedError,
    SnapshotError,
)
from repro.graph.digraph import LabeledDigraph
from repro.graph.generators import random_graph, uniform_labels
from repro.service import GraphStore, ServerThread, ServiceClient
from repro.service.client import wire_partners, wire_scores
from repro.service.snapshot import (
    build_snapshot_payload,
    graph_fingerprint,
    restore_snapshot,
    save_snapshot,
)
from repro.service.store import LruCache, config_key
from repro.simulation import Variant
from repro.streaming.delta import DeltaOp


def make_graph(num_nodes=18, num_edges=45, labels=3, seed=5):
    """Deterministic graph; calling twice yields bitwise-equal twins."""
    return random_graph(
        num_nodes, num_edges,
        uniform_labels(num_nodes, labels, seed=seed), seed=seed + 1,
    )


def numpy_config(**overrides):
    options = dict(variant=Variant.B, label_function="indicator",
                   backend="numpy")
    options.update(overrides)
    return FSimConfig(**options)


# ----------------------------------------------------------------------
# store primitives
# ----------------------------------------------------------------------
class TestLruCache:
    def test_hit_miss_eviction_counters(self):
        cache = LruCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts b (a was just touched)
        assert cache.get("b") is None
        stats = cache.stats()
        assert stats == {"size": 2, "capacity": 2, "hits": 1,
                         "misses": 2, "evictions": 1}


class TestGraphStore:
    def test_register_and_duplicate(self):
        store = GraphStore()
        store.register("g", make_graph())
        with pytest.raises(ServiceError):
            store.register("g", make_graph())
        store.register("g", make_graph(), replace=True)
        with pytest.raises(ServiceError):
            store.graph("missing")
        store.close()

    def test_unknown_config_param_rejected(self):
        store = GraphStore()
        store.register("g", make_graph())
        with pytest.raises(ServiceError):
            store.resolve_config("g", {"not_a_knob": 1})
        store.close()

    def test_fsim_result_cache_hits_until_mutation(self):
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        first = store.fsim("g", "g")
        assert store.fsim("g", "g") is first  # version-keyed cache hit
        pair = store.pair("g", "g", store.default_config)
        assert pair.results.hits == 1
        node_pair = next(iter(make_graph().edges()))
        store.mutate("g", [DeltaOp("remove_edge", *node_pair)])
        second = store.fsim("g", "g")
        assert second is not first
        replica = make_graph()
        replica.remove_edge(*node_pair)
        direct = fsim_matrix(replica, replica, config=store.default_config)
        assert second.scores == direct.scores
        assert second.deltas == direct.deltas
        store.close()

    def test_mutation_error_reports_partial_application(self):
        store = GraphStore(default_config=numpy_config())
        graph = make_graph()
        edge = next(iter(graph.edges()))
        store.register("g", graph)
        with pytest.raises(ServiceError, match="after 1 applied"):
            store.mutate("g", [
                DeltaOp("remove_edge", *edge),
                DeltaOp("remove_edge", "no-such", "edge"),
            ])
        assert not graph.has_edge(*edge)  # first op stayed applied
        result = store.fsim("g", "g")
        replica = make_graph()
        replica.remove_edge(*edge)
        assert result.scores == fsim_matrix(
            replica, replica, config=store.default_config
        ).scores
        store.close()

    def test_journal_trim_forces_cold_resync_not_wrong_answers(self,
                                                               monkeypatch):
        import repro.service.store as store_module

        monkeypatch.setattr(store_module, "JOURNAL_CAP", 2)
        store = GraphStore(default_config=numpy_config())
        graph = make_graph(num_nodes=22, num_edges=60)
        store.register("g", graph)
        store.fsim("g", "g")  # session established
        edges = list(graph.edges())
        # 4 mutations with cap 2: the session's sync window is lost.
        store.mutate("g", [DeltaOp("remove_edge", *edges[i])
                           for i in range(4)])
        result = store.fsim("g", "g")
        pair = store.pair("g", "g", store.default_config)
        assert pair.session.stats["out_of_band_resyncs"] == 1
        replica = make_graph(num_nodes=22, num_edges=60)
        for i in range(4):
            replica.remove_edge(*edges[i])
        assert result.scores == fsim_matrix(
            replica, replica, config=store.default_config
        ).scores
        store.close()

    def test_pair_lru_eviction_closes_sessions(self):
        store = GraphStore(default_config=numpy_config(), max_pairs=1)
        store.register("a", make_graph(seed=5))
        store.register("b", make_graph(seed=9))
        store.fsim("a", "a")
        pair_a = store.pair("a", "a", store.default_config)
        session_a = pair_a.session
        store.fsim("b", "b")  # evicts the (a, a) pair state
        assert store._pair_evictions == 1
        if session_a is not None and session_a._channel is not None:
            assert session_a._channel.closed
        store.close()

    def test_matrix_batches_and_caches(self):
        store = GraphStore(default_config=numpy_config())
        for index, seed in enumerate((5, 9, 13)):
            store.register(f"g{index}", make_graph(seed=seed))
        results = store.matrix(["g0", "g1"], "g2")
        again = store.matrix(["g0", "g1", "g0"], "g2")
        assert again[0] is results[0] and again[1] is results[1]
        assert again[2] is results[0]
        direct = fsim_matrix(
            make_graph(seed=5), make_graph(seed=13),
            config=store.default_config,
        )
        assert results[0].scores == direct.scores
        store.close()

    def test_matrix_config_comes_from_the_data_graph(self):
        """Coalesced matrix batches may mix query graphs registered
        under different defaults; the shared data graph's config (plus
        request params) must govern every entry -- never the first
        query graph's."""
        store = GraphStore(default_config=numpy_config())
        store.register("q", make_graph(seed=5),
                       config=numpy_config(theta=0.9))
        store.register("data", make_graph(seed=13))
        (result,) = store.matrix(["q"], "data")
        direct = fsim_matrix(make_graph(seed=5), make_graph(seed=13),
                             config=numpy_config())  # data's config
        assert result.scores == direct.scores
        store.close()

    def test_stats_expose_plan_cache_and_executors(self):
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        store.fsim("g", "g")
        stats = store.stats()
        for key in ("plan_hits", "plan_misses", "plan_evictions",
                    "table_evictions", "plan_adoptions"):
            assert key in stats["plan_cache"]
        assert "cached" in stats["executors"]
        assert stats["graphs"]["g"]["mutations"] == 0
        assert stats["pairs"]["g|g"]["session"] is True
        store.close()


# ----------------------------------------------------------------------
# server + scheduler behavior
# ----------------------------------------------------------------------
class TestServer:
    def test_basic_ops_and_errors(self):
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        with ServerThread(store) as server:
            with ServiceClient(port=server.port) as client:
                assert client.ping() == {"pong": True}
                assert client.graphs() == ["g"]
                with pytest.raises(ServiceError, match="unknown graph"):
                    client.fsim("nope")
                with pytest.raises(ServiceError, match="unknown op"):
                    client.request("frobnicate")
                with pytest.raises(ServiceError, match="missing"):
                    client.request("fsim")
                stats = client.stats()
                assert stats["server"]["requests_served"] >= 1

    def test_register_inline_and_query(self):
        with ServerThread(GraphStore()) as server:
            with ServiceClient(port=server.port) as client:
                client.register(
                    "tiny",
                    nodes=[["a", "L"], ["b", "L"], ["c", "M"]],
                    edges=[["a", "b"], ["b", "c"]],
                    params={"label_function": "indicator",
                            "backend": "numpy"},
                )
                result = client.fsim("tiny")
                graph = LabeledDigraph("tiny")
                for node, label in (("a", "L"), ("b", "L"), ("c", "M")):
                    graph.add_node(node, label)
                graph.add_edge("a", "b")
                graph.add_edge("b", "c")
                direct = fsim_matrix(
                    graph, graph,
                    config=FSimConfig(label_function="indicator",
                                      backend="numpy"),
                )
                assert wire_scores(result) == direct.scores

    def test_register_rejects_runtime_and_unknown_params(self):
        """``register`` applies client params through the same
        whitelist as per-request overrides: a key that would size the
        server's own pools, an unknown key or an invalid value gets a
        typed error and registers nothing."""
        store = GraphStore(default_config=numpy_config())
        inline = dict(nodes=[["a", "L"], ["b", "L"]], edges=[["a", "b"]])
        rejected = (
            ({"workers": 3}, "unknown config parameter 'workers'"),
            ({"shards": 2}, "unknown config parameter 'shards'"),
            ({"executor": "fork"}, "unknown config parameter 'executor'"),
            ({"bogus": 1}, "unknown config parameter 'bogus'"),
            ({"theta": 7.0}, "theta must be in"),
            ({"variant": "zz"}, "zz"),
        )
        with ServerThread(store) as server:
            with ServiceClient(port=server.port) as client:
                for params, message in rejected:
                    with pytest.raises(ServiceError, match=message):
                        client.register("g", params=params, **inline)
                assert client.graphs() == []
                client.register("g", params={"theta": 1.0}, **inline)
                assert client.graphs() == ["g"]
                served = store.graph("g").config
                assert served.theta == 1.0
                assert served.workers == 1
                assert "executor" not in vars(served)

    def test_recovery_skips_register_records_with_runtime_params(
            self, tmp_path):
        """A WAL register record carrying a runtime key (written before
        the whitelist) does not size the recovered server's pools: the
        graph is reported lost instead."""
        from repro.service import recover_store
        from repro.service.wal import WAL_FILENAME, WriteAheadLog

        nodes = [[i, 0] for i in range(4)]
        (tmp_path / WAL_FILENAME).write_bytes(b"".join([
            WriteAheadLog.encode({"kind": "register", "graph": "bad",
                                  "source": {"nodes": nodes, "edges": [],
                                             "params": {"workers": 3}},
                                  "replace": False, "seq": 1}),
            WriteAheadLog.encode({"kind": "register", "graph": "good",
                                  "source": {"nodes": nodes, "edges": [],
                                             "params": {"theta": 1.0}},
                                  "replace": False, "seq": 2}),
        ]))
        recovered, report = recover_store(tmp_path, config=numpy_config(),
                                          attach=False)
        assert recovered.graph_names() == ["good"]
        assert report.lost_graphs == ["bad"]
        assert recovered.graph("good").config.theta == 1.0
        assert recovered.graph("good").config.workers == 1
        recovered.close()

    def test_topk_requests_coalesce_into_one_batch(self):
        store = GraphStore(default_config=numpy_config())
        graph = make_graph(num_nodes=24, num_edges=70)
        store.register("g", graph)
        queries = list(graph.nodes())[:6]
        responses = {}
        with ServerThread(store, window=0.15) as server:

            def ask(query):
                with ServiceClient(port=server.port) as client:
                    responses[query] = client.topk("g", query, k=3)

            threads = [threading.Thread(target=ask, args=(q,))
                       for q in queries]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ServiceClient(port=server.port) as client:
                stats = client.stats()["scheduler"]
        assert stats["coalesced_batches"] >= 1
        assert stats["largest_batch"] >= 2
        replica = make_graph(num_nodes=24, num_edges=70)
        search = TopKSearch(replica, replica, store.default_config)
        for query in queries:
            assert wire_partners(responses[query]) == \
                search.search(query, 3).partners

    def test_bad_query_fails_alone_not_its_batch(self):
        store = GraphStore(default_config=numpy_config())
        graph = make_graph()
        store.register("g", graph)
        good = graph.nodes()[0]
        outcomes = {}
        with ServerThread(store, window=0.15) as server:

            def ask(tag, query):
                try:
                    with ServiceClient(port=server.port) as client:
                        outcomes[tag] = client.topk("g", query, k=2)
                except ServiceError as exc:
                    outcomes[tag] = exc

            threads = [
                threading.Thread(target=ask, args=("good", good)),
                threading.Thread(target=ask, args=("bad", "ghost-node")),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert isinstance(outcomes["bad"], ServiceError)
        replica = make_graph()
        expected = TopKSearch(replica, replica,
                              store.default_config).search(good, 2)
        assert wire_partners(outcomes["good"]) == expected.partners

    def test_shutdown_completes_with_idle_connections_open(self):
        """An idle keep-alive client must not deadlock stop() (Python
        3.12.1+ Server.wait_closed blocks until handlers finish)."""
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        server = ServerThread(store).start()
        idle = ServiceClient(port=server.port)
        idle.ping()  # connection established and then left open
        try:
            server.stop(timeout=10.0)  # raises on timeout = deadlock
        finally:
            idle.close()

    def test_admission_control_rejects_past_max_pending(self):
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph(num_nodes=30, num_edges=90))
        rejected = []
        completed = []
        with ServerThread(store, window=0.3, max_pending=1) as server:

            def ask(index):
                try:
                    with ServiceClient(port=server.port) as client:
                        completed.append(client.topk(
                            "g", make_graph(num_nodes=30, num_edges=90)
                            .nodes()[index], k=2,
                        ))
                except ServiceOverloadedError as exc:
                    rejected.append(exc)

            threads = [threading.Thread(target=ask, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # With max_pending=1 and a 300ms window, at least one of the
        # four concurrent requests must have been turned away -- and
        # the rejection is the typed overload error, not a failure.
        assert rejected
        assert completed  # the admitted ones still answered


# ----------------------------------------------------------------------
# warm snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_roundtrip_answers_first_query_without_recompiling(self,
                                                               tmp_path):
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        warm = store.fsim("g", "g")
        meta = save_snapshot(store, "g", path)
        assert meta["session"] is True
        store.close()

        clear_plan_caches()
        fresh = GraphStore(default_config=numpy_config())
        restore_snapshot(fresh, path, graph=make_graph())
        first = fresh.fsim("g", "g")
        stats = plan_cache_stats()
        # The acceptance bar: a snapshot-restored server answers its
        # first query with NO plan misses (nothing was re-lowered, the
        # adopted plan + restored result served it).
        assert stats["plan_misses"] == 0
        assert stats["plan_adoptions"] == 1
        pair = fresh.pair("g", "g", fresh.default_config)
        assert pair.session.stats["cold_runs"] == 0
        assert first.scores == warm.scores
        assert first.deltas == warm.deltas
        fresh.close()

    def test_restore_continues_incrementally_with_parity(self, tmp_path):
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        store.fsim("g", "g")
        save_snapshot(store, "g", path)
        store.close()

        fresh = GraphStore(default_config=numpy_config())
        live = make_graph()
        restore_snapshot(fresh, path, graph=live)
        edge = next(iter(live.edges()))
        fresh.mutate("g", [DeltaOp("remove_edge", *edge)])
        result = fresh.fsim("g", "g")
        pair = fresh.pair("g", "g", fresh.default_config)
        assert pair.session.stats["cold_runs"] == 0
        assert pair.session.stats["incremental_runs"] == 1
        replica = make_graph()
        replica.remove_edge(*edge)
        direct = fsim_matrix(replica, replica, config=fresh.default_config)
        assert result.scores == direct.scores
        assert result.deltas == direct.deltas
        fresh.close()

    def test_snapshot_with_legacy_executor_field_restores(self,
                                                          tmp_path):
        """Snapshots written while ``FSimConfig`` still had an
        ``executor`` field restore and serve bitwise-identical scores,
        with or without a served config to check against."""
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        warm = store.fsim("g", "g")
        object.__setattr__(store.graph("g").config, "executor", "fork")
        save_snapshot(store, "g", path)
        store.close()

        for served in (None, numpy_config()):
            fresh = GraphStore(default_config=numpy_config())
            restore_snapshot(fresh, path, graph=make_graph(), config=served)
            restored = fresh.fsim("g", "g")
            assert restored.scores == warm.scores
            assert restored.iterations == warm.iterations
            assert restored.deltas == warm.deltas
            fresh.close()
        live = make_graph()
        direct = fsim_matrix(live, live, config=numpy_config())
        assert warm.scores == direct.scores

    def test_snapshot_with_legacy_session_mode_restores(self, tmp_path):
        """Snapshots written while sessions had a ``mode`` (payload
        ``session_mode``, session-state ``mode`` / ``final``) restore,
        serve bitwise-identical scores and keep patching in place."""
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        warm = store.fsim("g", "g")
        payload = build_snapshot_payload(store, "g")
        store.close()
        payload["session_mode"] = "replay"
        payload["session_state"] = dict(payload["session_state"],
                                        mode="replay", final=None)
        path.write_bytes(pickle.dumps(payload))

        fresh = GraphStore(default_config=numpy_config())
        live = make_graph()
        restore_snapshot(fresh, path, graph=live)
        restored = fresh.fsim("g", "g")
        assert restored.scores == warm.scores
        assert restored.iterations == warm.iterations
        assert restored.deltas == warm.deltas
        edge = next(iter(live.edges()))
        fresh.mutate("g", [DeltaOp("remove_edge", *edge)])
        fresh.fsim("g", "g")
        stats = fresh.pair("g", "g", fresh.default_config).session.stats
        assert stats["compiled_patches"] == 1
        assert stats["full_recompiles"] == 0
        fresh.close()

    def test_stale_snapshot_is_rejected(self, tmp_path):
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        store.fsim("g", "g")
        save_snapshot(store, "g", path)
        store.close()

        drifted = make_graph()
        drifted.remove_edge(*next(iter(drifted.edges())))
        fresh = GraphStore(default_config=numpy_config())
        with pytest.raises(SnapshotError, match="stale"):
            restore_snapshot(fresh, path, graph=drifted)
        assert fresh.graph_names() == []  # nothing half-registered
        fresh.close()

    def test_restore_under_different_config_is_stale(self, tmp_path):
        """A server restarted with different flags must not silently
        serve the old config's scores from a snapshot."""
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config(theta=0.0))
        store.register("g", make_graph())
        store.fsim("g", "g")
        save_snapshot(store, "g", path)
        store.close()

        fresh = GraphStore(default_config=numpy_config(theta=0.8))
        with pytest.raises(SnapshotError, match="different config"):
            restore_snapshot(fresh, path, graph=make_graph(),
                             config=fresh.default_config)
        # Same flags (even with orthogonal workers/executor settings,
        # which never change values) restore fine.
        fresh2 = GraphStore(default_config=numpy_config(theta=0.0),
                            workers=2)
        restore_snapshot(fresh2, path, graph=make_graph(),
                         config=fresh2.default_config)
        fresh2.close()

    def test_corrupt_snapshot_is_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(SnapshotError, match="unreadable"):
            restore_snapshot(GraphStore(), path)
        with pytest.raises(SnapshotError, match="no snapshot"):
            restore_snapshot(GraphStore(), tmp_path / "absent.snap")

    def test_fingerprint_tracks_structure_and_config(self):
        config = numpy_config()
        base = graph_fingerprint(make_graph(), config)
        assert graph_fingerprint(make_graph(), config) == base
        mutated = make_graph()
        mutated.remove_edge(*next(iter(mutated.edges())))
        assert graph_fingerprint(mutated, config) != base
        other_config = numpy_config(theta=0.5)
        assert config_key(other_config) != config_key(config)
        assert graph_fingerprint(make_graph(), other_config) != base

    def test_snapshot_ops_over_the_wire(self, tmp_path):
        path = str(tmp_path / "wire.snap")
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        with ServerThread(store) as server:
            with ServiceClient(port=server.port) as client:
                warm = client.fsim("g")
                meta = client.snapshot_save("g", path)
                assert meta["bytes"] > 0
        fresh_store = GraphStore(default_config=numpy_config())
        with ServerThread(fresh_store) as server:
            with ServiceClient(port=server.port) as client:
                client.snapshot_restore(path)
                assert client.graphs() == ["g"]
                restored = client.fsim("g")
                assert restored["scores"] == warm["scores"]
                stats = client.stats()
                assert stats["restored_snapshots"] == 1


# ----------------------------------------------------------------------
# concurrent sessions: the interleaving property test (both backends)
# ----------------------------------------------------------------------
class TestConcurrentInterleavings:
    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        backend=st.sampled_from(["python", "numpy"]),
    )
    def test_interleaved_queries_and_mutations_match_serial_library(
        self, seed, backend,
    ):
        """Two graphs, one server, concurrent mixed traffic in rounds:
        every response must be bitwise identical to a serial library
        call on an identically built replica at the same version."""
        rng = random.Random(seed)
        specs = {
            "ga": dict(num_nodes=14, num_edges=34, labels=3, seed=seed % 97),
            "gb": dict(num_nodes=12, num_edges=30, labels=2,
                       seed=seed % 89 + 1),
        }
        config = FSimConfig(variant=Variant.B, label_function="indicator",
                            backend=backend)
        store = GraphStore(default_config=config)
        graphs = {name: make_graph(**spec) for name, spec in specs.items()}
        replicas = {name: make_graph(**spec) for name, spec in specs.items()}
        for name, graph in graphs.items():
            store.register(name, graph)
        with ServerThread(store, window=0.02) as server:
            for _round in range(3):
                jobs = []
                for name in specs:
                    jobs.append(("fsim", name, None))
                    query = rng.choice(replicas[name].nodes())
                    jobs.append(("topk", name, query))
                responses = {}

                def run_job(tag, job):
                    kind, name, query = job
                    with ServiceClient(port=server.port) as client:
                        if kind == "fsim":
                            responses[tag] = client.fsim(name)
                        else:
                            responses[tag] = client.topk(name, query, k=3)

                threads = [
                    threading.Thread(target=run_job, args=(tag, job))
                    for tag, job in enumerate(jobs)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                # Queries mutate nothing: serial library calls on the
                # replicas at the same version must agree bitwise.
                for tag, (kind, name, query) in enumerate(jobs):
                    replica = replicas[name]
                    if kind == "fsim":
                        direct = fsim_matrix(replica, replica, config=config)
                        assert wire_scores(responses[tag]) == direct.scores
                        assert responses[tag]["iterations"] == \
                            direct.iterations
                    else:
                        direct = TopKSearch(replica, replica,
                                            config).search(query, 3)
                        assert wire_partners(responses[tag]) == \
                            direct.partners
                        assert responses[tag]["certified"] == \
                            direct.certified
                # Between rounds: mutate each graph through the service
                # and mirror the edit on the replica.
                with ServiceClient(port=server.port) as client:
                    for name in specs:
                        edges = list(replicas[name].edges())
                        if not edges:
                            continue
                        edge = rng.choice(edges)
                        client.mutate(name, [("remove_edge", *edge)])
                        replicas[name].remove_edge(*edge)


# ----------------------------------------------------------------------
# CLI integration (`serve` wiring is exercised via query/mutate)
# ----------------------------------------------------------------------
class TestCli:
    def test_query_and_mutate_subcommands(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import load_graph, save_graph

        # The CLI speaks strings (like file-loaded graphs): write the
        # test graph through the v/e format first.
        graph_path = tmp_path / "g.txt"
        save_graph(make_graph(), graph_path)
        graph = load_graph(graph_path, name="g")
        store = GraphStore(default_config=numpy_config())
        store.register("g", graph)
        script = tmp_path / "edits.txt"
        edge = next(iter(graph.edges()))
        script.write_text(f"remove_edge {edge[0]} {edge[1]}\n")
        with ServerThread(store) as server:
            port = str(server.port)
            assert main(["query", "--port", port, "--op", "ping"]) == 0
            assert main(["query", "--port", port, "--op", "graphs"]) == 0
            assert main(["query", "--port", port, "--op", "fsim",
                         "--graph1", "g", "--top", "3"]) == 0
            assert main(["query", "--port", port, "--op", "topk",
                         "--graph1", "g", "--query", graph.nodes()[0],
                         "-k", "2"]) == 0
            assert main(["mutate", "--port", port, "--graph", "g",
                         "--script", str(script)]) == 0
            assert main(["query", "--port", port, "--op", "stats"]) == 0
        output = capsys.readouterr().out
        assert "pong" in output
        assert "applied 1 op(s)" in output

    def test_mutate_rejects_g2_targeted_scripts(self, tmp_path):
        from repro.cli import main

        script = tmp_path / "two-graph.txt"
        script.write_text("add_edge a b\ng2 remove_edge x y\n")
        with pytest.raises(SystemExit, match="addresses g2"):
            main(["mutate", "--port", "1", "--graph", "g",
                  "--script", str(script)])

    def test_serve_parser_accepts_service_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([
            "serve", "--graph", "g=/tmp/g.txt", "--port", "0",
            "--window", "0.01", "--snapshot-dir", "/tmp/snaps",
        ])
        assert args.handler.__name__ == "_cmd_serve"
        assert args.graph == ["g=/tmp/g.txt"]
