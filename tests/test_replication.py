"""Replication tests: WAL shipping, bounded staleness, chaos failover.

The replication contract extends durability's bitwise-parity bar across
*machines*: a follower that bootstrapped from the primary's warm
snapshot payloads and tailed its WAL answers every read with exactly
the floats the primary would produce at the follower's watermark --
because both sides run the identical
:class:`~repro.service.recovery.WalReplayer` over the identical total
order of records.

Suites, mirroring ``tests/test_durability.py``'s two speeds:

- framing + ``read_wal_since`` contract (including the property test:
  a reader at any position sees a contiguous suffix or a typed
  compacted-away signal, concurrent with appends and rotations);
- in-process primary + replica ``ServerThread`` pairs: bootstrap
  parity, streamed-mutation parity, read-only redirects, bounded
  staleness, blip-resume vs compaction-re-bootstrap, replica-set
  routing;
- a kill-and-recover suite SIGKILLing real ``python -m repro serve``
  subprocesses on *both* sides of the stream (follower mid-apply,
  primary mid-ship) and checking catch-up parity over the wire.
"""

import asyncio
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import FSimConfig
from repro.exceptions import (
    ReplicaLaggingError,
    ReplicaReadOnlyError,
    ServiceError,
    WalCompactedError,
    WalError,
)
from repro.graph.digraph import LabeledDigraph
from repro.graph.generators import random_graph, uniform_labels
from repro.graph.io import save_graph
from repro.service import (
    FSimServer,
    GraphStore,
    ReplicaSetClient,
    ReplicationHub,
    ServerThread,
    ServiceClient,
    WriteAheadLog,
    read_wal_since,
    recover_store,
)
from repro.service.client import wire_scores
from repro.service.replication import decode_frame, encode_frame
from repro.service.wal import WAL_FILENAME, FaultInjector
from repro.simulation import Variant
from repro.streaming.delta import DeltaOp

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# shared fixtures (the durability suite's canonical builders)
# ----------------------------------------------------------------------
def make_graph(num_nodes=18, num_edges=45, labels=3, seed=5):
    """Deterministic graph in canonical all-nodes-then-all-edges order
    (bitwise-reproducible by every durable rebuild path)."""
    generated = random_graph(
        num_nodes, num_edges,
        uniform_labels(num_nodes, labels, seed=seed), seed=seed + 1,
    )
    graph = LabeledDigraph(generated.name)
    for node in generated.nodes():
        graph.add_node(node, generated.label(node))
    for source, target in generated.edges():
        graph.add_edge(source, target)
    return graph


def numpy_config(**overrides):
    options = dict(variant=Variant.B, label_function="indicator",
                   backend="numpy")
    options.update(overrides)
    return FSimConfig(**options)


def register_durable(store, name="g", graph=None):
    if graph is None:
        graph = make_graph()
    source = {
        "nodes": [[node, graph.label(node)] for node in graph.nodes()],
        "edges": [list(edge) for edge in graph.edges()],
    }
    store.register(name, graph, source=source)
    return graph


def mutation_batches(count=6):
    """Always-valid batches: each adds a fresh node wired to an existing
    one, so replay/shipping order is the only interesting variable."""
    return [[("add_node", 1000 + index, index % 3),
             ("add_edge", 1000 + index, index % 18)]
            for index in range(count)]


def wait_for(predicate, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def tail_stats(client):
    return client.stats()["replication"]["tail"]


def start_primary(tmp_path, sync="always", port=None):
    store = GraphStore(default_config=numpy_config(),
                       wal=WriteAheadLog(tmp_path, sync=sync))
    register_durable(store)
    kwargs = {"window": 0.001}
    if port is not None:
        kwargs["port"] = port
    return ServerThread(store, **kwargs).start()


def start_replica(primary_port, port=None):
    store = GraphStore(default_config=numpy_config())
    kwargs = {"window": 0.001,
              "replicate_from": f"127.0.0.1:{primary_port}"}
    if port is not None:
        kwargs["port"] = port
    return ServerThread(store, **kwargs).start()


def wait_caught_up(replica_client, seq, timeout=30.0):
    def _caught_up():
        stats = tail_stats(replica_client)
        return stats["connected"] and stats["applied_seq"] >= seq \
            and stats["lag_records"] == 0
    wait_for(_caught_up, timeout=timeout,
             message=f"replica catch-up to seq {seq}")
    return tail_stats(replica_client)


# ----------------------------------------------------------------------
# stream framing
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip(self):
        frame = {"kind": "mutate", "graph": "g",
                 "ops": [["add_edge", 1, 2]], "seq": 7}
        assert decode_frame(encode_frame(frame)) == frame

    def test_heartbeat_is_a_valid_frame(self):
        line = encode_frame({"kind": "heartbeat", "head": 9, "ts": 1.5})
        assert decode_frame(line)["head"] == 9

    def test_truncated_frame_is_torn(self):
        line = encode_frame({"kind": "unregister", "graph": "g", "seq": 1})
        for cut in (0, 4, 9, len(line) // 2, len(line) - 2):
            with pytest.raises(WalError):
                decode_frame(line[:cut])

    def test_corrupted_body_fails_crc(self):
        line = encode_frame({"kind": "unregister", "graph": "g", "seq": 1})
        with pytest.raises(WalError, match="CRC"):
            decode_frame(FaultInjector.corrupt(line))

    def test_unknown_kind_rejected(self):
        line = encode_frame({"kind": "format-disk", "seq": 1})
        with pytest.raises(WalError, match="kind"):
            decode_frame(line)


# ----------------------------------------------------------------------
# the tailing contract of read_wal_since
# ----------------------------------------------------------------------
class TestWalSinceContract:
    def test_every_position_contiguous_or_typed_compacted(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always")
        for _ in range(10):
            wal.append({"kind": "unregister", "graph": "a"})
        wal.rotate({"kind": "checkpoint", "graphs": {}, "rids": {}})
        for _ in range(5):  # checkpoint took seq 11; suffix is 12..16
            wal.append({"kind": "unregister", "graph": "b"})
        wal.close()
        path = tmp_path / WAL_FILENAME
        for after in range(0, 10):
            with pytest.raises(WalCompactedError) as excinfo:
                read_wal_since(path, after)
            assert excinfo.value.first_seq == 11
        for after in range(10, 18):
            seqs = [r["seq"] for r in read_wal_since(path, after)]
            assert seqs == list(range(after + 1, 17)), after

    def test_concurrent_append_rotate_never_torn_or_skipped(self, tmp_path):
        """Property: under concurrent appends and compactions, a reader
        positioned at ANY sequence number either streams a contiguous
        suffix starting at ``after + 1`` or gets the typed
        :class:`WalCompactedError` -- never a gap, never torn data."""
        wal = WriteAheadLog(tmp_path, sync="batch")
        path = tmp_path / WAL_FILENAME
        stop = threading.Event()
        failures = []

        def writer():
            count = 0
            try:
                while not stop.is_set():
                    wal.append({"kind": "unregister", "graph": "g"})
                    count += 1
                    if count % 25 == 0:
                        wal.rotate({"kind": "checkpoint", "graphs": {},
                                    "rids": {}})
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(exc)

        def reader(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    after = rng.randrange(0, max(wal.last_seq, 1) + 2)
                    try:
                        records = read_wal_since(path, after)
                    except WalCompactedError:
                        continue  # the typed signal: re-bootstrap
                    seqs = [r["seq"] for r in records]
                    if seqs != list(range(after + 1, after + 1 + len(seqs))):
                        failures.append(AssertionError(
                            f"after={after}: non-contiguous suffix {seqs}"
                        ))
                        stop.set()
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(exc)
                stop.set()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(seed,))
            for seed in (1, 2)
        ]
        for thread in threads:
            thread.start()
        time.sleep(1.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        wal.close()
        assert not failures, failures[0]
        assert wal.last_seq > 25  # the test actually exercised rotation


# ----------------------------------------------------------------------
# primary-side fault plumbing
# ----------------------------------------------------------------------
class _SinkWriter:
    def __init__(self):
        self.data = b""

    def write(self, chunk):
        self.data += chunk

    async def drain(self):
        pass


class TestTornShip:
    def test_torn_ship_writes_undecodable_prefix(self, tmp_path):
        """An injected torn-ship leaves half a frame on the wire; the
        follower's decoder must classify it as torn (reconnect), never
        as data."""
        store = GraphStore(
            default_config=numpy_config(),
            wal=WriteAheadLog(tmp_path, sync="always",
                              fault_injector=FaultInjector("torn-ship:1")),
        )
        hub = ReplicationHub(store)
        token, _queue = hub.subscribe("test-peer")
        writer = _SinkWriter()
        record = {"kind": "unregister", "graph": "g", "seq": 1}

        async def _ship_once():
            await hub._send_record(writer, asyncio.Lock(),
                                   hub.followers[token], record, 0)

        with pytest.raises(ConnectionResetError, match="torn-ship"):
            asyncio.run(_ship_once())
        assert 0 < len(writer.data) < len(encode_frame(record))
        with pytest.raises(WalError):
            decode_frame(writer.data)
        store.close()


# ----------------------------------------------------------------------
# in-process primary + replica pairs
# ----------------------------------------------------------------------
class TestReplicaBasics:
    def test_bootstrap_and_streaming_parity(self, tmp_path):
        primary = start_primary(tmp_path)
        replica = start_replica(primary.port)
        try:
            with ServiceClient(port=primary.port, timeout=30.0) as pc, \
                    ServiceClient(port=replica.port, timeout=30.0) as rc:
                stats = wait_caught_up(rc, seq=1)
                assert stats["bootstraps"] == 1
                assert rc.graphs() == ["g"]
                assert wire_scores(rc.fsim("g")) == \
                    wire_scores(pc.fsim("g"))

                batches = mutation_batches(4)
                for index, ops in enumerate(batches):
                    pc.mutate("g", ops, rid=f"rid-{index}")
                stats = wait_caught_up(rc, seq=1 + len(batches))
                assert stats["applied_records"] == len(batches)
                assert stats["bootstraps"] == 1  # streaming, not re-syncing
                assert wire_scores(rc.fsim("g")) == \
                    wire_scores(pc.fsim("g"))
                assert rc.stats()["graphs"]["g"]["version"] == \
                    pc.stats()["graphs"]["g"]["version"]

                # Both sides report their role and are healthy.
                assert pc.stats()["replication"]["role"] == "primary"
                assert len(pc.stats()["replication"]["followers"]) == 1
                assert rc.stats()["replication"]["role"] == "replica"
                assert pc.stats()["health"]["status"] == "ok"
                assert rc.stats()["health"]["status"] == "ok"
        finally:
            replica.stop()
            primary.stop()

    def test_replica_rejects_writes_with_redirect(self, tmp_path):
        primary = start_primary(tmp_path)
        replica = start_replica(primary.port)
        try:
            with ServiceClient(port=replica.port, timeout=30.0) as rc:
                wait_caught_up(rc, seq=1)
                with pytest.raises(ReplicaReadOnlyError) as excinfo:
                    rc.mutate("g", [("add_node", 999, 0)])
                assert excinfo.value.primary == f"127.0.0.1:{primary.port}"
                with pytest.raises(ReplicaReadOnlyError):
                    rc.register("h", nodes=[[0, 0]], edges=[])
        finally:
            replica.stop()
            primary.stop()

    def test_bounded_staleness_and_degraded_health(self, tmp_path):
        primary = start_primary(tmp_path)
        replica = start_replica(primary.port)
        rc = ServiceClient(port=replica.port, timeout=30.0)
        try:
            wait_caught_up(rc, seq=1)
            # Caught up: the tightest bound is satisfiable.
            fresh = rc.fsim("g", max_lag=0)
            assert fresh["converged"] is not None

            primary.stop()  # the primary goes away; staleness grows
            wait_for(lambda: not tail_stats(rc)["connected"],
                     message="tail to notice the dead primary")
            time.sleep(0.3)  # let wall-clock staleness accrue
            with pytest.raises(ReplicaLaggingError) as excinfo:
                rc.fsim("g", max_lag_seconds=0.05)
            assert excinfo.value.lag_seconds is None \
                or excinfo.value.lag_seconds > 0.05
            # Unbounded reads still serve (stale-tolerant readers).
            assert wire_scores(rc.fsim("g")) == wire_scores(fresh)
            health = rc.stats()["health"]
            assert health["status"] == "degraded"
            assert any("disconnected" in reason
                       for reason in health["reasons"])
        finally:
            rc.close()
            replica.stop()

    def test_replica_must_not_keep_its_own_wal(self, tmp_path):
        store = GraphStore(default_config=numpy_config(),
                           wal=WriteAheadLog(tmp_path))
        with pytest.raises(ServiceError, match="replica"):
            FSimServer(store, replicate_from="127.0.0.1:1")
        store.close()

    def test_bad_primary_address_is_typed(self):
        store = GraphStore(default_config=numpy_config())
        with pytest.raises(ServiceError, match="HOST:PORT"):
            FSimServer(store, replicate_from="not-an-address")
        store.close()


class TestReplicaResilience:
    def test_stopping_tail_leaves_without_its_cancel(self, tmp_path):
        """Python 3.11's ``wait_for`` swallows a cancel that lands just
        as the awaited line arrives.  The stop flag alone must end the
        tail at its next frame, or server shutdown waits on it forever."""
        primary = start_primary(tmp_path)
        replica = start_replica(primary.port)
        try:
            with ServiceClient(port=replica.port, timeout=30.0) as rc:
                wait_caught_up(rc, seq=1)
            server = replica.server
            replica._loop.call_soon_threadsafe(server.tail.stop)
            wait_for(server._tail_task.done, timeout=10.0,
                     message="stopped tail exit")
        finally:
            replica.stop()
            primary.stop()

    def test_blip_resumes_from_watermark_without_rebootstrap(
            self, tmp_path, monkeypatch):
        """An injected partition drops the stream mid-tail; the follower
        reconnects and resumes with ``after=applied_seq`` -- the
        bootstrap count must stay at 1."""
        primary = start_primary(tmp_path)
        monkeypatch.setenv(FaultInjector.ENV_VAR, "partition:2")
        replica = start_replica(primary.port)
        monkeypatch.delenv(FaultInjector.ENV_VAR)
        try:
            with ServiceClient(port=primary.port, timeout=30.0) as pc, \
                    ServiceClient(port=replica.port, timeout=30.0) as rc:
                wait_caught_up(rc, seq=1)
                batches = mutation_batches(3)
                for index, ops in enumerate(batches):
                    pc.mutate("g", ops, rid=f"rid-{index}")
                # Frame 2 trips the partition; the tail must heal past it.
                stats = wait_caught_up(rc, seq=1 + len(batches))
                assert stats["reconnects"] >= 1
                assert stats["bootstraps"] == 1
                assert wire_scores(rc.fsim("g")) == \
                    wire_scores(pc.fsim("g"))
        finally:
            replica.stop()
            primary.stop()

    def test_compaction_while_away_forces_rebootstrap(self, tmp_path):
        """When the primary compacted the follower's resume range away,
        the follower re-bootstraps from snapshots instead of failing."""
        port = free_port()
        primary = start_primary(tmp_path, port=port)
        replica = start_replica(port)
        rc = ServiceClient(port=replica.port, timeout=30.0)
        try:
            with ServiceClient(port=port, timeout=30.0) as pc:
                pc.mutate("g", [("add_node", 500, 1)])
            wait_caught_up(rc, seq=2)
            assert tail_stats(rc)["bootstraps"] == 1

            primary.stop()  # follower starts its reconnect loop
            # Offline: advance and compact, folding seq <= 3 into the
            # snapshot -- the follower's watermark (2) is now history.
            store, _report = recover_store(tmp_path, config=numpy_config())
            store.mutate("g", [DeltaOp("add_node", 501, 2)])
            store.compact()
            with pytest.raises(WalCompactedError):
                read_wal_since(tmp_path / WAL_FILENAME, 2)
            restarted = ServerThread(store, window=0.001,
                                     port=port).start()
            try:
                stats = wait_caught_up(rc, seq=4)
                assert stats["bootstraps"] == 2
                with ServiceClient(port=port, timeout=30.0) as pc:
                    assert wire_scores(rc.fsim("g")) == \
                        wire_scores(pc.fsim("g"))
            finally:
                restarted.stop()
        finally:
            rc.close()
            replica.stop()


# ----------------------------------------------------------------------
# replica-set routing
# ----------------------------------------------------------------------
class TestReplicaSetClient:
    def test_reads_scale_writes_redirect_failover_heals(self, tmp_path):
        primary = start_primary(tmp_path)
        replica_a = start_replica(primary.port)
        replica_b = start_replica(primary.port)
        with ServiceClient(port=replica_a.port, timeout=30.0) as ra, \
                ServiceClient(port=replica_b.port, timeout=30.0) as rb:
            wait_caught_up(ra, seq=1)
            wait_caught_up(rb, seq=1)

        async def _exercise():
            client = ReplicaSetClient(
                f"127.0.0.1:{primary.port}",
                [f"127.0.0.1:{replica_a.port}",
                 f"127.0.0.1:{replica_b.port}"],
                timeout=30.0, cooldown=0.2,
            )
            try:
                expected = await client.primary.fsim("g")
                # Reads round-robin across healthy replicas, values
                # identical to the primary's.
                for _ in range(4):
                    wire = await client.fsim("g")
                    assert wire_scores(wire) == wire_scores(expected)
                assert client.stats["replica_reads"] == 4
                assert client.stats["primary_reads"] == 0
                assert all(e["reads"] == 2 for e in client._replicas)

                health = await client.probe()
                assert all(health.values())

                # Writes always hit the primary (never a redirect dance).
                await client.mutate("g", [("add_node", 700, 1)], rid="w1")
                assert client.stats["writes"] == 1

                # One replica dies: reads fail over to its healthy peer.
                replica_a.stop()
                for _ in range(4):
                    wire = await client.fsim("g")
                assert client.stats["primary_reads"] == 0

                # Both replicas dead: reads fall back to the primary.
                replica_b.stop()
                wire = await client.fsim("g")
                assert wire_scores(wire) is not None
                assert client.stats["primary_reads"] >= 1
                assert client.stats["failovers"] >= 1
                health = await client.probe()
                assert not any(health.values())
            finally:
                await client.close()

        try:
            asyncio.run(_exercise())
        finally:
            replica_a.stop()
            replica_b.stop()
            primary.stop()

    def test_lagging_replica_rejected_set_falls_to_primary(self, tmp_path):
        """A replica that cannot prove freshness bounces the bounded
        read; the set client retries against the primary and the caller
        never sees the staleness error."""
        primary = start_primary(tmp_path)
        replica = start_replica(primary.port)
        rc = ServiceClient(port=replica.port, timeout=30.0)
        try:
            wait_caught_up(rc, seq=1)
            primary_address = f"127.0.0.1:{primary.port}"
            replica_address = f"127.0.0.1:{replica.port}"
            primary.stop()
            wait_for(lambda: not tail_stats(rc)["connected"],
                     message="tail disconnect")
            time.sleep(0.3)

            store, _report = recover_store(tmp_path, config=numpy_config())
            restarted = ServerThread(
                store, window=0.001,
                port=int(primary_address.rsplit(":", 1)[1])).start()

            async def _exercise():
                client = ReplicaSetClient(
                    primary_address, [replica_address],
                    timeout=30.0, max_lag_seconds=0.05, cooldown=5.0,
                )
                try:
                    wire = await client.fsim("g")
                    assert wire_scores(wire)
                    assert client.stats["primary_reads"] >= 1
                    assert client.stats["failovers"] >= 1
                    assert client._replicas[0]["failures"] >= 1
                finally:
                    await client.close()

            try:
                asyncio.run(_exercise())
            finally:
                restarted.stop()
        finally:
            rc.close()
            replica.stop()


# ----------------------------------------------------------------------
# kill -9 real processes on either side of the stream
# ----------------------------------------------------------------------
class TestKillAndRecoverReplication:
    @staticmethod
    def _spawn(extra_args, fault=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop(FaultInjector.ENV_VAR, None)
        if fault:
            env[FaultInjector.ENV_VAR] = fault
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--window", "0.001",
             "--variant", "b", "--label-function", "indicator",
             "--backend", "numpy"] + extra_args,
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        port = None
        deadline = time.time() + 60.0
        while time.time() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            if line.startswith("# ready on "):
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            process.kill()
            raise AssertionError("server never printed its ready line")
        return process, port

    def _spawn_primary(self, tmp_path, graph_path, port, fault=None):
        return self._spawn(
            ["--graph", f"g={graph_path}",
             "--wal-dir", str(tmp_path / "wal"),
             "--wal-sync", "always",
             "--port", str(port)],
            fault=fault,
        )

    def _spawn_follower(self, primary_port, fault=None):
        return self._spawn(
            ["--replicate-from", f"127.0.0.1:{primary_port}",
             "--port", "0"],
            fault=fault,
        )

    @staticmethod
    def _reap(process, timeout=60):
        process.stdout.close()
        try:
            return process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
            raise AssertionError("server subprocess failed to exit")

    def test_sigkill_follower_mid_apply_restarts_bitwise(self, tmp_path):
        graph_path = tmp_path / "g.txt"
        save_graph(make_graph(), graph_path)
        batches = [[("add_node", 4000 + i, i % 3)] for i in range(6)]
        port = free_port()

        primary_proc, _ = self._spawn_primary(tmp_path, graph_path, port)
        follower_proc, follower_port = self._spawn_follower(
            port, fault="crash-mid-apply:3")
        try:
            pc = ServiceClient(port=port, timeout=30.0)
            with ServiceClient(port=follower_port, timeout=30.0) as rc:
                wait_caught_up(rc, seq=1)
            # Every mutation acks on the primary; the follower's injected
            # fault kills it (exit 137) while applying the third frame.
            for index, ops in enumerate(batches):
                pc.mutate("g", ops, rid=f"rid-{index}")
            wait_for(lambda: follower_proc.poll() is not None,
                     message="follower crash")
            assert self._reap(follower_proc) == 137

            # A fresh follower bootstraps from the primary's live state
            # and answers bitwise-identically.
            follower_proc, follower_port = self._spawn_follower(port)
            with ServiceClient(port=follower_port, timeout=30.0) as rc:
                wait_caught_up(rc, seq=1 + len(batches))
                assert wire_scores(rc.fsim("g")) == \
                    wire_scores(pc.fsim("g"))
                assert rc.stats()["graphs"]["g"]["version"] == \
                    pc.stats()["graphs"]["g"]["version"]
                # Acked mutations applied exactly once everywhere: the
                # primary dedups every retried rid, and the follower's
                # version already reflects a single application.
                for index, ops in enumerate(batches):
                    assert pc.mutate("g", ops,
                                     rid=f"rid-{index}").get("deduped")
            pc.shutdown()
            pc.close()
        finally:
            for process in (follower_proc, primary_proc):
                if process.poll() is None:
                    process.kill()
                self._reap(process)

    def test_sigkill_primary_mid_ship_follower_resumes(self, tmp_path):
        from repro.exceptions import ServiceConnectionError

        graph_path = tmp_path / "g.txt"
        save_graph(make_graph(), graph_path)
        batches = [[("add_node", 4000 + i, i % 3)] for i in range(6)]
        port = free_port()

        primary_proc, _ = self._spawn_primary(
            tmp_path, graph_path, port, fault="crash-mid-ship:3")
        follower_proc, follower_port = self._spawn_follower(port)
        rc = ServiceClient(port=follower_port, timeout=30.0)
        try:
            wait_caught_up(rc, seq=1)
            pc = ServiceClient(port=port, timeout=30.0)
            acked, unacked = [], []
            for index, ops in enumerate(batches):
                try:
                    pc.mutate("g", ops, rid=f"rid-{index}")
                    acked.append(index)
                except ServiceConnectionError:
                    unacked.append(index)
                    break
            pc.close()
            wait_for(lambda: primary_proc.poll() is not None,
                     message="primary crash")
            assert self._reap(primary_proc) == 137
            unacked.extend(range((unacked or acked)[-1] + 1, len(batches)))
            unacked = sorted(set(unacked) - set(acked))

            # The follower survives the dead primary (degraded, not
            # down) and keeps serving unbounded reads.
            wait_for(lambda: not tail_stats(rc)["connected"],
                     message="follower to notice the dead primary")
            assert rc.fsim("g")["converged"] is not None
            bootstraps_before = tail_stats(rc)["bootstraps"]

            # Restart the primary over the same WAL; the follower
            # reconnects and resumes from its watermark -- the intact
            # log means no re-bootstrap.
            primary_proc, _ = self._spawn_primary(tmp_path, graph_path,
                                                  port)
            pc = ServiceClient(port=port, timeout=30.0)
            # The well-behaved client resends with original rids:
            # acked ones dedup, unacked apply exactly once.
            for index in acked:
                assert pc.mutate("g", batches[index],
                                 rid=f"rid-{index}").get("deduped")
            for index in unacked:
                pc.mutate("g", batches[index], rid=f"rid-{index}")
            wait_caught_up(rc, seq=1 + len(batches))
            assert tail_stats(rc)["bootstraps"] == bootstraps_before
            assert wire_scores(rc.fsim("g")) == wire_scores(pc.fsim("g"))
            assert rc.stats()["graphs"]["g"]["version"] == \
                pc.stats()["graphs"]["g"]["version"]
            pc.shutdown()
            pc.close()
        finally:
            rc.close()
            for process in (follower_proc, primary_proc):
                if process.poll() is None:
                    process.kill()
                self._reap(process)
