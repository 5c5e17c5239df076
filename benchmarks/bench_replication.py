"""Replication lag and read scaling of WAL-shipping read replicas.

What a read replica costs and buys, measured on the same deterministic
workload family as ``tests/test_replication.py``:

- **catch-up**: a fresh follower pointed at a primary with a mutation
  backlog -- time to bootstrap from warm snapshot payloads, then the
  streaming throughput (records/s) while the primary keeps mutating;
- **steady-state lag**: the follower's ``lag_records`` sampled during a
  mutation storm, and whether it returns to zero afterwards;
- **read scaling**: the same top-k read stream through a
  :class:`~repro.service.client.ReplicaSetClient` against the primary
  alone vs primary + 2 followers (round-robin routing);
- **per-round parity**: after every mutation round the follower's
  ``fsim`` scores must be **bitwise identical** to the primary's.

Gates are on *correctness* -- parity every round, catch-up completing,
lag draining to zero -- never on wall clock: replication buys
availability and read fan-out, and on a single-core runner the fan-out
is invisible by construction.

Writes ``BENCH_replication.json`` through :mod:`harness`:

    python benchmarks/bench_replication.py [--smoke | --no-gate]
"""

from __future__ import annotations

import asyncio
import pathlib
import sys
import time

import harness
from repro.core.config import FSimConfig
from repro.graph.digraph import LabeledDigraph
from repro.graph.generators import random_graph, uniform_labels
from repro.service import (
    GraphStore,
    ReplicaSetClient,
    ServerThread,
    ServiceClient,
    WriteAheadLog,
)
from repro.service.client import wire_scores
from repro.simulation import Variant

RESULT = "BENCH_replication.json"

GRAPH_NAME = "g"
CATCH_UP_TIMEOUT = 120.0


def _config() -> FSimConfig:
    return FSimConfig(variant=Variant.B, label_function="indicator",
                      backend="numpy")


def _build_graph(num_nodes: int, num_edges: int):
    generated = random_graph(
        num_nodes, num_edges,
        uniform_labels(num_nodes, 3, seed=5), seed=6,
    )
    graph = LabeledDigraph(GRAPH_NAME)
    for node in generated.nodes():
        graph.add_node(node, generated.label(node))
    for source, target in generated.edges():
        graph.add_edge(source, target)
    return graph


def _mutations(count: int, num_nodes: int):
    return [[("add_node", 10_000 + index, index % 3),
             ("add_edge", 10_000 + index, index % num_nodes)]
            for index in range(count)]


def _start_primary(wal_dir: pathlib.Path, num_nodes: int, num_edges: int):
    graph = _build_graph(num_nodes, num_edges)
    store = GraphStore(default_config=_config(),
                       wal=WriteAheadLog(wal_dir, sync="batch"))
    source = {
        "nodes": [[node, graph.label(node)] for node in graph.nodes()],
        "edges": [list(edge) for edge in graph.edges()],
    }
    store.register(GRAPH_NAME, graph, source=source)
    return ServerThread(store, window=0.001).start()


def _start_replica(primary_port: int):
    store = GraphStore(default_config=_config())
    return ServerThread(
        store, window=0.001,
        replicate_from=f"127.0.0.1:{primary_port}",
    ).start()


def _tail(client: ServiceClient) -> dict:
    return client.stats()["replication"]["tail"]


def _wait_caught_up(client: ServiceClient, seq: int,
                    timeout: float = CATCH_UP_TIMEOUT) -> float:
    """Poll until the follower applied ``seq`` with zero lag; returns
    the wall seconds spent waiting."""
    start = time.perf_counter()
    deadline = time.time() + timeout
    while time.time() < deadline:
        stats = _tail(client)
        if stats["connected"] and stats["applied_seq"] >= seq \
                and stats["lag_records"] == 0:
            return time.perf_counter() - start
        time.sleep(0.01)
    raise AssertionError(f"follower never caught up to seq {seq}")


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def run_catch_up_and_lag(wal_dir: pathlib.Path, num_nodes: int,
                         num_edges: int, backlog: int, stream: int) -> dict:
    primary = _start_primary(wal_dir, num_nodes, num_edges)
    replica = None
    try:
        with ServiceClient(port=primary.port, timeout=60.0) as pc:
            for ops in _mutations(backlog, num_nodes):
                pc.mutate(GRAPH_NAME, ops)
            head = 1 + backlog

            # Bootstrap catch-up: fresh follower vs an existing backlog.
            start = time.perf_counter()
            replica = _start_replica(primary.port)
            rc = ServiceClient(port=replica.port, timeout=60.0)
            _wait_caught_up(rc, head)
            bootstrap_seconds = time.perf_counter() - start

            # Streaming: keep mutating and sample the follower's lag.
            max_lag = 0
            start = time.perf_counter()
            for index in range(stream):
                pc.mutate(GRAPH_NAME,
                          [("add_node", 20_000 + index, index % 3),
                           ("add_edge", 20_000 + index,
                            index % num_nodes)])
                if index % 5 == 0:
                    max_lag = max(max_lag,
                                  _tail(rc)["lag_records"] or 0)
            drain_seconds = _wait_caught_up(rc, head + stream)
            stream_seconds = time.perf_counter() - start

            parity = wire_scores(rc.fsim(GRAPH_NAME)) == \
                wire_scores(pc.fsim(GRAPH_NAME))
            stats = _tail(rc)
            rc.close()
            return {
                "backlog_records": backlog,
                "bootstrap_catch_up_seconds": bootstrap_seconds,
                "stream_records": stream,
                "stream_seconds": stream_seconds,
                "stream_records_per_s": stream / stream_seconds,
                "max_observed_lag_records": max_lag,
                "drain_seconds": drain_seconds,
                "final_lag_records": stats["lag_records"],
                "bootstraps": stats["bootstraps"],
                "parity": parity,
            }
    finally:
        if replica is not None:
            replica.stop()
        primary.stop()


def run_read_scaling(wal_dir: pathlib.Path, num_nodes: int,
                     num_edges: int, reads: int) -> dict:
    primary = _start_primary(wal_dir, num_nodes, num_edges)
    replicas = []
    try:
        replicas = [_start_replica(primary.port) for _ in range(2)]
        for harness in replicas:
            with ServiceClient(port=harness.port, timeout=60.0) as rc:
                _wait_caught_up(rc, 1)
        queries = [node for node in
                   _build_graph(num_nodes, num_edges).nodes()][:8]

        async def _drive(addresses):
            client = ReplicaSetClient(
                f"127.0.0.1:{primary.port}", addresses, timeout=60.0,
            )
            try:
                expected = await client.primary.topk(
                    GRAPH_NAME, queries[0], k=3)  # warm compile
                start = time.perf_counter()
                for index in range(reads):
                    wire = await client.topk(
                        GRAPH_NAME, queries[index % len(queries)], k=3)
                    if index % len(queries) == 0:
                        assert wire["partners"] == expected["partners"]
                elapsed = time.perf_counter() - start
                return elapsed, dict(client.stats)
            finally:
                await client.close()

        primary_seconds, _ = asyncio.run(_drive([]))
        set_seconds, set_stats = asyncio.run(_drive(
            [f"127.0.0.1:{h.port}" for h in replicas]))
        return {
            "reads": reads,
            "primary_only_rps": reads / primary_seconds,
            "replica_set_rps": reads / set_seconds,
            "replica_reads": set_stats["replica_reads"],
            "primary_reads": set_stats["primary_reads"],
            "parity": "spot-checked per cycle",
        }
    finally:
        for harness in replicas:
            harness.stop()
        primary.stop()


def run_round_parity(wal_dir: pathlib.Path, num_nodes: int,
                     num_edges: int, rounds: int) -> dict:
    primary = _start_primary(wal_dir, num_nodes, num_edges)
    replica = None
    try:
        replica = _start_replica(primary.port)
        with ServiceClient(port=primary.port, timeout=60.0) as pc, \
                ServiceClient(port=replica.port, timeout=60.0) as rc:
            _wait_caught_up(rc, 1)
            parity_rounds = 0
            for round_index in range(rounds):
                pc.mutate(GRAPH_NAME,
                          [("add_node", 30_000 + round_index, 1),
                           ("add_edge", 30_000 + round_index,
                            round_index % num_nodes)])
                _wait_caught_up(rc, 2 + round_index)
                if wire_scores(rc.fsim(GRAPH_NAME)) == \
                        wire_scores(pc.fsim(GRAPH_NAME)):
                    parity_rounds += 1
            return {
                "rounds": rounds,
                "parity_rounds": parity_rounds,
                "parity": parity_rounds == rounds,
            }
    finally:
        if replica is not None:
            replica.stop()
        primary.stop()


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------
SMOKE = dict(num_nodes=18, num_edges=45, backlog=10, stream=8, reads=8,
             rounds=2)


def run_benchmark(num_nodes: int = 40, num_edges: int = 120,
                  backlog: int = 60, stream: int = 40,
                  reads: int = 32, rounds: int = 4) -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)
        return {
            "benchmark": "replication",
            "catch_up": run_catch_up_and_lag(
                base / "a", num_nodes, num_edges, backlog, stream),
            "read_scaling": run_read_scaling(
                base / "b", num_nodes, num_edges, reads),
            "round_parity": run_round_parity(
                base / "c", num_nodes, num_edges, rounds),
        }


def render(report: dict) -> str:
    catch = report["catch_up"]
    scale = report["read_scaling"]
    rounds = report["round_parity"]
    return "\n".join([
        "# replica catch-up and lag",
        f"bootstrap          {catch['bootstrap_catch_up_seconds']:.3f}s "
        f"behind a {catch['backlog_records']}-record backlog",
        f"streaming          {catch['stream_records_per_s']:8.1f} rec/s "
        f"({catch['stream_records']} records, "
        f"max lag {catch['max_observed_lag_records']}, "
        f"drained in {catch['drain_seconds']:.3f}s)",
        f"parity             {catch['parity']} "
        f"(bootstraps={catch['bootstraps']})",
        "",
        "# read scaling (ReplicaSetClient)",
        f"primary only       {scale['primary_only_rps']:8.1f} req/s",
        f"primary + 2        {scale['replica_set_rps']:8.1f} req/s "
        f"({scale['replica_reads']} replica reads, "
        f"{scale['primary_reads']} primary reads)",
        "",
        "# per-round parity",
        f"rounds             {rounds['parity_rounds']}/{rounds['rounds']} "
        f"bitwise identical",
    ])


def checks(report: dict) -> list:
    failures = []
    if not report["catch_up"]["parity"]:
        failures.append("catch-up parity broken")
    if report["catch_up"]["final_lag_records"] != 0:
        failures.append("streaming lag never drained to zero")
    if not report["round_parity"]["parity"]:
        failures.append("per-round parity broken")
    if report["read_scaling"]["replica_reads"] == 0:
        failures.append("replica set never routed a read to a replica")
    return failures


def gates(report: dict) -> list:
    """Replication buys availability and read fan-out, which a one-core
    runner cannot show: there is no wall-clock gate."""
    return []


if __name__ == "__main__":
    raise SystemExit(harness.main(sys.modules[__name__]))
