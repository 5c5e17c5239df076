"""Cost of durability: mutation throughput per WAL sync mode + recovery.

The write-ahead log (:mod:`repro.service.wal`) buys crash recovery with
one knob that matters for hot mutation streams: *when to fsync*.  This
benchmark measures that cost directly on a pure mutation workload
against one registered graph:

- **no-wal**: the PR-5 volatile store -- the ceiling;
- **wal-off**: records written to the page cache, never fsynced
  (durable against process crash, not against power loss);
- **wal-batch**: fsync once per coalesced scheduler batch -- the
  service default (an acknowledgement still implies durability; the
  fsync is amortized over the batch).  Measured here at the store
  level with a ``commit()`` per N-mutation group;
- **wal-always**: fsync per record -- the strongest setting and the
  one the kill-and-recover tests run under.

It then measures **recovery**: the wal-always log is replayed into a
fresh store and the recovered scores are asserted bitwise-equal to the
live store's -- the same contract ``tests/test_durability.py`` enforces
at every crash point, measured here at benchmark scale.

Writes ``BENCH_durability.json`` through :mod:`harness`:

    python benchmarks/bench_durability.py [--smoke | --no-gate]
"""

from __future__ import annotations

import pathlib
import shutil
import sys
import tempfile
import time

import harness
from repro.core.config import FSimConfig
from repro.graph.digraph import LabeledDigraph
from repro.service import GraphStore, WriteAheadLog, recover_store
from repro.simulation import Variant
from repro.streaming.delta import DeltaOp

RESULT = "BENCH_durability.json"

#: wal-off must stay within this slowdown factor of no-wal (record
#: formatting + page-cache writes only; an fsync-free WAL that costs
#: more than this is a bug, not a policy choice).
OFF_OVERHEAD_GATE = 3.0


def build_graph(num_nodes: int) -> LabeledDigraph:
    graph = LabeledDigraph("bench")
    for node in range(num_nodes):
        graph.add_node(node, node % 4)
    for node in range(num_nodes):
        graph.add_edge(node, (node + 1) % num_nodes)
        graph.add_edge(node, (node + 7) % num_nodes)
    return graph


def mutation_batches(count: int, base: int):
    """``count`` single-op batches, each adding a fresh node + edge."""
    batches = []
    for index in range(count):
        node = base + index
        batches.append([DeltaOp("add_node", node, index % 4),
                        DeltaOp("add_edge", node, index % 50)])
    return batches


def config() -> FSimConfig:
    return FSimConfig(variant=Variant.B, label_function="indicator",
                      backend="numpy")


def run_mode(mode: str, num_nodes: int, mutations: int,
             group: int = 32) -> dict:
    """Apply the mutation stream under one durability mode; time it."""
    wal_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"bench-wal-{mode}-"))
    try:
        wal = None
        if mode != "no-wal":
            wal = WriteAheadLog(wal_dir, sync=mode.replace("wal-", ""))
        store = GraphStore(default_config=config(), wal=wal)
        store.wal_autocompact = False  # measure logging, not compaction
        store.register("g", build_graph(num_nodes),
                       source={"nodes": [], "edges": []})
        batches = mutation_batches(mutations, base=10 * num_nodes)
        start = time.perf_counter()
        for index, ops in enumerate(batches):
            store.mutate("g", ops, rid=f"r{index}")
            if mode == "wal-batch" and (index + 1) % group == 0:
                store.commit_wal()
        store.commit_wal()
        elapsed = time.perf_counter() - start
        entry = {
            "mode": mode,
            "mutations": mutations,
            "seconds": elapsed,
            "mutations_per_second": mutations / elapsed,
            "wal_bytes": wal.size_bytes() if wal else 0,
            "fsyncs": wal.syncs if wal else 0,
        }
        store.close()
        return entry
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def run_recovery(num_nodes: int, mutations: int) -> dict:
    """Log a stream under wal-always, recover, assert bitwise parity."""
    wal_dir = pathlib.Path(tempfile.mkdtemp(prefix="bench-wal-recover-"))
    try:
        nodes = [[node, node % 4] for node in range(num_nodes)]
        edges = [[node, (node + 1) % num_nodes] for node in range(num_nodes)]
        edges += [[node, (node + 7) % num_nodes]
                  for node in range(num_nodes)]
        graph = LabeledDigraph("bench")
        for node, label in nodes:
            graph.add_node(node, label)
        for a, b in edges:
            graph.add_edge(a, b)
        store = GraphStore(default_config=config(),
                           wal=WriteAheadLog(wal_dir, sync="always"))
        store.register("g", graph, source={"nodes": nodes, "edges": edges})
        for index, ops in enumerate(
                mutation_batches(mutations, base=10 * num_nodes)):
            store.mutate("g", ops, rid=f"r{index}")
        expected = dict(store.fsim("g", "g").scores)
        wal_bytes = store.wal.size_bytes()
        store.close()

        start = time.perf_counter()
        recovered, report = recover_store(wal_dir, config=config())
        replay_seconds = time.perf_counter() - start
        observed = dict(recovered.fsim("g", "g").scores)
        recovered.close()
        assert observed == expected, \
            "recovered scores are not bitwise-identical to the live store"
        return {
            "mutations": mutations,
            "wal_bytes": wal_bytes,
            "replay_seconds": replay_seconds,
            "replayed_records": report.replayed_mutations,
            "records_per_second": report.replayed_mutations
            / replay_seconds,
            "bitwise_identical": True,
        }
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


MODES = ("no-wal", "wal-off", "wal-batch", "wal-always")

SMOKE = dict(num_nodes=60, mutations=120)


def run_benchmark(num_nodes: int = 300, mutations: int = 2000) -> dict:
    modes = {mode: run_mode(mode, num_nodes, mutations) for mode in MODES}
    baseline = modes["no-wal"]["mutations_per_second"]
    for entry in modes.values():
        entry["overhead_vs_no_wal"] = baseline \
            / entry["mutations_per_second"]
    return {
        "workload": f"{num_nodes}-node ring, {mutations} mutation batches",
        "modes": modes,
        "recovery": run_recovery(num_nodes, mutations // 4),
    }


def render(report: dict) -> str:
    lines = [
        "# durability: mutation throughput per WAL sync mode",
        f"workload           {report['workload']}",
    ]
    for mode in MODES:
        entry = report["modes"][mode]
        lines.append(
            f"{mode:18} {entry['mutations_per_second']:10.0f} mut/s "
            f"({entry['seconds']:.3f}s, {entry['fsyncs']} fsyncs, "
            f"{entry['overhead_vs_no_wal']:.2f}x vs no-wal)"
        )
    recovery = report["recovery"]
    lines += [
        "",
        "# recovery (snapshot-free worst case: full WAL replay)",
        f"replayed           {recovery['replayed_records']} records in "
        f"{recovery['replay_seconds']:.3f}s "
        f"({recovery['records_per_second']:.0f} rec/s, "
        f"{recovery['wal_bytes']} WAL bytes)",
        f"bitwise parity     {recovery['bitwise_identical']}",
    ]
    return "\n".join(lines)


def checks(report: dict) -> list:
    """Recovery parity is asserted inside ``run_recovery``."""
    if report["modes"]["wal-always"]["fsyncs"] <= 0:
        return ["wal-always never fsynced"]
    return []


def gates(report: dict) -> list:
    overhead = report["modes"]["wal-off"]["overhead_vs_no_wal"]
    if overhead > OFF_OVERHEAD_GATE:
        return [f"fsync-free WAL overhead {overhead:.2f}x "
                f"> {OFF_OVERHEAD_GATE}x gate"]
    return []


if __name__ == "__main__":
    raise SystemExit(harness.main(sys.modules[__name__]))
