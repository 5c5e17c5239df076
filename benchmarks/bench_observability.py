"""Overhead of the observability stack (repro.obs) on the service path.

The observability PR's acceptance bar: full instrumentation -- metrics
registry enabled, request tracing on every query, slow-query recording
armed -- must cost no more than ~5% throughput against no-op mode
(registry disabled, no trace ids on the wire) on the Figure-9 service
workload (densified NELL, FSimbj theta = 1, concurrent top-k traffic).

Each round runs the identical request stream twice through fresh
in-process servers:

- **no-op**: ``repro.obs.metrics.configure(enabled=False)``; clients do
  not stamp trace ids, so every metric mutator short-circuits and the
  span sink stays empty -- the near-zero-overhead mode the registry
  promises;
- **instrumented**: registry enabled, every client request carries a
  trace id (server-side spans across scheduler/store/engine), and the
  server keeps a slow-query ring.

Scores must be **bitwise identical** between the two modes -- the
instrumentation observes, never perturbs.  The gate compares
median-of-rounds throughput.

A second section gates the **shadow auditor** (repro.obs.audit): with
both modes fully instrumented, 1% audit sampling must stay within the
same ~5% throughput envelope of an audit-off server, and every audited
request must re-execute to a bitwise-matching fingerprint (zero
divergences, zero reference errors).

Writes ``BENCH_observability.json`` through :mod:`harness`:

    python benchmarks/bench_observability.py [--smoke | --no-gate]
"""

from __future__ import annotations

import statistics
import sys
import threading
import time

import harness
from repro.core.config import FSimConfig
from repro.datasets import load_dataset
from repro.graph.noise import densify
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import parse_exposition
from repro.service import GraphStore, ServerThread, ServiceClient
from repro.service.client import wire_partners
from repro.simulation import Variant

RESULT = "BENCH_observability.json"

#: Maximum tolerated throughput loss of fully instrumented mode vs
#: no-op mode (the acceptance bar of the observability PR).
OVERHEAD_GATE_PCT = 5.0

GRAPH_NAME = "nell"

#: Production-shaped audit sampling rate for the overhead gate.
AUDIT_SAMPLING = 0.01


def _config() -> FSimConfig:
    return FSimConfig(variant=Variant.BJ, theta=1.0, backend="numpy")


def _build_graph(factor: float):
    base = load_dataset(GRAPH_NAME, scale=1.0, seed=0)
    return densify(base, float(factor), 0) if factor != 1 else base


def _start_server(factor: float, window: float, max_batch: int,
                  slow_query_ms=None):
    store = GraphStore(default_config=_config())
    store.register(GRAPH_NAME, _build_graph(factor))
    return ServerThread(store, window=window, max_batch=max_batch,
                        slow_query_ms=slow_query_ms).start()


def _drive(port: int, queries, k: int, clients: int, tracing: bool):
    """The bench_service request stream: one keep-alive connection per
    worker thread; returns (wall seconds, {query: scores})."""
    pool = [ServiceClient(port=port, tracing=tracing)
            for _ in range(clients)]
    responses = {}
    errors = []
    shards = [queries[i::clients] for i in range(clients)]

    def run_shard(client, shard):
        try:
            for query in shard:
                responses[query] = client.topk(GRAPH_NAME, query, k=k)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    try:
        pool[0].topk(GRAPH_NAME, queries[0], k=k)  # warm compile
        threads = [threading.Thread(target=run_shard, args=(pool[i], shard))
                   for i, shard in enumerate(shards) if shard]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    finally:
        for client in pool:
            client.close()
    if errors:
        raise errors[0]
    scores = {query: tuple(map(tuple, wire_partners(resp)))
              for query, resp in responses.items()}
    return elapsed, scores


def _run_mode(instrumented: bool, factor: float, queries, k: int,
              clients: int, window: float, max_batch: int):
    obs_metrics.configure(enabled=instrumented)
    obs_metrics.REGISTRY.reset()
    server = _start_server(
        factor, window=window, max_batch=max_batch,
        slow_query_ms=250.0 if instrumented else None,
    )
    try:
        elapsed, scores = _drive(server.port, queries, k, clients,
                                 tracing=instrumented)
        if instrumented:
            # the scrape must stay parseable under load
            with ServiceClient(port=server.port) as probe:
                families = parse_exposition(probe.metrics()["exposition"])
            assert "repro_requests_total" in families
    finally:
        server.stop()
    return elapsed, scores


def run_overhead(factor: float, num_queries: int, clients: int,
                 window: float, max_batch: int, rounds: int,
                 k: int = 5) -> dict:
    replica = _build_graph(factor)
    queries = list(replica.nodes())[:num_queries]
    prior_enabled = obs_metrics.enabled()

    noop_times, instr_times = [], []
    baseline_scores = None
    try:
        for round_index in range(rounds):
            # alternate starting mode so drift penalizes neither side
            order = ((False, True) if round_index % 2 == 0
                     else (True, False))
            round_times = {}
            for instrumented in order:
                elapsed, scores = _run_mode(
                    instrumented, factor, queries, k, clients,
                    window, max_batch,
                )
                round_times[instrumented] = elapsed
                if baseline_scores is None:
                    baseline_scores = scores
                elif scores != baseline_scores:
                    raise AssertionError(
                        "instrumented and no-op modes diverged bitwise"
                    )
            noop_times.append(round_times[False])
            instr_times.append(round_times[True])
    finally:
        obs_metrics.configure(enabled=prior_enabled)
        obs_metrics.REGISTRY.reset()

    noop_rps = num_queries / statistics.median(noop_times)
    instr_rps = num_queries / statistics.median(instr_times)
    overhead_pct = (noop_rps - instr_rps) / noop_rps * 100.0
    return {
        "workload": f"{GRAPH_NAME} x{factor:g}, FSimbj{{theta=1}}, "
                    f"top-{k} of {num_queries} queries, "
                    f"{clients} clients, {rounds} rounds",
        "clients": clients,
        "rounds": rounds,
        "window_s": window,
        "max_batch": max_batch,
        "noop_rps": noop_rps,
        "instrumented_rps": instr_rps,
        "noop_seconds": noop_times,
        "instrumented_seconds": instr_times,
        "overhead_pct": overhead_pct,
        "gate_pct": OVERHEAD_GATE_PCT,
        "parity": "bitwise (asserted across every mode/round)",
    }


def _run_audit_mode(audited: bool, factor: float, queries, k: int,
                    clients: int, window: float, max_batch: int):
    """One fully instrumented server, with or without the shadow
    auditor tapped into the store; returns (wall, scores, audit stats).
    """
    obs_metrics.configure(enabled=True)
    obs_metrics.REGISTRY.reset()
    store = GraphStore(default_config=_config())
    store.register(GRAPH_NAME, _build_graph(factor))
    server = ServerThread(
        store, window=window, max_batch=max_batch,
        audit_sampling=AUDIT_SAMPLING if audited else 0.0,
    ).start()
    audit_stats = None
    try:
        elapsed, scores = _drive(server.port, queries, k, clients,
                                 tracing=True)
        if audited:
            # Deterministic parity probe: 1% sampling may capture
            # nothing on a short stream, so force one audited request
            # after the timed window and drain the re-execution queue.
            auditor = server.server.auditor
            auditor.sampling = 1.0
            with ServiceClient(port=server.port, tracing=True) as probe:
                probe.topk(GRAPH_NAME, queries[0], k=k)
            auditor.drain(timeout=120.0)
            audit_stats = auditor.stats()
            if audit_stats["diverged"] or audit_stats["error"]:
                raise AssertionError(
                    f"shadow audit diverged under benchmark load: "
                    f"{audit_stats}"
                )
            if audit_stats["match"] < 1:
                raise AssertionError(
                    f"audit parity probe never executed: {audit_stats}"
                )
    finally:
        server.stop()
    return elapsed, scores, audit_stats


def run_audit_overhead(factor: float, num_queries: int, clients: int,
                       window: float, max_batch: int, rounds: int,
                       k: int = 5) -> dict:
    replica = _build_graph(factor)
    queries = list(replica.nodes())[:num_queries]
    prior_enabled = obs_metrics.enabled()

    off_times, on_times = [], []
    baseline_scores = None
    last_audit = None
    try:
        for round_index in range(rounds):
            order = ((False, True) if round_index % 2 == 0
                     else (True, False))
            round_times = {}
            for audited in order:
                elapsed, scores, audit_stats = _run_audit_mode(
                    audited, factor, queries, k, clients,
                    window, max_batch,
                )
                round_times[audited] = elapsed
                if audit_stats is not None:
                    last_audit = audit_stats
                if baseline_scores is None:
                    baseline_scores = scores
                elif scores != baseline_scores:
                    raise AssertionError(
                        "audited and audit-off modes diverged bitwise"
                    )
            off_times.append(round_times[False])
            on_times.append(round_times[True])
    finally:
        obs_metrics.configure(enabled=prior_enabled)
        obs_metrics.REGISTRY.reset()

    off_rps = num_queries / statistics.median(off_times)
    on_rps = num_queries / statistics.median(on_times)
    overhead_pct = (off_rps - on_rps) / off_rps * 100.0
    return {
        "workload": f"{GRAPH_NAME} x{factor:g}, FSimbj{{theta=1}}, "
                    f"top-{k} of {num_queries} queries, "
                    f"{clients} clients, {rounds} rounds",
        "sampling": AUDIT_SAMPLING,
        "clients": clients,
        "rounds": rounds,
        "no_audit_rps": off_rps,
        "audited_rps": on_rps,
        "no_audit_seconds": off_times,
        "audited_seconds": on_times,
        "overhead_pct": overhead_pct,
        "gate_pct": OVERHEAD_GATE_PCT,
        "audit_counts": {
            key: (last_audit or {}).get(key)
            for key in ("captured", "executed", "match", "diverged",
                        "error", "dropped")
        },
        "audit_match_rate": (last_audit or {}).get("match_rate"),
        "parity": "bitwise (client scores across modes + shadow "
                  "re-execution fingerprints)",
    }


SMOKE = dict(factor=2.0, num_queries=8, clients=4, rounds=1)


def run_benchmark(factor: float = 5.0, num_queries: int = 24,
                  clients: int = 8, window: float = 0.02,
                  max_batch: int = 32, rounds: int = 3) -> dict:
    return {
        "overhead": run_overhead(factor, num_queries, clients,
                                 window, max_batch, rounds),
        "audit": run_audit_overhead(factor, num_queries, clients,
                                    window, max_batch, rounds),
    }


def render(report: dict) -> str:
    over = report["overhead"]
    audit = report["audit"]
    return "\n".join([
        "# observability overhead (instrumented vs no-op)",
        f"workload           {over['workload']}",
        f"no-op              {over['noop_rps']:8.1f} req/s",
        f"instrumented       {over['instrumented_rps']:8.1f} req/s "
        "(metrics + tracing + slow-query ring)",
        f"overhead           {over['overhead_pct']:8.2f}% "
        f"(gate {over['gate_pct']:g}%)",
        f"parity             {over['parity']}",
        "",
        f"# shadow audit overhead ({audit['sampling']:g} sampling "
        "vs audit-off, both instrumented)",
        f"audit off          {audit['no_audit_rps']:8.1f} req/s",
        f"audit on           {audit['audited_rps']:8.1f} req/s",
        f"overhead           {audit['overhead_pct']:8.2f}% "
        f"(gate {audit['gate_pct']:g}%)",
        f"audit counts       {audit['audit_counts']}",
        f"parity             {audit['parity']}",
    ])


def checks(report: dict) -> list:
    """Mode-to-mode parity and the shadow audit's fingerprints are
    asserted as the run goes; nothing is left to check in the report."""
    return []


def gates(report: dict) -> list:
    failures = []
    for section, what in (("overhead", "instrumentation"),
                          ("audit", "shadow audit")):
        overhead = report[section]["overhead_pct"]
        if overhead > OVERHEAD_GATE_PCT:
            failures.append(f"{what} overhead {overhead:.2f}% "
                            f"> {OVERHEAD_GATE_PCT:g}% gate")
    return failures


if __name__ == "__main__":
    raise SystemExit(harness.main(sys.modules[__name__]))
