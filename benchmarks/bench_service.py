"""Throughput of the FSim query service under concurrent mixed traffic.

The ROADMAP north star asks the reproduction to "serve heavy traffic";
this benchmark measures the service subsystem that answers it
(:mod:`repro.service`) on the Figure-9 workload family (the densified
NELL emulator, FSimbj with theta = 1):

- **baseline**: a server with micro-batching disabled (window 0, batch
  size 1) and one client issuing the request stream one at a time --
  what a naive RPC wrapper around the library would do;
- **micro-batched**: the same request stream from N concurrent clients
  against a server with a small batching window -- concurrent top-k
  queries coalesce into one shared ``search_many`` iteration loop, so
  a batch of queries costs about one computation (PR 2's amortization,
  now reachable over a socket);
- **mutation phase**: mixed traffic -- edge mutations interleaved with
  queries -- exercising the journal -> session -> compiled-patch path;
- **snapshot phase**: the server's warm state is snapshotted, restored
  into a fresh store (cold plan/executor caches), and the first
  post-restore query is timed against a cold first query; plan-cache
  stats must show **zero** plan misses for the restored server.

Every response is asserted **bitwise identical** to the direct library
call on an identically built replica graph at the same version -- the
batching window buys throughput, never different values.

Writes ``BENCH_service.json`` through :mod:`harness`:

    python benchmarks/bench_service.py [--smoke | --no-gate]
"""

from __future__ import annotations

import pathlib
import sys
import threading
import time

import harness
from repro.core.api import fsim_matrix
from repro.core.config import FSimConfig
from repro.core.plan import clear_plan_caches, plan_cache_stats
from repro.core.topk import TopKSearch
from repro.datasets import load_dataset
from repro.graph.noise import densify
from repro.obs import metrics as obs_metrics
from repro.service import ClientPool, GraphStore, ServerThread
from repro.service.client import wire_partners, wire_scores
from repro.service.snapshot import restore_snapshot, save_snapshot
from repro.simulation import Variant

RESULT = "BENCH_service.json"

#: Required micro-batched speedup over the one-at-a-time baseline on
#: the headline workload (the acceptance bar of the service PR).
SPEEDUP_GATE = 2.0

GRAPH_NAME = "nell"


def _config() -> FSimConfig:
    # The Figure-9 variant family, minus upper-bound pruning so the
    # mutation phase exercises the in-place compiled patch (the pruned
    # configuration recompiles per edit by design).
    return FSimConfig(variant=Variant.BJ, theta=1.0, backend="numpy")


def _build_graph(factor: float):
    base = load_dataset(GRAPH_NAME, scale=1.0, seed=0)
    return densify(base, float(factor), 0) if factor != 1 else base


def _start_server(factor: float, window: float, max_batch: int):
    store = GraphStore(default_config=_config())
    store.register(GRAPH_NAME, _build_graph(factor))
    return ServerThread(store, window=window, max_batch=max_batch).start()


def _drive_queries(pool: ClientPool, queries, k: int, clients: int):
    """Issue one top-k request per query from ``clients`` threads (each
    on its own persistent connection); returns (wall seconds,
    {query: response}, client-side latency histogram)."""
    responses = {}
    errors = []
    shards = [queries[i::clients] for i in range(clients)]
    # A private registry: client-observed round-trip latency per
    # request, percentile-summarized by the bounded histogram type the
    # service itself reports through (repro.obs.metrics).
    latency = obs_metrics.MetricsRegistry(enabled=True).histogram(
        "client_latency_seconds"
    )

    def run_shard(client, shard):
        try:
            for query in shard:
                t0 = time.perf_counter()
                responses[query] = client.topk(GRAPH_NAME, query, k=k)
                latency.observe(time.perf_counter() - t0)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run_shard,
                                args=(pool.clients[i], shard))
               for i, shard in enumerate(shards) if shard]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, responses, latency


def _metric_series(stats: dict, name: str, **labels):
    """One series' percentile snapshot out of ``stats["metrics"]``."""
    for series in stats.get("metrics", {}).get(name, {}).get("series", ()):
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            return {key: series.get(key)
                    for key in ("count", "sum", "p50", "p95", "p99")}
    return None


def _assert_topk_parity(responses, replica, k: int) -> None:
    search = TopKSearch(replica, replica, _config())
    expected = search.search_many(list(responses), k)
    for result in expected:
        wire = responses[result.query]
        assert wire_partners(wire) == result.partners, result.query
        assert wire["certified"] == result.certified, result.query


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def run_throughput(factor: float, num_queries: int, clients: int,
                   window: float, max_batch: int, k: int = 5) -> dict:
    replica = _build_graph(factor)
    queries = list(replica.nodes())[:num_queries]

    baseline_server = _start_server(factor, window=0.0, max_batch=1)
    try:
        with ClientPool(baseline_server.port, size=1) as pool:
            pool.clients[0].topk(GRAPH_NAME, queries[0], k=k)  # warm compile
            baseline_time, baseline_responses, baseline_latency = (
                _drive_queries(pool, queries, k, clients=1)
            )
    finally:
        baseline_server.stop()
    _assert_topk_parity(baseline_responses, replica, k)

    # Fresh process-wide metrics so the scraped queue-wait / execute
    # percentiles below cover only the batched phase.
    obs_metrics.REGISTRY.reset()
    batched_server = _start_server(factor, window=window,
                                   max_batch=max_batch)
    try:
        with ClientPool(batched_server.port, size=clients) as pool:
            pool.clients[0].topk(GRAPH_NAME, queries[0], k=k)  # warm compile
            batched_time, batched_responses, batched_latency = (
                _drive_queries(pool, queries, k, clients=clients)
            )
            server_stats = pool.clients[0].stats()
            scheduler_stats = server_stats["scheduler"]
    finally:
        batched_server.stop()
    _assert_topk_parity(batched_responses, replica, k)

    return {
        "workload": f"{GRAPH_NAME} x{factor:g}, FSimbj{{theta=1}}, "
                    f"top-{k} of {num_queries} queries",
        "clients": clients,
        "window_s": window,
        "max_batch": max_batch,
        "baseline_seconds": baseline_time,
        "batched_seconds": batched_time,
        "baseline_rps": num_queries / baseline_time,
        "batched_rps": num_queries / batched_time,
        "speedup": baseline_time / batched_time,
        "coalesced_batches": scheduler_stats["coalesced_batches"],
        "largest_batch": scheduler_stats["largest_batch"],
        "parity": "bitwise (asserted per request)",
        "latency": {
            "baseline_client": baseline_latency.snapshot(),
            "batched_client": batched_latency.snapshot(),
            "queue_wait": _metric_series(
                server_stats, "repro_sched_queue_wait_seconds"
            ),
            "execute": _metric_series(
                server_stats, "repro_sched_execute_seconds", op="topk"
            ),
        },
    }


def run_mixed_traffic(factor: float, rounds: int, clients: int,
                      window: float) -> dict:
    """Interleaved queries and mutations; parity after every round."""
    replica = _build_graph(factor)
    server = _start_server(factor, window=window, max_batch=32)
    mutations = 0
    try:
        # One persistent connection per worker for the whole phase: the
        # query pool survives every round, and the mutator rides the
        # first pool connection instead of dialing fresh each round.
        with ClientPool(server.port, size=clients) as pool:
            mutator = pool.clients[0]
            start = time.perf_counter()
            for round_index in range(rounds):
                queries = list(replica.nodes())[
                    round_index * clients:(round_index + 1) * clients
                ]
                _, responses, _ = _drive_queries(pool, queries, 3, clients)
                _assert_topk_parity(responses, replica, 3)
                edge = list(replica.edges())[round_index * 13]
                mutator.mutate(GRAPH_NAME, [("remove_edge", *edge)])
                replica.remove_edge(*edge)
                mutations += 1
                wire = mutator.fsim(GRAPH_NAME)
                direct = fsim_matrix(replica, replica, config=_config())
                assert wire_scores(wire) == direct.scores
                assert wire["iterations"] == direct.iterations
            elapsed = time.perf_counter() - start
            stats = mutator.stats()
        session_stats = stats["pairs"][f"{GRAPH_NAME}|{GRAPH_NAME}"].get(
            "session_stats", {}
        )
    finally:
        server.stop()
    return {
        "rounds": rounds,
        "mutations": mutations,
        "seconds": elapsed,
        "incremental_runs": session_stats.get("incremental_runs", 0),
        "compiled_patches": session_stats.get("compiled_patches", 0),
        "cold_runs": session_stats.get("cold_runs", 0),
        "parity": "bitwise (asserted per round)",
    }


def run_snapshot(factor: float, tmp_dir: pathlib.Path) -> dict:
    snapshot_path = tmp_dir / f"{GRAPH_NAME}.snap"

    # Cold first query: fresh store, nothing warm.
    clear_plan_caches()
    cold_store = GraphStore(default_config=_config())
    cold_store.register(GRAPH_NAME, _build_graph(factor))
    start = time.perf_counter()
    cold_result = cold_store.fsim(GRAPH_NAME, GRAPH_NAME)
    cold_seconds = time.perf_counter() - start
    save_snapshot(cold_store, GRAPH_NAME, snapshot_path)
    cold_store.close()

    # Restored first query: fresh store + caches, snapshot attached.
    clear_plan_caches()
    warm_store = GraphStore(default_config=_config())
    restore_snapshot(warm_store, snapshot_path, graph=_build_graph(factor))
    start = time.perf_counter()
    warm_result = warm_store.fsim(GRAPH_NAME, GRAPH_NAME)
    warm_seconds = time.perf_counter() - start
    stats = plan_cache_stats()
    warm_store.close()

    assert warm_result.scores == cold_result.scores
    assert stats["plan_adoptions"] == 1, stats
    return {
        "cold_first_query_seconds": cold_seconds,
        "restored_first_query_seconds": warm_seconds,
        "warm_start_speedup": cold_seconds / max(warm_seconds, 1e-9),
        "snapshot_bytes": snapshot_path.stat().st_size,
        "plan_misses_after_restore": stats["plan_misses"],
        "recompiled": False,
    }


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------
SMOKE = dict(factor=2.0, num_queries=8, clients=4, rounds=2)


def run_benchmark(factor: float = 5.0, num_queries: int = 24,
                  clients: int = 8, window: float = 0.02,
                  max_batch: int = 32, rounds: int = 3) -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        return {
            "benchmark": "service",
            "throughput": run_throughput(
                factor, num_queries, clients, window, max_batch
            ),
            "mixed_traffic": run_mixed_traffic(
                factor, rounds, clients=4, window=window
            ),
            "snapshot": run_snapshot(factor, pathlib.Path(tmp)),
        }


def render(report: dict) -> str:
    through = report["throughput"]
    mixed = report["mixed_traffic"]
    snap = report["snapshot"]
    lines = [
        "# service throughput (micro-batched vs one-at-a-time)",
        f"workload           {through['workload']}",
        f"baseline           {through['baseline_rps']:8.1f} req/s "
        f"({through['baseline_seconds']:.3f}s)",
        f"micro-batched      {through['batched_rps']:8.1f} req/s "
        f"({through['batched_seconds']:.3f}s, {through['clients']} clients, "
        f"window {through['window_s'] * 1000:g}ms)",
        f"speedup            {through['speedup']:8.2f}x "
        f"(largest batch {through['largest_batch']}, "
        f"{through['coalesced_batches']} coalesced)",
    ]
    for label, key in (("client latency", "batched_client"),
                       ("queue wait", "queue_wait"),
                       ("execute", "execute")):
        dist = through["latency"].get(key)
        if dist and dist.get("count"):
            lines.append(
                f"{label:<18} p50 {dist['p50'] * 1000:7.2f}ms  "
                f"p95 {dist['p95'] * 1000:7.2f}ms  "
                f"p99 {dist['p99'] * 1000:7.2f}ms  (n={dist['count']})"
            )
    lines += [
        "",
        "# mixed query/mutation traffic",
        f"rounds             {mixed['rounds']} "
        f"({mixed['mutations']} mutations, {mixed['seconds']:.3f}s, "
        f"{mixed['compiled_patches']} compiled patches, "
        f"{mixed['cold_runs']} cold runs)",
        "",
        "# snapshot warm start",
        f"cold first query   {snap['cold_first_query_seconds']:.3f}s",
        f"restored           {snap['restored_first_query_seconds']:.3f}s "
        f"({snap['warm_start_speedup']:.0f}x, "
        f"{snap['snapshot_bytes']} bytes, "
        f"{snap['plan_misses_after_restore']} plan misses)",
    ]
    return "\n".join(lines)


def checks(report: dict) -> list:
    misses = report["snapshot"]["plan_misses_after_restore"]
    if misses != 0:
        return [f"{misses} plan misses after snapshot restore"]
    return []


def gates(report: dict) -> list:
    speedup = report["throughput"]["speedup"]
    if speedup < SPEEDUP_GATE:
        return [f"micro-batched speedup {speedup:.2f}x "
                f"< {SPEEDUP_GATE}x gate"]
    return []


if __name__ == "__main__":
    raise SystemExit(harness.main(sys.modules[__name__]))
