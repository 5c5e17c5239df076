"""The service workload: mixed open-loop traffic against ``repro serve``.

The benchmark starts ``python -m repro serve`` as a subprocess on
loopback (WAL on, ``--wal-sync batch``) and is its only client: one
process, two pipelined NDJSON connections, and a Poisson arrival
schedule drawn from the seed at a fixed offered rate.  Each request is
timed from its scheduled send time, so a stall also delays the requests
queued behind it.  Per-layer numbers are before/after deltas of the
server's own ``metrics`` and ``stats`` ops; no tracing is added.

Answers are checked three ways: every response must be ``ok`` and well
formed, every write must apply exactly one edge, and the final
all-pairs ``fsim`` answer must equal ``fsim_matrix`` run here on a
replica of the graph with the acknowledged writes applied in the order
the server versioned them.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    OUT_DIR,
    ROOT,
    SRC,
    BenchError,
    percentile,
    setup_time,
    steady_time,
    tail,
    process_peak_rss_mb,
    same_answer,
)

READS = ("topk", "fsim")
GRAPH = "g"
COLD = "cold"


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def build_schedule(spec: dict, graph, seed: int, seconds: float) -> List[dict]:
    """The request schedule over ``seconds``: Poisson arrivals at
    ``offered_rps`` conditioned on their count (sorted uniform times), so
    every seed offers the same load; the exact op ``mix`` in a seeded
    order; topk query nodes Zipf-skewed; writes alternating between
    adding a new edge and removing an original one, each edge touched at
    most once so that every write applies."""
    rng = random.Random(seed * 7919 + 17)
    nodes = [str(node) for node in graph.nodes()]
    hot = nodes[:]
    rng.shuffle(hot)
    weights = [1.0 / (rank + 1) ** spec["zipf_exponent"]
               for rank in range(len(hot))]
    edges = [(str(s), str(t)) for s, t in graph.edges()]
    rng.shuffle(edges)
    present = set(edges)
    touched = set()
    count = round(spec["offered_rps"] * seconds)
    arrivals = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    kinds = [op for op, share in spec["mix"].items()
             for _ in range(round(share * count))]
    kinds += ["topk"] * (count - len(kinds))
    rng.shuffle(kinds)
    schedule = []
    writes = 0
    for at, op in zip(arrivals, kinds[:count]):
        index = len(schedule)
        request = {"id": index, "op": op}
        if op == "topk":
            request.update(graph1=GRAPH, query=rng.choices(hot, weights)[0],
                           k=spec["topk_k"])
        elif op == "fsim":
            request.update(graph1=GRAPH, top=spec["fsim_top"])
        else:
            if writes % 2 == 0:
                while True:
                    edge = (rng.choice(nodes), rng.choice(nodes))
                    if edge[0] != edge[1] and edge not in present \
                            and edge not in touched:
                        break
                kind = "add_edge"
            else:
                edge = edges.pop()
                while edge in touched:
                    edge = edges.pop()
                kind = "remove_edge"
            touched.add(edge)
            writes += 1
            request.update(graph=GRAPH, ops=[[kind, edge[0], edge[1]]],
                           rid=f"perfbench-{seed}-{index}")
        schedule.append({"at": at, "request": request})
    return schedule


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess with its log and WAL directory."""

    def __init__(self, work, graph_path, config: dict, wal_sync: str,
                 index: int):
        self.wal_dir = work / f"wal-{index}"
        self.log_path = work / f"server-{index}.log"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--graph", f"{GRAPH}={graph_path}", "--port", "0",
            "--variant", config["variant"], "--theta", str(config["theta"]),
            "--label-function", config["label_function"],
            "--backend", "numpy",
            "--wal-dir", str(self.wal_dir), "--wal-sync", wal_sync,
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8")
            found = re.search(r"# ready on [^:\s]+:(\d+)", text)
            if found:
                self.port = int(found.group(1))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(f"server did not start; log:\n{text[-2000:]}")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for a clean shutdown (the server compacts its WAL), then
        make sure the process is gone."""
        if self.proc.poll() is None:
            try:
                asyncio.run(Connection(self.port).call_once({"op": "shutdown"}))
            except (OSError, asyncio.TimeoutError, ValueError):
                pass
        self.kill(timeout=30)

    def kill(self, timeout: float = 0.0) -> None:
        """Wait up to ``timeout`` seconds for the process to exit, then
        kill it; always reaps it and closes its log."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self._log.close()


class Connection:
    """A pipelined NDJSON connection: many requests in flight, responses
    matched to requests by id."""

    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None
        self.pending: Dict[object, asyncio.Future] = {}
        self._pump: Optional[asyncio.Task] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=1 << 26)
        self._pump = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                received = time.perf_counter()
                response = json.loads(line)
                future = self.pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((received, response))
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    def send(self, request: dict) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.pending[request["id"]] = future
        self.writer.write(json.dumps(request, separators=(",", ":")).encode()
                          + b"\n")
        return future

    async def call(self, request: dict, timeout: float = 120.0) -> dict:
        _, response = await asyncio.wait_for(self.send(request), timeout)
        return response

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        if self._pump is not None:
            await asyncio.gather(self._pump, return_exceptions=True)

    async def call_once(self, request: dict, timeout: float = 120.0) -> dict:
        """Open, send one request, close (for use outside a loop)."""
        await self.open()
        try:
            return await self.call(dict(request, id=0), timeout)
        finally:
            await self.close()


async def cold_reads(port: int, graph_path, count: int,
                     expected: Optional[dict]) -> Tuple[List[float], int]:
    """``count`` cold all-pairs ``fsim`` reads, each on a fresh
    registration of the input graph (no plan or result is cached for
    it).  Returns their latencies and how many failed or answered
    differently from ``expected``, the first read of the served graph."""
    conn = Connection(port)
    await conn.open()
    times: List[float] = []
    failed = 0
    try:
        for index in range(count):
            registered = await conn.call({
                "id": f"r{index}", "op": "register", "name": COLD,
                "path": str(graph_path), "replace": True,
            })
            start = time.perf_counter()
            response = await conn.call(
                {"id": f"c{index}", "op": "fsim", "graph1": COLD})
            times.append(time.perf_counter() - start)
            failed += not (registered.get("ok") and response.get("ok")
                           and expected is not None
                           and response["result"]["scores"]
                           == expected["scores"])
    finally:
        await conn.close()
    return times, failed


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def check_response(request: dict, response: dict) -> bool:
    """Shape checks for one traffic response."""
    if not response.get("ok"):
        return False
    result = response["result"]
    op = request["op"]
    if op == "mutate":
        return result.get("applied") == 1 and isinstance(
            result.get("version"), int)
    rows = result["partners"] if op == "topk" else result["scores"]
    values = [row[-1] for row in rows]
    limit = request["k"] if op == "topk" else request["top"]
    return (0 < len(rows) <= limit
            and all(0.0 <= v <= 1.0 for v in values)
            and values == sorted(values, reverse=True))


async def drive(port: int, schedule: List[dict], connections: int,
                drain_timeout: float) -> List[dict]:
    """Send the schedule open-loop; returns one outcome per request."""
    conns = [Connection(port) for _ in range(connections)]
    for conn in conns:
        await conn.open()
    outcomes = []
    waiting = []
    start = time.perf_counter() + 0.05
    try:
        for index, item in enumerate(schedule):
            due = start + item["at"]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            future = conns[index % connections].send(item["request"])
            outcomes.append({"request": item["request"], "due": due,
                             "sent": sent})
            waiting.append(future)
        deadline = time.perf_counter() + drain_timeout
        for outcome, future in zip(outcomes, waiting):
            try:
                received, response = await asyncio.wait_for(
                    future, max(deadline - time.perf_counter(), 0.001))
            except (asyncio.TimeoutError, ConnectionError):
                outcome["response"] = None
                continue
            outcome["received"] = received
            outcome["response"] = response
    finally:
        for conn in conns:
            await conn.close()
    return outcomes


# ----------------------------------------------------------------------
# the server's own counters
# ----------------------------------------------------------------------
def exposition_samples(text: str) -> List[Tuple[str, dict, float]]:
    """Every ``(sample_name, labels, value)`` of a scrape, through the
    program's strict parser (a format change fails the run)."""
    from repro.obs.metrics import parse_exposition

    return [sample for family in parse_exposition(text).values()
            for sample in family["samples"]]


def histogram(samples, name: str, **match) -> dict:
    """Bucket counts, sum and count of one histogram family, summed over
    every series whose labels include ``match``."""
    buckets: Dict[float, float] = defaultdict(float)
    total = {"sum": 0.0, "count": 0.0}
    for sample, labels, value in samples:
        if any(labels.get(k) != v for k, v in match.items()):
            continue
        if sample == name + "_bucket":
            buckets[float(labels["le"])] += value
        elif sample == name + "_sum":
            total["sum"] += value
        elif sample == name + "_count":
            total["count"] += value
    return {"buckets": dict(buckets), **total}


def histogram_delta(before: dict, after: dict) -> dict:
    return {
        "buckets": {le: after["buckets"][le] - before["buckets"].get(le, 0.0)
                    for le in after["buckets"]},
        "sum": after["sum"] - before["sum"],
        "count": after["count"] - before["count"],
    }


def histogram_quantile(hist: dict, q: float) -> float:
    """The ``q``-quantile of a delta histogram, interpolated linearly
    inside the bucket that crosses it (0 when it is empty)."""
    if hist["count"] <= 0:
        return 0.0
    rank = q * hist["count"]
    lower = 0.0
    previous = 0.0
    for le in sorted(hist["buckets"]):
        cumulative = hist["buckets"][le]
        if cumulative >= rank:
            if le == float("inf"):
                return lower
            inside = cumulative - previous
            fraction = (rank - previous) / inside if inside else 1.0
            return lower + (le - lower) * fraction
        lower, previous = le, cumulative
    return lower


def histogram_mean(hist: dict) -> float:
    return hist["sum"] / hist["count"] if hist["count"] else 0.0


async def snapshot_counters(port: int) -> dict:
    conn = Connection(port)
    await conn.open()
    try:
        metrics = await conn.call({"id": "m", "op": "metrics"})
        stats = await conn.call({"id": "s", "op": "stats"})
    finally:
        await conn.close()
    return {"samples": exposition_samples(metrics["result"]["exposition"]),
            "stats": stats["result"]}


def _pair_totals(stats: dict) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for entry in stats.get("pairs", {}).values():
        out["hits"] += entry.get("hits", 0)
        out["misses"] += entry.get("misses", 0)
        for key, value in entry.get("session_stats", {}).items():
            if isinstance(value, (int, float)):
                out[key] += value
    return out


def layer_metrics(before: dict, after: dict) -> dict:
    def hist(name, **match):
        return histogram_delta(histogram(before["samples"], name, **match),
                               histogram(after["samples"], name, **match))

    queue = hist("repro_sched_queue_wait_seconds")
    lock = hist("repro_sched_lock_wait_seconds")
    execute = hist("repro_sched_execute_seconds")
    batch = hist("repro_sched_batch_size")
    fsync = hist("repro_phase_seconds", phase="wal.fsync")
    compile_ = hist("repro_phase_seconds", phase="engine.compile")
    iterate = hist("repro_phase_seconds", phase="engine.iterate")
    requests = [hist("repro_request_seconds", op=op)
                for op in ("topk", "fsim", "mutate")]
    request_sum = sum(h["sum"] for h in requests)
    request_count = sum(h["count"] for h in requests)
    pairs_before = _pair_totals(before["stats"])
    pairs_after = _pair_totals(after["stats"])
    pairs = {key: pairs_after[key] - pairs_before.get(key, 0.0)
             for key in pairs_after}
    lookups = pairs.get("hits", 0.0) + pairs.get("misses", 0.0)
    sched = (before["stats"]["scheduler"], after["stats"]["scheduler"])
    wal = (before["stats"].get("wal", {}), after["stats"].get("wal", {}))
    overhead = (request_sum / request_count if request_count else 0.0) \
        - histogram_mean(queue) - histogram_mean(lock) - histogram_mean(execute)
    return {
        "sched.queue_wait_ms_p50": histogram_quantile(queue, 0.50) * 1e3,
        "sched.queue_wait_ms_p95": histogram_quantile(queue, 0.95) * 1e3,
        "sched.lock_wait_ms_p50": histogram_quantile(lock, 0.50) * 1e3,
        "sched.execute_ms_p50": histogram_quantile(execute, 0.50) * 1e3,
        "sched.batch_size_mean": histogram_mean(batch),
        "sched.rejected": sched[1]["rejected"] - sched[0]["rejected"],
        "wal.fsync_ms_p50": histogram_quantile(fsync, 0.50) * 1e3,
        "wal.syncs": wal[1].get("syncs", 0) - wal[0].get("syncs", 0),
        "server.phase_compile_s": compile_["sum"],
        "server.phase_iterate_s": iterate["sum"],
        "server.overhead_ms_mean": overhead * 1e3,
        "store.cache_hit_ratio": pairs.get("hits", 0.0) / lookups
        if lookups else 0.0,
        "streaming.incremental_runs": pairs.get("incremental_runs", 0.0),
        "streaming.compiled_patches": pairs.get("compiled_patches", 0.0),
        "streaming.full_recompiles": pairs.get("full_recompiles", 0.0),
    }


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def replica_scores(graph_path, acked: List[Tuple[int, list]], config: dict):
    """``fsim_matrix`` on a client-side replica with the acknowledged
    writes applied in server version order."""
    from repro import fsim_matrix
    from repro.graph.io import load_graph
    from perfbench.library import build_config

    replica = load_graph(graph_path, name=GRAPH)
    for _, (kind, source, target) in sorted(acked):
        getattr(replica, kind)(source, target)
    return fsim_matrix(replica, replica, config=build_config(config)).scores


def run(spec: dict, seed: int, seconds: float, trace: bool, log,
        limit_ms: float) -> dict:
    from repro.graph.io import save_graph
    from perfbench.library import build_graph

    work = OUT_DIR / "work" / f"serve-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks: Dict[str, bool] = {}
    attempted = failed = 0
    setup_times: List[float] = []
    server = None
    try:
        # set-up: inputs, server start, first answered read
        for index in range(spec["server_starts"]):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            graph = build_graph(spec["graph"], seed)
            graph_path = work / "graph.txt"
            save_graph(graph, graph_path)
            server = Server(work, graph_path, spec["config"],
                            spec["wal_sync"], index)
            port = server.wait_ready()
            first = asyncio.run(Connection(port).call_once(
                {"op": "fsim", "graph1": GRAPH}))
            setup_times.append(time.perf_counter() - start)
            attempted += 1
            failed += not first.get("ok")

        # cold all-pairs reads, half before and half after the traffic:
        # the input graph registered afresh each time
        cold_times, cold_failed = asyncio.run(cold_reads(
            port, graph_path, spec["cold_queries"] // 2, first.get("result")))
        log(f"# input: {graph.num_nodes} nodes, {graph.num_edges} edges; "
            f"set-up {setup_time(setup_times):.3f}s x{len(setup_times)}")

        schedule = build_schedule(spec, graph, seed, seconds)
        before = asyncio.run(snapshot_counters(port)) if trace else None
        outcomes = asyncio.run(drive(port, schedule, spec["connections"],
                                     drain_timeout=60.0))
        after = asyncio.run(snapshot_counters(port)) if trace else None
        peak_rss = server.peak_rss_mb()

        reads: List[float] = []
        writes: List[float] = []
        read_ops: List[str] = []
        lags: List[float] = []
        good = 0
        acked = []
        first_due = min(outcome["due"] for outcome in outcomes)
        last_received = max(outcome.get("received", first_due)
                            for outcome in outcomes)
        for outcome in outcomes:
            request = outcome["request"]
            response = outcome["response"]
            attempted += 1
            lags.append(outcome["sent"] - outcome["due"])
            if response is None or not check_response(request, response):
                failed += 1
                continue
            latency = outcome["received"] - outcome["due"]
            if request["op"] in READS:
                reads.append(latency)
                read_ops.append(request["op"])
            else:
                writes.append(latency)
            good += latency * 1e3 <= limit_ms
            if request["op"] == "mutate":
                acked.append((response["result"]["version"],
                              request["ops"][0]))
        checks["responses_ok"] = failed == 0

        more_times, more_failed = asyncio.run(cold_reads(
            port, graph_path, spec["cold_queries"] - len(cold_times),
            first.get("result")))
        cold_times += more_times
        cold_failed += more_failed
        attempted += len(cold_times)
        failed += cold_failed
        checks["cold_reads_agree"] = cold_failed == 0

        # final state: server answer == replica answer
        response = asyncio.run(Connection(port).call_once(
            {"op": "fsim", "graph1": GRAPH}))
        attempted += 1
        problems = ["final fsim failed"] if not response.get("ok") else \
            same_answer(
                replica_scores(graph_path, acked, spec["config"]),
                {(u, v): s for u, v, s in response["result"]["scores"]},
            )
        checks["final_state_parity"] = not problems
        failed += bool(problems)
        for problem in problems:
            log(f"# MISMATCH server vs replica: {problem}")
        server.stop()
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)

    if len(reads) < 2 or not writes:
        raise BenchError(f"too little traffic: {len(reads)} reads, "
                         f"{len(writes)} writes answered")
    if len(reads) < 200:
        log(f"# read_tail_ms is not a p95: {len(reads)} reads (fewer "
            "than 200)")
    metrics = {
        "setup_s": setup_time(setup_times),
        "query_s": steady_time(cold_times),
        "peak_rss_mb": peak_rss,
        "read_p50_ms": percentile(reads, 0.50) * 1e3,
        "read_tail_ms": tail(reads) * 1e3,
        "goodput_rps": good / (last_received - first_due),
    }
    if trace:
        metrics.update(layer_metrics(before, after))
        metrics.update({
            "write_p50_ms": percentile(writes, 0.50) * 1e3,
            "write_tail_ms": tail(writes) * 1e3,
            "client.send_lag_ms_p95": percentile(lags, 0.95) * 1e3,
        })
    return {
        "metrics": metrics,
        "cold_fsim_s": cold_times,
        "read_latencies_s": reads,
        "read_ops": read_ops,
        "setup_times_s": setup_times,
        "samples": {"reads": len(reads), "writes": len(writes),
                    "requests": len(schedule), "setup_s": len(setup_times),
                    "p95_valid": len(reads) >= 200},
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "tracer": None,
        "input": {"nodes": graph.num_nodes, "edges": graph.num_edges,
                  "offered_rps": spec["offered_rps"],
                  "latency_limit_ms": limit_ms},
    }
