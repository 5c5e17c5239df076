"""The asyncio front end of the FSim query service.

Wire protocol (stdlib only): newline-delimited JSON over TCP.  Each
request is one JSON object per line carrying an ``op``, an optional
``id`` (echoed back) and op-specific fields; each response is one JSON
line ``{"id": ..., "ok": true, "result": {...}}`` or ``{"id": ...,
"ok": false, "error": "...", "overloaded": bool}``.  Requests on one
connection may be pipelined; responses carry the request ``id`` and can
arrive out of order (the blocking :class:`~repro.service.client.ServiceClient`
keeps one request in flight, concurrent clients use one connection
each).

Query/mutation ops (``fsim``, ``topk``, ``matrix``, ``mutate``) go
through the :class:`~repro.service.scheduler.MicroBatchScheduler`;
registry and observability ops (``register``, ``graphs``, ``stats``,
``snapshot_save``, ``snapshot_restore``, ``ping``, ``shutdown``) are
served inline under the same per-graph locks.

Floats survive the JSON round trip exactly (CPython serializes by
``repr`` and parses back to the same IEEE-754 double), so a client-side
score comparison against a direct library call can assert *bitwise*
equality -- the parity tests and ``benchmarks/bench_service.py`` do.

:class:`ServerThread` runs the same server on a background thread with
its own event loop -- the in-process harness used by tests, benchmarks
and the CLI's ``--serve-and-run`` style workflows.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import warnings
from typing import List, Optional

from repro.obs import log as obs_log
from repro.obs import federate, metrics, profiling, tracing
from repro.obs.audit import ShadowAuditor
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLOEngine, default_objectives

logger = obs_log.get_logger("service")

from repro.core.engine import FSimResult
from repro.core.topk import TopKResult
from repro.exceptions import (
    ReplicaLaggingError,
    ReplicaReadOnlyError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    SnapshotError,
    WalCompactedError,
)
from repro.service.replication import ReplicationHub, ReplicationTail
from repro.service.scheduler import BATCHED_OPS, MicroBatchScheduler
from repro.service.store import GraphStore, apply_config_params
from repro.service.wal import FaultInjector


# ----------------------------------------------------------------------
# wire serialization
# ----------------------------------------------------------------------
def fsim_result_to_wire(result: FSimResult, top: Optional[int] = None) -> dict:
    """The JSON form of an :class:`FSimResult`.

    ``scores`` is a list of ``[u, v, score]`` rows in the engine's
    candidate order; ``top`` truncates to the best ``top`` rows (sorted
    by descending score, ``repr`` tie-break, like the CLI).
    """
    rows = [[u, v, value] for (u, v), value in result.scores.items()]
    if top is not None:
        rows.sort(key=lambda row: (-row[2], repr((row[0], row[1]))))
        rows = rows[:int(top)]
    return {
        "scores": rows,
        "iterations": result.iterations,
        "converged": result.converged,
        "num_candidates": result.num_candidates,
    }


def topk_result_to_wire(result: TopKResult) -> dict:
    return {
        "query": result.query,
        "partners": [[node, value] for node, value in result.partners],
        "iterations": result.iterations,
        "certified": result.certified,
    }


class FSimServer:
    """One service instance: store + scheduler + TCP front end."""

    def __init__(
        self,
        store: Optional[GraphStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        window: float = 0.005,
        max_batch: int = 32,
        max_pending: int = 1024,
        on_stop=None,
        drain_timeout: float = 30.0,
        compact_interval: float = 1.0,
        replicate_from: Optional[str] = None,
        slow_query_ms: Optional[float] = None,
        audit_sampling: float = 0.0,
        audit_capacity: int = 64,
        flight_dir: Optional[str] = None,
        slo_interval: float = 1.0,
        slo_window_scale: float = 1.0,
        lag_slo_records: float = 64.0,
        slo_objectives=None,
    ):
        #: Callback run during :meth:`stop` after draining, *before*
        #: the store is closed -- the CLI writes shutdown snapshots
        #: here (saving after close would find an empty registry).
        self._on_stop = on_stop
        self.store = store or GraphStore()
        self.scheduler = MicroBatchScheduler(
            self.store, window=window, max_batch=max_batch,
            max_pending=max_pending,
        )
        self.host = host
        self.port = int(port)
        self.drain_timeout = max(float(drain_timeout), 0.0)
        self.compact_interval = max(float(compact_interval), 0.01)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        self._stopped_event: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._compact_task: Optional[asyncio.Task] = None
        self.connections = 0
        self.requests_served = 0
        #: Per-server trace ring buffers (NOT process-global: a primary
        #: and its replica embedded in one test process must keep
        #: separate slow-query thresholds and ``trace`` op views).
        self.recorder = tracing.TraceRecorder(slow_ms=slow_query_ms)
        self.slow_query_ms = slow_query_ms
        # Inline autocompaction is only safe single-threaded: the
        # server compacts from its own background task instead, under
        # the exclusive locks of every graph (a snapshot of a graph a
        # scheduler worker is mutating would tear).
        if self.store.wal is not None:
            self.store.wal_autocompact = False
        # -- replication ---------------------------------------------
        #: Primary role: the hub fans WAL records out to ``replicate``
        #: streams (inert until a follower subscribes).
        self.replication = ReplicationHub(self.store)
        #: Replica role: tail the primary at ``replicate_from``.  The
        #: follower keeps no WAL of its own -- the primary's log *is*
        #: the log, and a follower restart re-bootstraps warm.
        self.tail: Optional[ReplicationTail] = None
        self._tail_task: Optional[asyncio.Task] = None
        #: Live ``replicate`` stream tasks: infinite by design, so
        #: connection teardown and stop() cancel them explicitly
        #: (normal request tasks are awaited, never cancelled).
        self._replication_streams: set = set()
        if replicate_from:
            if self.store.wal is not None:
                raise ServiceError(
                    "a replica tails its primary's WAL and must not "
                    "keep its own (--replicate-from excludes --wal-dir)"
                )
            self.tail = ReplicationTail(self, replicate_from)
            self.store.replica_primary = replicate_from
        # -- second-story observability ------------------------------
        #: Forensic bundle spool.  Always constructed (ring buffers are
        #: cheap); bundles only reach disk when ``flight_dir`` is set.
        self.flight = FlightRecorder(
            flight_dir,
            context_provider=self._flight_context,
            trace_lookup=self.recorder.get,
        )
        self.slo_interval = max(float(slo_interval), 0.01)
        self.slo = SLOEngine(
            slo_objectives
            or default_objectives(lag_bound=float(lag_slo_records)),
            window_scale=slo_window_scale,
        )
        self._slo_task: Optional[asyncio.Task] = None
        #: Shadow auditor: built only when sampling is on; the store
        #: owns its lifetime once attached (``store.close`` joins the
        #: audit thread).
        self.auditor: Optional[ShadowAuditor] = None
        if float(audit_sampling) > 0.0:
            self.auditor = ShadowAuditor(
                self.store,
                float(audit_sampling),
                capacity=int(audit_capacity),
                flight=self.flight,
                fault=FaultInjector.from_env(),
            )
            self.store.auditor = self.auditor
        # Admission-control rejections are exactly the moments worth a
        # forensic bundle; rate-limited inside the recorder.
        self.scheduler.on_overload = self._on_overload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._stopped_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=1 << 22,  # 4 MiB request lines (large inline graphs)
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.store.wal is not None:
            self._compact_task = asyncio.ensure_future(self._compact_loop())
            self.replication.attach(asyncio.get_running_loop())
        if self.tail is not None:
            self._tail_task = asyncio.ensure_future(self.tail.run())
        self.flight.instance = f"{self.host}:{self.port}"
        self.flight.attach()
        self._slo_task = asyncio.ensure_future(self._slo_loop())
        if self.auditor is not None:
            self.auditor.start()

    async def _slo_loop(self) -> None:
        """Periodic SLO evaluation + metrics ring snapshots.

        Burn-rate math happens off the request path on purpose: an
        evaluation walks every objective's sample windows, and doing
        that per ``stats`` call would make scraping the service change
        its own alert arithmetic.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.slo_interval)
            try:
                transitions = await loop.run_in_executor(
                    None, self.slo.evaluate
                )
                self.flight.snapshot_metrics()
                for transition in transitions:
                    if transition.get("transition") != "firing":
                        continue
                    await loop.run_in_executor(
                        None, self.flight.trigger, "slo_alert",
                        {"alert": dict(transition)},
                    )
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - observer only
                logger.exception("SLO evaluation failed; will retry")

    async def _compact_loop(self) -> None:
        """Periodic WAL compaction: snapshot every graph, rotate the log.

        Runs under the exclusive locks of *all* graphs so no scheduler
        worker thread is mid-mutation while a graph pickles; the locks
        are only held for the (rare) compaction itself, not the check.
        """
        while True:
            await asyncio.sleep(self.compact_interval)
            if not self.store.wal_needs_compaction():
                continue
            try:
                async with self.scheduler.exclusive(self.store.graph_names()):
                    report = await asyncio.get_running_loop().run_in_executor(
                        None, self.store.compact
                    )
                logger.info("WAL compacted: %s", report)
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - disk trouble mid-compact
                logger.exception("WAL compaction failed; will retry")

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def wait_stopped(self) -> None:
        """Resolve once a begun :meth:`stop` has fully completed."""
        if self._stopped_event is not None:
            await self._stopped_event.wait()

    async def stop(self) -> None:
        """Stop accepting, drain in-flight batches, release the store."""
        if self._stopping:
            await self.wait_stopped()
            return
        self._stopping = True
        if self._slo_task is not None:
            self._slo_task.cancel()
            try:
                await self._slo_task
            except (asyncio.CancelledError, Exception):
                pass
            self._slo_task = None
        if self._tail_task is not None:
            self.tail.stop()
            self._tail_task.cancel()
            try:
                await self._tail_task
            except (asyncio.CancelledError, Exception):
                pass
            self._tail_task = None
        for task in list(self._replication_streams):
            task.cancel()
        if self._compact_task is not None:
            self._compact_task.cancel()
            try:
                await self._compact_task
            except (asyncio.CancelledError, Exception):
                pass
            self._compact_task = None
        if self._server is not None:
            self._server.close()  # stop accepting; do NOT wait_closed yet
        drained = await self.scheduler.quiesce(timeout=self.drain_timeout)
        if not drained:  # pragma: no cover - pathological batch length
            aborted = self.scheduler.abort_pending(
                "server shutting down; request aborted before execution"
            )
            logger.warning(
                "shutdown drain timed out after %.1fs; aborted %d queued "
                "request(s) (already-executing batches finish on the "
                "worker pool)", self.drain_timeout, aborted,
            )
            warnings.warn(
                f"service shutdown proceeding with undrained batches "
                f"({aborted} queued request(s) aborted)",
                RuntimeWarning,
            )
        # Idle keep-alive connections sit in readline() forever; cancel
        # them so the loop can wind down without orphaned tasks.  This
        # must happen BEFORE Server.wait_closed(): since Python 3.12.1
        # wait_closed blocks until every connection handler finishes,
        # so waiting first would deadlock on any idle client.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        try:
            if self._on_stop is not None:
                await asyncio.get_running_loop().run_in_executor(
                    None, self._on_stop
                )
        finally:
            self.replication.detach()
            self.store.close()  # joins the audit thread too
            self.flight.close()
            if self._stopped_event is not None:
                self._stopped_event.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        current = asyncio.current_task()
        if current is not None:
            self._conn_tasks.add(current)
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._respond(writer, write_lock, line)
                )
                tasks.append(task)
                tasks = [t for t in tasks if not t.done()]
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown with the connection still open
        finally:
            if current is not None:
                self._conn_tasks.discard(current)
            # Replicate streams pump until cancelled; awaiting one like
            # a normal request task would wedge connection teardown.
            for task in tasks:
                if task in self._replication_streams:
                    task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(self, writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock, line: bytes) -> None:
        request_id = None
        op = None
        trace: Optional[tracing.TraceHandle] = None
        start_wall = time.time()
        start = time.perf_counter()
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServiceError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op")
            if op == "replicate":
                # The one op that takes over its connection: after the
                # single header response the socket becomes a one-way
                # frame stream (see repro.service.replication).
                await self._serve_replicate(request, writer, write_lock)
                return
            trace_id = request.get("trace")
            if trace_id is not None:
                trace = self.recorder.begin(str(trace_id), str(op))
            result = await self._dispatch(request, trace)
            response = {"id": request_id, "ok": True, "result": result}
        except ServiceOverloadedError as exc:
            response = {"id": request_id, "ok": False,
                        "error": str(exc), "overloaded": True}
        except ReplicaLaggingError as exc:
            response = {"id": request_id, "ok": False, "error": str(exc),
                        "lagging": True, "lag_records": exc.lag_records,
                        "lag_seconds": exc.lag_seconds}
        except ReplicaReadOnlyError as exc:
            response = {"id": request_id, "ok": False, "error": str(exc),
                        "readonly": True, "primary": exc.primary}
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            detail = str(exc) or type(exc).__name__
            response = {"id": request_id, "ok": False, "error": detail}
        except Exception as exc:  # pragma: no cover - defensive
            response = {"id": request_id, "ok": False,
                        "error": f"internal error: {exc!r}"}
            # An unhandled exception escaping dispatch is exactly the
            # state worth a forensic bundle; never let the dump fail
            # the response.
            asyncio.get_running_loop().run_in_executor(
                None, self.flight.trigger, "server_error",
                {"op": str(op), "error": repr(exc)},
            )
        duration = time.perf_counter() - start
        if op is not None and metrics.REGISTRY.enabled:
            metrics.counter(
                "repro_requests_total",
                "Requests received, by op.", op=str(op),
            ).inc()
            metrics.histogram(
                "repro_request_seconds",
                "Server-side request latency (parse to response built).",
                op=str(op),
            ).observe(duration)
            if not response.get("ok"):
                metrics.counter(
                    "repro_request_errors_total",
                    "Requests answered ok=false, by op "
                    "(availability SLO numerator).", op=str(op),
                ).inc()
        if trace is not None:
            trace.add_span("server.dispatch", start_wall, duration,
                           op=str(op))
            self.recorder.finish(
                trace, "ok" if response.get("ok") else "error"
            )
        payload = json.dumps(response, separators=(",", ":")).encode()
        try:
            async with write_lock:
                writer.write(payload + b"\n")
                await writer.drain()
            self.requests_served += 1
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request: dict,
                        trace: Optional[tracing.TraceHandle] = None):
        op = request.get("op")
        if op == "ping":
            return {"pong": True}
        if op == "graphs":
            return {"graphs": self.store.graph_names()}
        if op == "metrics":
            # Prometheus text exposition -- scrape with
            # ``ServiceClient.metrics()`` or ``repro stats``.
            return {"enabled": metrics.REGISTRY.enabled,
                    "exposition": metrics.REGISTRY.exposition()}
        if op == "trace":
            return self._trace_query(request)
        if op == "stats":
            return self._stats_report()
        if op == "cluster_metrics":
            return await self._cluster_metrics(request)
        if op == "shutdown":
            asyncio.get_running_loop().call_soon(
                asyncio.ensure_future, self._stop_soon()
            )
            return {"stopping": True}
        if op == "register":
            return await self._register(request)
        if op == "snapshot_save":
            return await self._snapshot_save(request)
        if op == "snapshot_restore":
            return await self._snapshot_restore(request, trace)
        if op == "replica_bootstrap":
            return await self._replica_bootstrap()
        if op in BATCHED_OPS:
            if op == "mutate" and self.store.replica_primary is not None:
                # Fail fast with the redirect target instead of letting
                # the store's write guard fire deep in a worker thread.
                raise ReplicaReadOnlyError(self.store.replica_primary)
            if self.tail is not None:
                # Bounded-staleness contract: reads carrying lag bounds
                # are rejected (typed) when the replica cannot meet
                # them; the client fails over to the primary.  A
                # primary is never stale, so the bounds are inert there.
                self.tail.check_staleness(
                    request.get("max_lag"), request.get("max_lag_seconds")
                )
            normalized = self._normalize(op, request)
            outcome = await self.scheduler.submit(op, normalized,
                                                  trace=trace)
            return self._wire(op, request, outcome)
        raise ServiceError(f"unknown op {op!r}")

    def _role(self) -> str:
        if self.tail is not None:
            return "replica"
        if self.store.wal is not None:
            return "primary"
        return "standalone"

    def _stats_report(self) -> dict:
        """The full ``stats`` payload (also the federation row source)."""
        stats = self.store.stats()  # includes "audit" when sampling is on
        stats["scheduler"] = dict(self.scheduler.stats)
        stats["server"] = {
            "connections": self.connections,
            "requests_served": self.requests_served,
            "window": self.scheduler.window,
            "max_batch": self.scheduler.max_batch,
            "max_pending": self.scheduler.max_pending,
        }
        if self.tail is not None:
            stats["replication"] = {"role": "replica",
                                    "tail": self.tail.stats()}
        elif self.store.wal is not None:
            stats["replication"] = dict(self.replication.stats(),
                                        role="primary")
        stats["metrics"] = metrics.REGISTRY.report()
        stats["tracing"] = self.recorder.stats()
        stats["alerts"] = self.slo.report()
        stats["flight"] = self.flight.stats()
        stats["health"] = self._health()
        return stats

    def _flight_context(self) -> dict:
        """Point-in-time service context stamped into flight bundles."""
        context: dict = {
            "instance": f"{self.host}:{self.port}",
            "role": self._role(),
            "config": str(self.store.default_config),
            "scheduler": dict(self.scheduler.stats),
            "requests_served": self.requests_served,
        }
        store = self.store
        with store._lock:
            context["graphs"] = {
                name: {"version": registered.graph.version,
                       "wal_seq": registered.wal_seq}
                for name, registered in store._graphs.items()
            }
        if store.wal is not None:
            context["wal_last_seq"] = store.wal.last_seq
        if self.tail is not None:
            context["replication"] = self.tail.stats()
        elif store.wal is not None:
            context["replication"] = self.replication.stats()
        return context

    def _on_overload(self, pending: int) -> None:
        """Scheduler admission-control hook (worker/event-loop threads)."""
        self.flight.trigger(
            "scheduler_overload",
            detail={"pending": int(pending),
                    "max_pending": self.scheduler.max_pending},
        )

    async def _cluster_metrics(self, request: dict) -> dict:
        """The ``cluster_metrics`` op: one merged fleet view.

        The primary scrapes itself inline and each advertised follower
        over a short-lived blocking client on the executor, then merges
        the expositions through :mod:`repro.obs.federate`.  Followers
        that cannot be reached come back as ``down`` rows instead of
        failing the whole view.
        """
        instance = f"{self.host}:{self.port}"
        rows: List[dict] = [{
            "instance": instance,
            "role": self._role(),
            "ok": True,
            "exposition": metrics.REGISTRY.exposition(),
            "summary": federate.instance_summary(self._stats_report()),
        }]
        targets = [str(address) for address in request.get("replicas", [])]
        for address in self.replication.advertised():
            if address not in targets:
                targets.append(address)
        loop = asyncio.get_running_loop()
        scraped = await asyncio.gather(*[
            loop.run_in_executor(None, self._scrape_instance, address)
            for address in targets
            if address != instance
        ])
        rows.extend(scraped)
        merged = federate.merge_scrapes(rows)
        return {
            "instances": [
                {key: value for key, value in row.items()
                 if key != "exposition"}
                for row in rows
            ],
            "exposition": merged["exposition"],
            "down": merged["down"],
        }

    def _scrape_instance(self, address: str) -> dict:
        """Blocking scrape of one peer (metrics + stats summary)."""
        from repro.service.client import ServiceClient

        row: dict = {"instance": address, "role": "replica"}
        host, _, port = address.rpartition(":")
        try:
            client = ServiceClient(host=host or "127.0.0.1",
                                   port=int(port), timeout=5.0)
            try:
                row["exposition"] = client.metrics().get("exposition", "")
                summary = federate.instance_summary(client.stats())
                row["summary"] = summary
                row["role"] = summary.get("role", "replica")
                row["ok"] = True
            finally:
                client.close()
        except Exception as exc:
            row["ok"] = False
            row["error"] = str(exc) or type(exc).__name__
        return row

    def _trace_query(self, request: dict) -> dict:
        """The ``trace`` op: one merged trace by id, or the slow /
        recent ring buffer contents."""
        trace_id = request.get("trace_id")
        if trace_id is not None:
            found = self.recorder.get(str(trace_id))
            return {"found": found is not None, "trace": found}
        limit = int(request.get("limit", 32))
        if request.get("slow"):
            return {"traces": self.recorder.slow(limit),
                    "slow_ms": self.recorder.slow_ms}
        return {"traces": self.recorder.recent(limit)}

    async def _stop_soon(self) -> None:
        # Let the shutdown response flush before tearing the loop down.
        await asyncio.sleep(0.05)
        await self.stop()

    # -- batched ops ---------------------------------------------------
    def _normalize(self, op: str, request: dict) -> dict:
        if op == "fsim":
            graph1 = _require(request, "graph1")
            return {
                "graph1": graph1,
                "graph2": request.get("graph2", graph1),
                "params": request.get("params"),
            }
        if op == "topk":
            graph1 = _require(request, "graph1")
            return {
                "graph1": graph1,
                "graph2": request.get("graph2", graph1),
                "query": _require(request, "query"),
                "k": int(request.get("k", 5)),
                "params": request.get("params"),
            }
        if op == "matrix":
            return {
                "graphs1": list(_require(request, "graphs1")),
                "graph2": _require(request, "graph2"),
                "params": request.get("params"),
            }
        ops = []
        for fields in _require(request, "ops"):
            if not isinstance(fields, (list, tuple)) \
                    or not 2 <= len(fields) <= 3:
                raise ServiceError(
                    f"mutation op must be [kind, a] or [kind, a, b], "
                    f"got {fields!r}"
                )
            kind = fields[0]
            a = fields[1]
            b = fields[2] if len(fields) == 3 else None
            ops.append((kind, a, b))
        return {"graph": _require(request, "graph"), "ops": ops,
                "rid": request.get("rid")}

    def _wire(self, op: str, request: dict, outcome):
        if op == "fsim":
            return fsim_result_to_wire(outcome, request.get("top"))
        if op == "topk":
            return topk_result_to_wire(outcome)
        if op == "matrix":
            top = request.get("top")
            return {"results": [fsim_result_to_wire(result, top)
                                for result in outcome]}
        return dict(outcome)  # mutate: {"applied", "version"}

    # -- inline ops ----------------------------------------------------
    async def _register(self, request: dict) -> dict:
        name = _require(request, "name")
        replace = bool(request.get("replace", False))
        params = request.get("params")
        config = apply_config_params(self.store.default_config, params)
        graph = await asyncio.get_running_loop().run_in_executor(
            None, self._build_graph, name, request
        )
        # The WAL records *where the graph came from*, not the graph:
        # recovery re-reads the path / inline payload, so a register is
        # one small record instead of a serialized graph.
        source = {}
        if "path" in request:
            source["path"] = request["path"]
        elif "nodes" in request:
            source["nodes"] = request["nodes"]
            source["edges"] = request.get("edges", [])
        if params:
            source["params"] = params
        async with self.scheduler.exclusive([name]):
            registered = self.store.register(
                name, graph, config, replace=replace, source=source,
            )
        return {
            "name": name,
            "nodes": registered.graph.num_nodes,
            "edges": registered.graph.num_edges,
        }

    @staticmethod
    def _build_graph(name: str, request: dict):
        from repro.graph.digraph import LabeledDigraph
        from repro.graph.io import load_graph

        if "path" in request:
            return load_graph(request["path"], name=name)
        if "nodes" in request:
            graph = LabeledDigraph(name)
            for node, label in request["nodes"]:
                graph.add_node(node, label)
            for source, target in request.get("edges", []):
                graph.add_edge(source, target)
            return graph
        raise ServiceError("register needs a 'path' or inline 'nodes'")

    async def _snapshot_save(self, request: dict) -> dict:
        from repro.service.snapshot import save_snapshot

        name = _require(request, "graph")
        path = _require(request, "path")
        async with self.scheduler.exclusive([name]):
            return await asyncio.get_running_loop().run_in_executor(
                None, save_snapshot, self.store, name, path
            )

    async def _snapshot_restore(self, request: dict,
                                trace: Optional[tracing.TraceHandle] = None
                                ) -> dict:
        from repro.service.snapshot import load_snapshot, restore_snapshot

        path = _require(request, "path")
        name = request.get("name")
        loop = asyncio.get_running_loop()
        if name is None:
            # The target name lives inside the payload; read it first so
            # the restore (which may replace a live graph) runs under
            # that graph's lock like every other state change.
            payload = await loop.run_in_executor(None, load_snapshot, path)
            name = payload.get("name")

        def _restore():
            # The sink is installed inside the worker thread --
            # run_in_executor does not carry contextvars across.
            with tracing.use_sink((trace,)), \
                    profiling.phase("snapshot.restore"):
                registered = restore_snapshot(
                    self.store, path, name=name,
                    replace=bool(request.get("replace", False)),
                )
            return {"name": registered.name,
                    "nodes": registered.graph.num_nodes,
                    "edges": registered.graph.num_edges}

        async with self.scheduler.exclusive([name] if name else []):
            return await loop.run_in_executor(None, _restore)

    # -- replication ---------------------------------------------------
    async def _serve_replicate(self, request: dict,
                               writer: asyncio.StreamWriter,
                               write_lock: asyncio.Lock) -> None:
        """Serve one ``replicate`` stream (runs inside a _respond task)."""
        request_id = request.get("id")
        peer = writer.get_extra_info("peername")
        token = None
        loop = asyncio.get_running_loop()
        try:
            if self.store.wal is None:
                raise ServiceError(
                    "this server has no write-ahead log to replicate "
                    "(start it with --wal-dir)"
                )
            after = int(request.get("after", 0))
            # Subscribe FIRST, read the durable backlog second, dedup
            # the overlap by seq: no record can fall between the two.
            advertise = request.get("advertise")
            token, queue = self.replication.subscribe(
                str(peer),
                advertise=str(advertise) if advertise else None,
            )
            backlog = await loop.run_in_executor(
                None, self.replication.backlog, after
            )
        except WalCompactedError as exc:
            self.replication.unsubscribe(token)
            await self._write_response(writer, write_lock, {
                "id": request_id, "ok": False, "error": str(exc),
                "compacted": True, "first_seq": exc.first_seq,
            })
            return
        except (ReproError, ValueError, TypeError) as exc:
            self.replication.unsubscribe(token)
            await self._write_response(writer, write_lock, {
                "id": request_id, "ok": False,
                "error": str(exc) or type(exc).__name__,
            })
            return
        current = asyncio.current_task()
        if current is not None:
            self._replication_streams.add(current)
        try:
            await self._write_response(writer, write_lock, {
                "id": request_id, "ok": True,
                "result": {"stream": True,
                           "head": self.store.wal.last_seq},
            })
            await self.replication.ship(
                writer, write_lock, token, queue, after, backlog
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # follower went away; it reconnects and resumes
        except asyncio.CancelledError:
            pass  # connection teardown / server stop
        finally:
            if current is not None:
                self._replication_streams.discard(current)
            self.replication.unsubscribe(token)

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter,
                              write_lock: asyncio.Lock,
                              response: dict) -> None:
        payload = json.dumps(response, separators=(",", ":")).encode()
        async with write_lock:
            writer.write(payload + b"\n")
            await writer.drain()

    async def _replica_bootstrap(self) -> dict:
        """Warm bootstrap payloads for a follower (see replication.py).

        Runs under the exclusive locks of every registered graph, and
        reads ``last_seq`` *before* building payloads: a register of a
        brand-new graph racing this op lands at a later seq and reaches
        the follower through the stream instead of the bootstrap.
        """
        import base64
        import pickle

        from repro.service.snapshot import build_snapshot_payload

        if self.store.wal is None:
            raise ServiceError(
                "this server has no write-ahead log to replicate "
                "(start it with --wal-dir)"
            )

        def _build() -> dict:
            last_seq = self.store.wal.last_seq
            payloads = {}
            for name in self.store.graph_names():
                payload = build_snapshot_payload(self.store, name,
                                                 warm=None)
                payloads[name] = base64.b64encode(
                    pickle.dumps(payload,
                                 protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii")
            return {"graphs": payloads, "last_seq": last_seq}

        async with self.scheduler.exclusive(self.store.graph_names()):
            return await asyncio.get_running_loop().run_in_executor(
                None, _build
            )

    # -- health (structured degradation reporting) ---------------------
    def _health(self) -> dict:
        """The ``health`` stats section: one glanceable status plus the
        counters that explain it (aborted shutdown drains, per-graph
        WAL watermarks, mutation dedup, replication lag)."""
        store = self.store
        reasons: List[str] = []
        aborted = self.scheduler.stats.get("aborted_requests", 0)
        if aborted:
            reasons.append(
                f"{aborted} queued request(s) aborted at shutdown drain"
            )
        if self.tail is not None:
            if not self.tail.connected:
                reasons.append("replication stream disconnected")
            lag_records, lag_seconds = self.tail.lag()
        for name in self.slo.firing():
            reasons.append(f"SLO alert firing: {name}")
        if self._stopping:
            status = "draining"
        elif reasons:
            status = "degraded"
        else:
            status = "ok"
        with store._lock:
            graphs = {
                name: {
                    "wal_seq": registered.wal_seq,
                    "journal": len(registered.journal),
                    "mutations": registered.mutations,
                }
                for name, registered in store._graphs.items()
            }
        health = {
            "status": status,
            "reasons": reasons,
            "aborted_requests": aborted,
            "rejected_requests": self.scheduler.stats["rejected"],
            "peak_pending": self.scheduler.stats["peak_pending"],
            "slow_queries": self.recorder.slow_queries,
            "graphs": graphs,
            "deduped_mutations": store.deduped_mutations,
            "applied_rids": len(store._applied_rids),
        }
        if store.wal is not None:
            health["wal_last_seq"] = store.wal.last_seq
            health["wal_control_syncs"] = store.wal.control_syncs
        if self.tail is not None:
            health["replica"] = {
                "primary": self.tail.primary,
                "connected": self.tail.connected,
                "lag_records": lag_records,
                "lag_seconds": lag_seconds,
            }
        return health


def _require(request: dict, field: str):
    try:
        return request[field]
    except KeyError:
        raise ServiceError(f"request is missing the {field!r} field") from None


# ----------------------------------------------------------------------
# blocking entry points
# ----------------------------------------------------------------------
def run_server(server: FSimServer, on_ready=None) -> None:
    """Run ``server`` on this thread until it is stopped (CLI `serve`).

    SIGINT/SIGTERM trigger the same clean :meth:`FSimServer.stop` path
    as the ``shutdown`` op (drain batches, run the ``on_stop`` hook --
    i.e. Ctrl-C still writes shutdown snapshots).  ``on_ready(server)``
    runs once the port is bound -- the CLI prints its ready line there
    so a supervising process can parse the bound port.
    """
    import signal

    async def _main():
        await server.start()
        if on_ready is not None:
            on_ready(server)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(server.stop()),
                )
            except (NotImplementedError, ValueError):
                pass  # non-main thread / platform without handlers
        await server.serve_forever()
        await server.wait_stopped()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServerThread:
    """An in-process server on a background thread (tests, benchmarks).

    >>> harness = ServerThread(store)        # doctest: +SKIP
    >>> harness.start()                      # doctest: +SKIP
    >>> client = ServiceClient(port=harness.port)  # doctest: +SKIP
    """

    def __init__(self, store: Optional[GraphStore] = None, **server_kwargs):
        self.server = FSimServer(store, **server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self) -> "ServerThread":
        started = threading.Event()
        failure: list = []

        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except Exception as exc:  # pragma: no cover - bind failure
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-service", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        )
        try:
            future.result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=timeout)
            self._loop = None
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
