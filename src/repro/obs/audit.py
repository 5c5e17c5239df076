"""Shadow auditor: continuous bitwise-parity checking on live traffic.

Every layer of this reproduction stakes its value on bitwise parity
with the reference engine -- but tests only prove it for the states
tests reach.  The :class:`ShadowAuditor` proves it *in production*: it
samples a configurable fraction of live read requests (fsim / topk /
matrix) at the store layer, captures the served result plus the graph
version watermark it was computed at, and re-executes the request off
the hot path on an **independent configuration** -- the pure-python
reference backend, serial executor, unsharded, RAM arena -- then
asserts the score fingerprints are identical.

Soundness under concurrent mutation rests on the graphs' monotone
version counters: the watermark is checked before *and* after the
re-execution, and any movement voids the audit
(``result=skipped_version_moved``) instead of reporting a false
divergence.  The hot-path cost is one RNG draw and, for sampled
requests, one bounded-queue append; when the queue is full the audit
is dropped (counted), never blocking the serving thread.

Results land in ``repro_audit_total{result=match|diverged|
skipped_version_moved|error}`` plus a ``repro_audit_seconds``
latency histogram; a divergence emits a structured ``audit.diverged``
event carrying the originating trace id and triggers the flight
recorder with the request, both fingerprints, and the merged trace.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import log as obs_log
from repro.obs import metrics, tracing

logger = obs_log.get_logger("obs.audit")

AUDIT_COUNTER = "repro_audit_total"
AUDIT_SECONDS = "repro_audit_seconds"
AUDIT_DROPPED = "repro_audit_dropped_total"

#: Config fields forced onto the reference re-execution -- maximally
#: independent of whatever fast path served the live answer.
REFERENCE_OVERRIDES = dict(backend="python", workers=1, shards=1,
                           arena_backend="ram")


def fingerprint_scores(scores) -> str:
    """A stable digest of an FSim score mapping, exact for floats
    (``repr`` round-trips IEEE-754 doubles bitwise)."""
    items = sorted((repr(key), repr(float(value)))
                   for key, value in scores.items())
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


def fingerprint_topk(results) -> str:
    """A stable digest of an ordered top-k result batch."""
    rows = [(repr(result.query),
             [(repr(node), repr(float(score)))
              for node, score in result.partners])
            for result in results]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def _perturb_scores(scores) -> dict:
    """Flip the last mantissa bit of one score (fault injection)."""
    corrupted = dict(scores)
    for key in corrupted:
        corrupted[key] = math.nextafter(float(corrupted[key]), math.inf)
        break
    else:
        corrupted[("__corrupt__", "__corrupt__")] = 1.0
    return corrupted


def _perturb_topk(results) -> list:
    """Same, for a top-k batch (perturbs the first partner score)."""
    from repro.core.topk import TopKResult

    corrupted = list(results)
    for index, result in enumerate(corrupted):
        if result.partners:
            partners = list(result.partners)
            node, score = partners[0]
            partners[0] = (node, math.nextafter(float(score), math.inf))
            corrupted[index] = TopKResult(
                query=result.query, partners=partners,
                iterations=result.iterations, certified=result.certified,
            )
            break
    return corrupted


class ShadowAuditor:
    """Samples store reads and re-executes them on the reference path.

    ``sampling`` in [0, 1] is the fraction of read requests captured;
    0 disables capture entirely (the store tap then costs one ``is not
    None`` check -- audit-off mode).  ``fault`` is an optional
    :class:`~repro.service.wal.FaultInjector` whose ``corrupt-scores``
    fault perturbs the *live* fingerprint input, simulating a
    corrupted score slab (the E2E divergence drill).  ``throttle``
    sleeps that multiple of each audit's duration between audits so
    the worker never monopolizes the GIL against serving threads.
    """

    def __init__(self, store, sampling: float = 0.01, *,
                 capacity: int = 64, throttle: float = 0.5,
                 flight=None, fault=None,
                 registry: Optional[metrics.MetricsRegistry] = None,
                 rng: Optional[random.Random] = None,
                 time_source: Callable[[], float] = time.time):
        if not 0.0 <= float(sampling) <= 1.0:
            raise ValueError("sampling must be within [0, 1]")
        self.store = store
        self.sampling = float(sampling)
        self.capacity = int(capacity)
        self.throttle = float(throttle)
        self.flight = flight
        self.fault = fault
        self.registry = registry if registry is not None else metrics.REGISTRY
        self._rng = rng if rng is not None else random.Random()
        self._now = time_source
        self._queue: deque = deque()
        self._cv = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._busy = False
        self.counts = {"captured": 0, "executed": 0, "match": 0,
                       "diverged": 0, "skipped_version_moved": 0,
                       "error": 0, "dropped": 0}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShadowAuditor":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-audit", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every queued audit has executed (tests)."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while self._queue or self._busy:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(min(remaining, 0.1))
        return True

    # ------------------------------------------------------------------
    # hot-path capture (called by the store under its per-graph locks)
    # ------------------------------------------------------------------
    def _capture(self, item: dict) -> None:
        self.counts["captured"] += 1
        item["trace_id"] = tracing.current_trace_id()
        item["captured_at"] = self._now()
        with self._cv:
            if len(self._queue) >= self.capacity:
                self.counts["dropped"] += 1
                if self.registry.enabled:
                    self.registry.counter(
                        AUDIT_DROPPED,
                        "Sampled audits dropped at the full queue.",
                    ).inc()
                return
            self._queue.append(item)
            self._cv.notify()

    def _sampled(self) -> bool:
        return self.sampling > 0.0 and self._rng.random() < self.sampling

    def observe_fsim(self, pair, versions: Tuple[int, int], result) -> None:
        if not self._sampled():
            return
        self._capture({"op": "fsim", "pair": pair, "versions": versions,
                       "result": result})

    def observe_topk(self, pair, versions: Tuple[int, int], k: int,
                     queries: Sequence, results: List) -> None:
        if not self._sampled():
            return
        self._capture({"op": "topk", "pair": pair, "versions": versions,
                       "k": int(k), "queries": list(queries),
                       "results": list(results)})

    def observe_matrix(self, pairs: Sequence,
                       versions: Sequence[Tuple[int, int]],
                       results: List) -> None:
        if not self._sampled():
            return
        self._capture({"op": "matrix", "pairs": list(pairs),
                       "versions_list": [tuple(v) for v in versions],
                       "results": list(results)})

    # ------------------------------------------------------------------
    # background execution
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue and self._closed:
                    return
                item = self._queue.popleft()
                self._busy = True
            started = time.perf_counter()
            try:
                self._audit(item)
            except Exception:  # pragma: no cover - defensive
                self._record("error")
                logger.exception("audit execution failed")
            finally:
                duration = time.perf_counter() - started
                if self.registry.enabled:
                    self.registry.histogram(
                        AUDIT_SECONDS,
                        "Shadow audit re-execution latency.",
                    ).observe(duration)
                with self._cv:
                    self._busy = False
                    self._cv.notify_all()
            if self.throttle > 0:
                time.sleep(min(duration * self.throttle, 1.0))

    def _record(self, result: str) -> None:
        self.counts["executed"] += 1
        self.counts[result] = self.counts.get(result, 0) + 1
        if self.registry.enabled:
            self.registry.counter(
                AUDIT_COUNTER,
                "Shadow audit outcomes (bitwise parity vs the "
                "reference engine).", result=result,
            ).inc()

    @staticmethod
    def _reference_config(config):
        return config.with_options(**REFERENCE_OVERRIDES)

    def _versions_moved(self, item: dict) -> bool:
        if item["op"] == "matrix":
            return any(tuple(pair.versions()) != tuple(versions)
                       for pair, versions in zip(item["pairs"],
                                                 item["versions_list"]))
        return tuple(item["pair"].versions()) != tuple(item["versions"])

    def _corrupt_tripped(self) -> bool:
        return (self.fault is not None
                and "corrupt-scores" in self.fault.on_audit())

    def _audit(self, item: dict) -> None:
        from repro.core.api import fsim_matrix
        from repro.core.topk import TopKSearch

        if self._versions_moved(item):
            self._record("skipped_version_moved")
            return
        corrupt = self._corrupt_tripped()
        try:
            if item["op"] == "fsim":
                pair = item["pair"]
                live_scores = item["result"].scores
                if corrupt:
                    live_scores = _perturb_scores(live_scores)
                live = fingerprint_scores(live_scores)
                reference_result = fsim_matrix(
                    pair.reg1.graph, pair.reg2.graph,
                    config=self._reference_config(pair.config))
                reference = fingerprint_scores(reference_result.scores)
            elif item["op"] == "topk":
                pair = item["pair"]
                live_results = item["results"]
                if corrupt:
                    live_results = _perturb_topk(live_results)
                live = fingerprint_topk(live_results)
                reference_results = TopKSearch(
                    pair.reg1.graph, pair.reg2.graph,
                    self._reference_config(pair.config),
                ).search_many(item["queries"], item["k"])
                reference = fingerprint_topk(reference_results)
            else:  # matrix
                live_items = [result.scores for result in item["results"]]
                if corrupt:
                    live_items = [_perturb_scores(scores)
                                  for scores in live_items]
                live = "|".join(fingerprint_scores(scores)
                                for scores in live_items)
                parts = []
                for pair in item["pairs"]:
                    reference_result = fsim_matrix(
                        pair.reg1.graph, pair.reg2.graph,
                        config=self._reference_config(pair.config))
                    parts.append(fingerprint_scores(reference_result.scores))
                reference = "|".join(parts)
        except Exception:
            if self._versions_moved(item):
                # A concurrent mutation tore the read mid-execution;
                # the moved watermark makes this expected, not an error.
                self._record("skipped_version_moved")
                return
            self._record("error")
            logger.exception("audit reference execution failed")
            return
        if self._versions_moved(item):
            self._record("skipped_version_moved")
            return
        if live == reference:
            self._record("match")
            return
        self._record("diverged")
        request = self._describe_request(item)
        obs_log.log_event(
            logger, "audit.diverged", level=30,
            op=item["op"], trace_id=item["trace_id"],
            live_fingerprint=live, reference_fingerprint=reference,
            **{key: value for key, value in request.items()
               if key != "op" and isinstance(value, (str, int, float))},
        )
        if self.flight is not None:
            self.flight.trigger(
                "audit_divergence",
                detail={"request": request,
                        "live_fingerprint": live,
                        "reference_fingerprint": reference},
                trace_id=item["trace_id"], force=True,
            )

    @staticmethod
    def _describe_request(item: dict) -> dict:
        from repro.service.store import config_key

        if item["op"] == "matrix":
            pairs = item["pairs"]
            return {
                "op": "matrix",
                "graphs1": [pair.reg1.name for pair in pairs],
                "graph2": pairs[0].reg2.name if pairs else None,
                "versions": [list(v) for v in item["versions_list"]],
                "config": list(map(str, config_key(pairs[0].config)))
                if pairs else [],
            }
        pair = item["pair"]
        out = {
            "op": item["op"],
            "graph1": pair.reg1.name,
            "graph2": pair.reg2.name,
            "versions": list(item["versions"]),
            "config": list(map(str, config_key(pair.config))),
        }
        if item["op"] == "topk":
            out["k"] = item["k"]
            out["queries"] = [repr(query) for query in item["queries"]]
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._cv:
            backlog = len(self._queue)
            counts = dict(self.counts)
        executed = counts["executed"]
        scored = counts["match"] + counts["diverged"]
        return dict(
            counts,
            sampling=self.sampling,
            backlog=backlog,
            capacity=self.capacity,
            match_rate=(counts["match"] / scored) if scored else None,
            running=self._thread is not None,
            executed=executed,
        )
