"""Registry and state store of the FSim query service.

One :class:`GraphStore` owns everything a long-lived server keeps warm:

- **registered graphs** -- each :class:`RegisteredGraph` wraps one named
  :class:`~repro.graph.digraph.LabeledDigraph` behind a primary
  :class:`~repro.streaming.delta.DeltaLog` plus a bounded **journal** of
  applied mutations.  All service mutations go through the primary log,
  so every session over the graph can be brought up to date by
  *replicating* the journaled ops into its own log
  (:meth:`~repro.streaming.delta.DeltaLog.record_applied`) instead of
  falling back to a cold resynchronization;
- **pair state** -- per queried ``(graph1, graph2, config)``
  combination, an LRU-bounded :class:`PairState` holding an optional
  :class:`~repro.streaming.session.IncrementalFSim` session (scores
  maintained incrementally across mutations) and an LRU result cache
  keyed on the graphs' version counters, with explicit
  hit/miss/eviction statistics;
- **query execution** -- :meth:`GraphStore.fsim` /
  :meth:`GraphStore.topk` / :meth:`GraphStore.matrix` /
  :meth:`GraphStore.mutate`, the single-threaded building blocks the
  micro-batching scheduler calls under per-graph locks.

Every answer is exactly what the corresponding direct library call
would return: streaming sessions are bitwise identical to a cold run,
``search_many`` results are independent of batch composition, and the
version-keyed caches can only serve values computed on the very graph
state being queried.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.api import fsim_matrix, fsim_matrix_many
from repro.core.config import FSimConfig
from repro.core.engine import FSimResult, vectorized_fallback_reason
from repro.core.plan import plan_cache_stats
from repro.core.topk import TopKResult, TopKSearch
from repro.exceptions import (
    ConfigError,
    ReplicaReadOnlyError,
    ReproError,
    ServiceError,
)
from repro.graph.digraph import LabeledDigraph
from repro.obs import profiling, tracing
from repro.service.wal import DEFAULT_COMPACT_BYTES, WriteAheadLog
from repro.simulation.base import Variant
from repro.streaming.delta import DeltaLog, DeltaOp, OP_KINDS, apply_script_op
from repro.streaming.session import IncrementalFSim

Node = Hashable

#: Journal entries kept per registered graph.  A session lagging past
#: the trimmed window simply resynchronizes cold (its own out-of-band
#: detection), so trimming affects cost, never correctness.
JOURNAL_CAP = 4096

#: Applied client request ids remembered for mutation deduplication.
#: A retry older than this window re-applies (the self-healing client
#: retries within seconds, not after 4096 intervening mutations).
RID_CAP = 4096

#: Request parameters that may override a registered graph's config.
#: Runtime fields (``workers``, ``shards``, ``arena_backend``) are
#: absent on purpose: they size the server's own resources, so only
#: the server's flags set them.
CONFIG_PARAMS = (
    "variant", "w_out", "w_in", "label_function", "theta",
    "use_upper_bound", "alpha", "beta", "epsilon", "max_iterations",
    "matching_mode", "normalizer", "backend",
)


def apply_config_params(config: FSimConfig,
                        params: Optional[dict]) -> FSimConfig:
    """``config`` with client-supplied ``params`` applied.

    Only :data:`CONFIG_PARAMS` keys are accepted; an unknown or runtime
    key, or a value :class:`FSimConfig` rejects, raises
    :class:`ServiceError`.
    """
    if not params:
        return config
    if not isinstance(params, dict):
        raise ServiceError("config params must be a JSON object")
    overrides = {}
    for key, value in params.items():
        if key not in CONFIG_PARAMS:
            raise ServiceError(f"unknown config parameter {key!r}")
        overrides[key] = value
    try:
        if "variant" in overrides:
            overrides["variant"] = Variant(overrides["variant"])
        return config.with_options(**overrides)
    except (ConfigError, ValueError) as exc:
        raise ServiceError(str(exc)) from exc


def config_key(config: FSimConfig) -> tuple:
    """A hashable canonical identity of a config (cache keying)."""
    label = config.label_function
    if not isinstance(label, str):
        label = repr(label)
    return (
        config.variant.value, config.w_out, config.w_in, label,
        config.theta, config.use_upper_bound, config.alpha, config.beta,
        config.epsilon, config.max_iterations, config.matching_mode,
        config.normalizer, config.backend,
    )


class LruCache:
    """A bounded mapping with hit/miss/eviction counters."""

    def __init__(self, capacity: int):
        self.capacity = max(int(capacity), 1)
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, key):
        """Read without touching recency or hit/miss counters."""
        return self._entries.get(key)

    def put(self, key, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def pop(self, key):
        return self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries), "capacity": self.capacity,
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions,
        }


class RegisteredGraph:
    """One named graph plus its mutation journal (see module docstring)."""

    def __init__(self, name: str, graph: LabeledDigraph, config: FSimConfig):
        self.name = name
        self.graph = graph
        self.config = config
        self.log = DeltaLog(graph)
        self.journal: List[DeltaOp] = []
        #: Graph version immediately before ``journal[0]`` -- the op for
        #: version ``v`` (> journal_start) sits at ``journal[v -
        #: journal_start - 1]``.
        self.journal_start = graph.version
        self.mutations = 0
        #: Sequence number of the newest WAL record whose effect is in
        #: this graph.  Snapshots persist it; recovery replays only WAL
        #: records with a larger seq (the suffix).
        self.wal_seq = 0

    def apply_ops(self, ops: Sequence[DeltaOp]) -> Dict[str, int]:
        """Apply mutation ops in order; journal them for session sync.

        Raises :class:`ServiceError` on the first inapplicable op
        (earlier ops of the batch stay applied -- the response's
        ``applied`` count tells the client how far it got).
        """
        applied = 0
        error: Optional[str] = None
        for op in ops:
            try:
                apply_script_op(self.log, op)
            except ReproError as exc:
                error = f"op {applied} ({op.kind}): {exc}"
                break
            applied += 1
        delta = self.log.drain()
        if delta.out_of_band:
            # Someone mutated the graph around the service: the journal
            # can no longer describe the gap -- reset it so sessions
            # resynchronize cold instead of replaying a broken stream.
            self.journal = []
            self.journal_start = self.graph.version
        else:
            self.journal.extend(delta.ops)
            overflow = len(self.journal) - JOURNAL_CAP
            if overflow > 0:
                del self.journal[:overflow]
                self.journal_start += overflow
        self.mutations += applied
        if error is not None:
            raise ServiceError(
                f"mutation failed after {applied} applied op(s): {error}"
            )
        return {"applied": applied, "version": self.graph.version}

    def ops_since(self, version: int) -> Optional[List[DeltaOp]]:
        """Journaled ops bringing ``version`` to the present, or ``None``
        when the journal window no longer covers that far back."""
        if version < self.journal_start:
            return None
        start = version - self.journal_start
        return self.journal[start:]


class PairState:
    """Warm state of one queried (graph1, graph2, config) combination."""

    def __init__(self, reg1: RegisteredGraph, reg2: RegisteredGraph,
                 config: FSimConfig, cache_size: int):
        self.reg1 = reg1
        self.reg2 = reg2
        self.config = config
        self.results = LruCache(cache_size)
        #: Per-(graph, config) phase accumulators (plan lowering,
        #: compile, iterate, broadcast, iterations-to-converge) --
        #: active while this pair executes, surfaced in ``stats()``.
        self.profile = profiling.PhaseProfile()
        self.session: Optional[IncrementalFSim] = None
        self.synced1 = reg1.graph.version
        self.synced2 = reg2.graph.version
        if config.backend != "python" \
                and vectorized_fallback_reason(config) is None:
            self.session = IncrementalFSim(reg1.graph, reg2.graph, config)

    def versions(self) -> Tuple[int, int]:
        return (self.reg1.graph.version, self.reg2.graph.version)

    def sync_session(self) -> None:
        """Replicate journaled mutations into the session's delta logs.

        When the journal no longer covers the gap, nothing is pushed:
        the session's own version bracket then flags the delta as
        out-of-band and it resynchronizes cold -- correct either way.
        """
        if self.session is None:
            return
        ops1 = self.reg1.ops_since(self.synced1)
        if ops1:
            for op in ops1:
                self.session.log1.record_applied(op)
        if self.reg2 is not self.reg1:
            ops2 = self.reg2.ops_since(self.synced2)
            if ops2:
                for op in ops2:
                    self.session.log2.record_applied(op)
        self.synced1 = self.reg1.graph.version
        self.synced2 = self.reg2.graph.version

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class GraphStore:
    """The service's registry: named graphs, pair state, statistics."""

    def __init__(
        self,
        default_config: Optional[FSimConfig] = None,
        max_pairs: int = 32,
        result_cache_size: int = 256,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        wal: Optional[WriteAheadLog] = None,
        wal_compact_bytes: int = DEFAULT_COMPACT_BYTES,
    ):
        base = default_config or FSimConfig()
        overrides = {}
        if workers is not None:
            overrides["workers"] = int(workers)
        if shards is not None:
            overrides["shards"] = int(shards)
        if overrides:
            base = base.with_options(**overrides)
        self.default_config = base
        self.max_pairs = max(int(max_pairs), 1)
        self.result_cache_size = int(result_cache_size)
        self._graphs: Dict[str, RegisteredGraph] = {}
        self._pairs: "OrderedDict[tuple, PairState]" = OrderedDict()
        self._pair_evictions = 0
        self._lock = threading.RLock()
        self.restored_snapshots = 0
        #: Durability (attach via constructor or recovery.recover_store):
        #: every register/unregister/mutate appends to the WAL *before*
        #: applying, so a crash loses only never-acknowledged work.
        self.wal = wal
        self.wal_compact_bytes = int(wal_compact_bytes)
        #: True while recovery replays the WAL -- suppresses re-logging.
        self._wal_replaying = False
        #: True = compact inline from mutate() once the WAL passes its
        #: size budget (safe for single-threaded direct use).  The
        #: server flips this off and drives compaction itself under an
        #: all-graph exclusive lock (snapshotting graph B while another
        #: worker thread mutates it would tear the pickle).
        self.wal_autocompact = True
        self.compactions = 0
        #: rid -> outcome of the mutation that carried it (bounded).
        self._applied_rids: "OrderedDict[str, dict]" = OrderedDict()
        self.deduped_mutations = 0
        #: Optional :class:`~repro.obs.audit.ShadowAuditor` sampling
        #: read results for reference re-execution.  ``None`` (audit
        #: off) short-circuits every tap to one attribute check.
        self.auditor = None
        #: Set to the primary's ``host:port`` on a read replica: every
        #: direct write (register/unregister/mutate) outside the
        #: replication apply path raises
        #: :class:`~repro.exceptions.ReplicaReadOnlyError` carrying the
        #: redirect target.  The replay path sets ``_wal_replaying``
        #: and passes the gate -- replicated records are the one
        #: legitimate writer.
        self.replica_primary: Optional[str] = None

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def register(self, name: str, graph: LabeledDigraph,
                 config: Optional[FSimConfig] = None,
                 replace: bool = False,
                 source: Optional[dict] = None) -> RegisteredGraph:
        """Register a graph; with a WAL attached and a JSON ``source``
        describing where the graph came from (``{"path": ...}``,
        ``{"nodes": ..., "edges": ...}`` or ``{"snapshot": ...}``, plus
        optional ``"params"`` config overrides), the registration is
        durable: recovery replays it.  ``source=None`` registrations
        (programmatic) are process-local and vanish on crash."""
        if not name or not isinstance(name, str):
            raise ServiceError(f"graph name must be a non-empty string, "
                               f"got {name!r}")
        self._guard_writable()
        with self._lock:
            if name in self._graphs and not replace:
                raise ServiceError(f"graph {name!r} is already registered")
            if self.wal is not None and not self._wal_replaying \
                    and source is not None:
                self.wal.append({
                    "kind": "register", "graph": name,
                    "source": source, "replace": bool(replace),
                })
            if name in self._graphs:
                self._evict(name)
            registered = RegisteredGraph(
                name, graph, config or self.default_config
            )
            self._graphs[name] = registered
            return registered

    def unregister(self, name: str) -> None:
        self._guard_writable()
        with self._lock:
            if name in self._graphs and self.wal is not None \
                    and not self._wal_replaying:
                self.wal.append({"kind": "unregister", "graph": name})
            self._evict(name)

    def _evict(self, name: str) -> None:
        """Drop a graph and its pair state without WAL logging (the
        caller has logged, is replaying, or replace-registering --
        where the replayed register record already implies it)."""
        self._graphs.pop(name, None)
        for key in [k for k in self._pairs if name in (k[0], k[1])]:
            self._pairs.pop(key).close()

    def graph(self, name: str) -> RegisteredGraph:
        registered = self._graphs.get(name)
        if registered is None:
            raise ServiceError(f"unknown graph {name!r} (register it first)")
        return registered

    def graph_names(self) -> List[str]:
        return sorted(self._graphs)

    # ------------------------------------------------------------------
    # configs and pair state
    # ------------------------------------------------------------------
    def resolve_config(self, name: str,
                       params: Optional[dict]) -> FSimConfig:
        """The effective config: graph1's registered default plus any
        per-request overrides from ``params``."""
        return apply_config_params(self.graph(name).config, params)

    def pair(self, name1: str, name2: str,
             config: FSimConfig) -> PairState:
        """The (LRU-cached) pair state for this graph/config combination."""
        reg1 = self.graph(name1)
        reg2 = self.graph(name2)
        key = (name1, name2, config_key(config))
        with self._lock:
            state = self._pairs.get(key)
            if state is not None:
                self._pairs.move_to_end(key)
                return state
            state = PairState(reg1, reg2, config, self.result_cache_size)
            while len(self._pairs) >= self.max_pairs:
                _, evicted = self._pairs.popitem(last=False)
                evicted.close()
                self._pair_evictions += 1
            self._pairs[key] = state
            return state

    def peek_pair(self, name1: str, name2: str,
                  config: FSimConfig) -> Optional[PairState]:
        """The existing pair state, or ``None`` -- never builds one
        (snapshot compaction must not spin up sessions as a side
        effect)."""
        key = (name1, name2, config_key(config))
        with self._lock:
            return self._pairs.get(key)

    def adopt_pair(self, state: PairState) -> None:
        """Install externally built pair state (the snapshot-restore
        path), evicting any colder entry for the same key."""
        key = (state.reg1.name, state.reg2.name, config_key(state.config))
        with self._lock:
            old = self._pairs.pop(key, None)
            if old is not None:
                old.close()
            self._pairs[key] = state

    # ------------------------------------------------------------------
    # queries (called by the scheduler under per-graph locks)
    # ------------------------------------------------------------------
    def fsim(self, name1: str, name2: str,
             params: Optional[dict] = None) -> FSimResult:
        """All-pairs FSim between two registered graphs (cached by
        graph versions; maintained incrementally when a session fits)."""
        config = self.resolve_config(name1, params)
        pair = self.pair(name1, name2, config)
        versions = pair.versions()
        key = ("fsim", versions)
        with tracing.span("store.fsim", graph1=name1, graph2=name2):
            result = pair.results.get(key)
            if result is None:
                try:
                    with profiling.profiled(pair.profile):
                        if pair.session is not None:
                            pair.sync_session()
                            result = pair.session.compute()
                        else:
                            result = fsim_matrix(pair.reg1.graph,
                                                 pair.reg2.graph,
                                                 config=config)
                except ReproError as exc:
                    raise ServiceError(str(exc)) from exc
                pair.results.put(key, result)
        auditor = self.auditor
        if auditor is not None:
            auditor.observe_fsim(pair, versions, result)
        return result

    def topk(self, name1: str, name2: str, queries: Sequence[Node], k: int,
             params: Optional[dict] = None) -> List[TopKResult]:
        """Certified top-k for a query batch, from one shared iteration
        (uncached queries only -- each query caches individually)."""
        config = self.resolve_config(name1, params)
        pair = self.pair(name1, name2, config)
        versions = pair.versions()
        results: Dict[Node, TopKResult] = {}
        missing: List[Node] = []
        for query in dict.fromkeys(queries):  # dedup, order kept
            cached = pair.results.get(("topk", int(k), query, versions))
            if cached is not None:
                results[query] = cached
            else:
                missing.append(query)
        if missing:
            try:
                with tracing.span("store.topk", graph1=name1, graph2=name2,
                                  queries=len(missing)), \
                        profiling.profiled(pair.profile):
                    fresh = TopKSearch(
                        pair.reg1.graph, pair.reg2.graph, config
                    ).search_many(missing, int(k))
            except ReproError as exc:
                raise ServiceError(str(exc)) from exc
            for result in fresh:
                results[result.query] = result
                pair.results.put(
                    ("topk", int(k), result.query, versions), result
                )
        ordered = [results[query] for query in queries]
        auditor = self.auditor
        if auditor is not None:
            auditor.observe_topk(pair, versions, int(k), queries, ordered)
        return ordered

    def matrix(self, names1: Sequence[str], name2: str,
               params: Optional[dict] = None) -> List[FSimResult]:
        """FSim of many registered query graphs against one data graph
        (uncached entries computed through one ``fsim_matrix_many``).

        The effective config comes from the shared *data* graph
        (``name2``) plus the request params -- never from the query
        graphs, so a coalesced batch mixing query graphs with
        different registered defaults still computes every entry under
        one well-defined config (the scheduler's bucket key relies on
        this).
        """
        names1 = list(names1)
        if not names1:
            return []
        config = self.resolve_config(name2, params)
        pairs = [self.pair(name1, name2, config) for name1 in names1]
        outputs: List[Optional[FSimResult]] = [None] * len(names1)
        missing: List[int] = []
        for position, pair in enumerate(pairs):
            cached = pair.results.get(("fsim", pair.versions()))
            if cached is not None:
                outputs[position] = cached
            else:
                missing.append(position)
        if missing:
            try:
                with tracing.span("store.matrix", graph2=name2,
                                  queries=len(missing)), \
                        profiling.profiled(pairs[missing[0]].profile):
                    fresh = fsim_matrix_many(
                        [pairs[position].reg1.graph for position in missing],
                        self.graph(name2).graph, config=config,
                    )
            except ReproError as exc:
                raise ServiceError(str(exc)) from exc
            for position, result in zip(missing, fresh):
                pair = pairs[position]
                pair.results.put(("fsim", pair.versions()), result)
                outputs[position] = result
        auditor = self.auditor
        if auditor is not None:
            auditor.observe_matrix(
                pairs, [pair.versions() for pair in pairs], outputs
            )
        return outputs

    def mutate(self, name: str, ops: Sequence[DeltaOp],
               rid: Optional[str] = None) -> Dict[str, int]:
        """Apply a mutation batch to a registered graph via its journal.

        With a WAL attached the batch is appended (and, in
        ``wal_sync="always"`` mode, fsynced) *before* it touches the
        graph -- a crash at any instant leaves log >= state, and
        recovery replays the difference.  ``rid`` is a client-generated
        request id: a batch whose rid was already applied is **not**
        re-applied; the recorded outcome (or recorded error) is
        replayed instead, making retries after an ack-lost crash
        exactly-once.
        """
        self._guard_writable()
        for op in ops:
            if op.kind not in OP_KINDS:
                raise ServiceError(f"unknown mutation kind {op.kind!r}")
        if rid is not None:
            cached = self._rid_outcome(rid)
            if cached is not None:
                return cached
        registered = self.graph(name)
        if self.wal is not None and not self._wal_replaying:
            record = {
                "kind": "mutate", "graph": name,
                "ops": [[op.kind, op.a, op.b] for op in ops],
                "rid": rid,
            }
            # Stamp the record with the requesting trace so replica
            # applies stay attributable to the originating query.
            tid = tracing.current_trace_id()
            if tid is not None:
                record["trace"] = tid
            seq = self.wal.append(record)
            registered.wal_seq = seq
        try:
            with tracing.span("store.mutate", graph=name, ops=len(ops)):
                outcome = registered.apply_ops(ops)
        except ServiceError as exc:
            if rid is not None:
                self._remember_rid(rid, {"error": str(exc)})
            raise
        if rid is not None:
            self._remember_rid(rid, dict(outcome))
        if self.wal is not None and not self._wal_replaying \
                and self.wal_autocompact and self.wal_compact_bytes \
                and self.wal.size_bytes() > self.wal_compact_bytes:
            self.compact()
        return outcome

    # ------------------------------------------------------------------
    # durability: request-id dedup, WAL commit, compaction
    # ------------------------------------------------------------------
    def _guard_writable(self) -> None:
        if self.replica_primary is not None and not self._wal_replaying:
            raise ReplicaReadOnlyError(self.replica_primary)

    def _rid_outcome(self, rid: str) -> Optional[Dict[str, int]]:
        """The replayed response for an already-applied request id."""
        with self._lock:
            cached = self._applied_rids.get(rid)
            if cached is None:
                return None
            self._applied_rids.move_to_end(rid)
            self.deduped_mutations += 1
        if "error" in cached:
            raise ServiceError(cached["error"])
        return dict(cached, deduped=True)

    def _remember_rid(self, rid: str, outcome: dict) -> None:
        with self._lock:
            self._applied_rids[rid] = outcome
            self._applied_rids.move_to_end(rid)
            while len(self._applied_rids) > RID_CAP:
                self._applied_rids.popitem(last=False)

    def commit_wal(self) -> None:
        """Flush-and-fsync pending WAL appends (no-op without a WAL or
        in ``always`` mode where every append already synced).  The
        scheduler calls this once per coalesced mutation batch, before
        any acknowledgement resolves."""
        if self.wal is not None:
            self.wal.commit()

    def wal_needs_compaction(self) -> bool:
        return (
            self.wal is not None
            and not self._wal_replaying
            and self.wal_compact_bytes > 0
            and self.wal.size_bytes() > self.wal_compact_bytes
        )

    def compact(self) -> dict:
        """Snapshot every registered graph, then rotate the WAL.

        The new log holds a single checkpoint record carrying each
        graph's WAL watermark and the applied-request-id map, so
        recovery after compaction = restore snapshots + replay the
        (empty) suffix, and pre-compaction retries still deduplicate.
        Callers must guarantee no concurrent mutation is in flight (the
        server compacts under an all-graph exclusive lock; direct
        library use is single-threaded).
        """
        from repro.service.snapshot import save_snapshot

        if self.wal is None:
            raise ServiceError("compact() requires an attached WAL")
        wal_dir = self.wal.path.parent
        with self._lock:
            watermarks = {}
            for name, registered in self._graphs.items():
                save_snapshot(self, name, wal_dir / f"{name}.snap",
                              warm=None)
                watermarks[name] = registered.wal_seq
            # Stale snapshots of since-unregistered graphs must not
            # resurrect on recovery.
            for stale in wal_dir.glob("*.snap"):
                if stale.stem not in self._graphs:
                    stale.unlink(missing_ok=True)
            outcome = self.wal.rotate({
                "kind": "checkpoint",
                "graphs": watermarks,
                "rids": dict(self._applied_rids),
            })
            self.compactions += 1
            return dict(outcome, graphs=len(watermarks))

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        from repro.runtime import executor_registry_stats

        with self._lock:
            graphs = {
                name: {
                    "nodes": reg.graph.num_nodes,
                    "edges": reg.graph.num_edges,
                    "version": reg.graph.version,
                    "mutations": reg.mutations,
                    "journal": len(reg.journal),
                    "wal_seq": reg.wal_seq,
                }
                for name, reg in self._graphs.items()
            }
            pairs = {}
            for (name1, name2, _), state in self._pairs.items():
                label = f"{name1}|{name2}"
                # Distinct configs of one graph pair are distinct
                # PairStates; suffix duplicates instead of silently
                # overwriting one entry with the other.
                if label in pairs:
                    suffix = 2
                    while f"{label}#{suffix}" in pairs:
                        suffix += 1
                    label = f"{label}#{suffix}"
                entry = dict(state.results.stats())
                entry["session"] = (state.session is not None)
                if state.session is not None:
                    entry["session_stats"] = dict(state.session.stats)
                if state.profile:
                    entry["profile"] = state.profile.snapshot()
                pairs[label] = entry
        report = {
            "graphs": graphs,
            "pairs": pairs,
            "pair_evictions": self._pair_evictions,
            "plan_cache": plan_cache_stats(),
            "executors": executor_registry_stats(),
            "restored_snapshots": self.restored_snapshots,
        }
        if self.replica_primary is not None:
            report["replica_primary"] = self.replica_primary
        if self.auditor is not None:
            report["audit"] = self.auditor.stats()
        if self.wal is not None:
            report["wal"] = dict(
                self.wal.stats(),
                compactions=self.compactions,
                applied_rids=len(self._applied_rids),
                deduped_mutations=self.deduped_mutations,
            )
        return report

    def close(self) -> None:
        if self.auditor is not None:
            self.auditor.close()
            self.auditor = None
        with self._lock:
            for state in self._pairs.values():
                state.close()
            self._pairs.clear()
            self._graphs.clear()
            if self.wal is not None:
                self.wal.close()
