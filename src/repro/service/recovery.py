"""Crash recovery: rebuild a GraphStore from snapshots + WAL replay.

The durable state of a served store lives in one directory (the
``--wal-dir``): per-graph content-fingerprinted snapshots
(``<name>.snap``, written at compaction and clean shutdown) and the
append-only :mod:`~repro.service.wal` segment.  Recovery is:

1. **scan** the WAL (:func:`~repro.service.wal.read_wal`) -- a torn
   final record from a crash mid-append is truncated (it was never
   acknowledged); mid-file corruption raises
   :class:`~repro.exceptions.WalCorruptionError`;
2. **restore snapshots** -- each snapshot registers its embedded graph
   with its warm state (plan, session trajectory, converged scores)
   and its WAL watermark ``wal_seq``.  A snapshot computed under a
   different config than the one now being served contributes its
   *structure* only (scores are recomputed under the new config --
   never silently served stale);
3. **replay the WAL suffix** -- records with ``seq`` greater than the
   target graph's watermark re-apply through the store's normal
   mutation path: journaled ``DeltaOp`` replication into resident
   sessions, O(delta) ``patch_plan`` surgery, deterministic trajectory
   replay.  The recovered scores are **bitwise identical** to the
   pre-crash store (asserted in ``tests/test_durability.py``).
   Checkpoint records seed the applied-request-id map so pre-crash
   retries still deduplicate; duplicate sequence numbers are skipped
   (replay is idempotent);
4. **reattach** -- the repaired WAL reopens for append with the next
   sequence number, and new mutations continue the same log.

Replay is deliberately *not* a special interpreter: it calls the same
``GraphStore.mutate`` the scheduler calls, so a mutation that failed
half-way pre-crash fails identically on replay (deterministic partial
application), and every later layer (sessions, caches, snapshots)
observes mutations exactly as it would live.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import FSimConfig
from repro.exceptions import ServiceError, SnapshotError
from repro.service.snapshot import (
    graph_fingerprint,
    load_snapshot,
    restore_snapshot,
)
from repro.service.store import GraphStore, apply_config_params
from repro.service.wal import (
    DEFAULT_COMPACT_BYTES,
    WAL_FILENAME,
    FaultInjector,
    WriteAheadLog,
    read_wal,
    repair_wal,
)
from repro.streaming.delta import DeltaOp

PathLike = Union[str, Path]

logger = logging.getLogger("repro.service.recovery")


@dataclass
class RecoveryReport:
    """What recovery found and did (printed by the CLI, asserted in
    tests)."""

    wal_path: str
    records_read: int = 0
    truncated_bytes: int = 0
    replayed_mutations: int = 0
    replayed_registers: int = 0
    replayed_unregisters: int = 0
    replayed_errors: int = 0
    skipped_snapshotted: int = 0
    skipped_duplicates: int = 0
    skipped_unknown_graph: int = 0
    snapshots_warm: int = 0
    snapshots_cold: int = 0
    recovered_rids: int = 0
    lost_graphs: List[str] = field(default_factory=list)
    last_seq: int = 0

    def summary(self) -> str:
        parts = [
            f"{self.records_read} WAL record(s)",
            f"{self.replayed_mutations} mutation(s) replayed",
            f"{self.snapshots_warm} warm + {self.snapshots_cold} cold "
            f"snapshot(s)",
        ]
        if self.truncated_bytes:
            parts.append(f"torn tail truncated ({self.truncated_bytes} B)")
        if self.skipped_duplicates:
            parts.append(f"{self.skipped_duplicates} duplicate seq skipped")
        if self.lost_graphs:
            parts.append(f"UNRECOVERABLE: {', '.join(self.lost_graphs)}")
        return "; ".join(parts)


def _restore_snapshot_tolerant(
    store: GraphStore, path: Path, served_config: Optional[FSimConfig],
    report: RecoveryReport,
) -> Optional[str]:
    """Restore one snapshot, degrading gracefully on config drift.

    Returns the registered graph name, or ``None`` when the snapshot is
    unusable (corrupt / fingerprint mismatch) -- the graph may still
    come back through a replayed ``register`` record.
    """
    try:
        registered = restore_snapshot(
            store, path, config=served_config, replace=True
        )
        report.snapshots_warm += 1
        return registered.name
    except SnapshotError as exc:
        config_drift = "different config" in str(exc)
        if not config_drift:
            logger.warning("snapshot %s unusable: %s", path, exc)
            return None
    # Config drift: the warm scores are for the old config, but the
    # graph *structure* is still the durable truth -- register it cold
    # under the served config (scores recompute on first query).
    try:
        payload = load_snapshot(path)
        embedded = payload["graph"]
        expected = graph_fingerprint(embedded, payload["config"])
        if expected != payload["fingerprint"]:
            logger.warning("snapshot %s fails its own fingerprint; "
                           "skipping", path)
            return None
        registered = store.register(
            payload["name"], embedded, served_config, replace=True,
            source={"snapshot": str(path)},
        )
        registered.wal_seq = int(payload.get("wal_seq", 0))
        report.snapshots_cold += 1
        return registered.name
    except (SnapshotError, ServiceError) as exc:
        logger.warning("snapshot %s unusable: %s", path, exc)
        return None


def _register_from_source(store: GraphStore, record: dict,
                          served_config: Optional[FSimConfig],
                          report: RecoveryReport) -> bool:
    """Replay one ``register`` record from its recorded source."""
    from repro.graph.digraph import LabeledDigraph
    from repro.graph.io import load_graph

    name = record["graph"]
    source = record.get("source") or {}
    replace = bool(record.get("replace", False))
    if name in store.graph_names() and not replace:
        # Already present via a snapshot newer than this record.
        return True
    if "snapshot" in source:
        return _restore_snapshot_tolerant(
            store, Path(source["snapshot"]), served_config, report
        ) is not None
    try:
        config = apply_config_params(store.default_config,
                                     source.get("params"))
    except ServiceError as exc:
        logger.warning("register record for %r has unusable params: %s",
                       name, exc)
        return False
    if "path" in source:
        graph = load_graph(source["path"], name=name)
    elif "nodes" in source:
        graph = LabeledDigraph(name)
        for node, label in source["nodes"]:
            graph.add_node(node, label)
        for head, tail in source.get("edges", []):
            graph.add_edge(head, tail)
    else:
        logger.warning("register record for %r has no usable source", name)
        return False
    store.register(name, graph, config, replace=True)
    registered = store.graph(name)
    registered.wal_seq = int(record["seq"])
    report.replayed_registers += 1
    return True


class WalReplayer:
    """The shared WAL-record apply machinery.

    Both crash recovery's suffix replay and a replication follower
    tailing the primary's stream consume identical record dicts and
    push them through the same :class:`GraphStore` register / mutate /
    unregister calls live traffic uses -- DeltaLog capture, plan
    patching, incremental sessions -- which is what makes a recovered
    *or replicated* store bitwise-identical to the primary.  Records
    must arrive in ascending ``seq`` order; duplicates (and records at
    or below a graph's snapshot watermark) are skipped, so replay and
    resume-from-watermark are idempotent.
    """

    def __init__(self, store: GraphStore,
                 served_config: Optional[FSimConfig],
                 report: RecoveryReport):
        self.store = store
        self.served_config = served_config
        self.report = report
        self.lost: set = set()
        self.watermark_floor: Dict[str, int] = {}

    def apply(self, record: dict) -> bool:
        """Apply one record; returns ``False`` when it was skipped."""
        seq = int(record["seq"])
        report = self.report
        if seq <= report.last_seq:
            report.skipped_duplicates += 1
            return False
        report.last_seq = seq
        was_replaying = self.store._wal_replaying
        self.store._wal_replaying = True
        try:
            return self._apply(record, seq)
        finally:
            self.store._wal_replaying = was_replaying

    def _apply(self, record: dict, seq: int) -> bool:
        store = self.store
        report = self.report
        kind = record["kind"]
        if kind == "checkpoint":
            rids = record.get("rids") or {}
            for rid, outcome in rids.items():
                store._remember_rid(rid, dict(outcome))
            report.recovered_rids += len(rids)
            for name, mark in (record.get("graphs") or {}).items():
                self.watermark_floor[name] = int(mark)
                if name not in store.graph_names():
                    # Its snapshot is gone/unusable and the records
                    # that built it were compacted away: the graph
                    # cannot be recovered from this directory.
                    self.lost.add(name)
            return True
        if kind == "register":
            name = record["graph"]
            if _register_from_source(store, record, self.served_config,
                                     report):
                self.lost.discard(name)
            else:
                self.lost.add(name)
            return True
        if kind == "unregister":
            name = record["graph"]
            if name in store.graph_names():
                store.unregister(name)
                report.replayed_unregisters += 1
            self.lost.discard(name)
            return True
        # kind == "mutate"
        name = record["graph"]
        if name in self.lost:
            report.skipped_unknown_graph += 1
            return False
        if name not in store.graph_names():
            # Registered programmatically (source=None) on the
            # previous run: not durable, nothing to replay onto.
            report.skipped_unknown_graph += 1
            return False
        registered = store.graph(name)
        floor = max(registered.wal_seq, self.watermark_floor.get(name, 0))
        if seq <= floor:
            report.skipped_snapshotted += 1
            return False
        ops = [DeltaOp(op[0], op[1], op[2] if len(op) > 2 else None)
               for op in record["ops"]]
        try:
            store.mutate(name, ops, rid=record.get("rid"))
        except ServiceError:
            # The original apply failed identically (deterministic
            # partial application); the rid map already remembers
            # the error for retry dedup.
            report.replayed_errors += 1
        registered.wal_seq = seq
        report.replayed_mutations += 1
        return True


def recover_store(
    wal_dir: PathLike,
    store: Optional[GraphStore] = None,
    config: Optional[FSimConfig] = None,
    sync: str = "batch",
    attach: bool = True,
    fault_injector: Optional[FaultInjector] = None,
    compact_bytes: int = DEFAULT_COMPACT_BYTES,
    strict_config: bool = True,
) -> Tuple[GraphStore, RecoveryReport]:
    """Rebuild a store from ``wal_dir`` and (optionally) reattach the WAL.

    ``store`` is a freshly constructed (possibly pre-configured)
    :class:`GraphStore`, or ``None`` to build one from ``config``.
    ``strict_config`` controls snapshot config checking: ``True``
    treats the store's default config as the served config (snapshots
    under a different config restore structure-only); ``False``
    restores whatever config each snapshot embeds (the offline
    ``recover`` CLI inspection mode).

    ``attach=True`` physically repairs a torn WAL tail and reopens the
    log for append on the returned store; ``attach=False`` is strictly
    read-only (nothing on disk changes).

    Returns ``(store, report)``.  Raises
    :class:`~repro.exceptions.WalCorruptionError` on mid-file
    corruption -- recovery never silently skips a hole in history.
    """
    wal_dir = Path(wal_dir)
    wal_path = wal_dir / WAL_FILENAME
    if store is None:
        store = GraphStore(default_config=config)
    served_config = store.default_config if strict_config else None
    report = RecoveryReport(wal_path=str(wal_path))

    scan = read_wal(wal_path)  # raises WalCorruptionError mid-file
    report.records_read = len(scan.records)
    report.truncated_bytes = scan.total_bytes - scan.valid_bytes

    store._wal_replaying = True
    try:
        # -- 1. snapshots (newest durable base per graph) --------------
        for snap_path in sorted(wal_dir.glob("*.snap")):
            _restore_snapshot_tolerant(store, snap_path, served_config,
                                       report)

        # -- 2. WAL suffix replay --------------------------------------
        replayer = WalReplayer(store, served_config, report)
        for record in scan.records:
            replayer.apply(record)
        report.lost_graphs = sorted(replayer.lost)
    finally:
        store._wal_replaying = False

    # -- 3. reattach ---------------------------------------------------
    if attach:
        if report.truncated_bytes:
            repair_wal(wal_path)
        store.wal = WriteAheadLog(
            wal_path, sync=sync, fault_injector=fault_injector,
            next_seq=report.last_seq + 1,
        )
        store.wal_compact_bytes = int(compact_bytes)
    return store, report
