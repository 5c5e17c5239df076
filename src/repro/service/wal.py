"""Write-ahead log for the FSim query service's GraphStore.

Every durable state change of a :class:`~repro.service.store.GraphStore`
(graph registrations, mutation batches, compaction checkpoints) is
appended to one NDJSON file *before* it is applied, so a crash at any
instant loses at most work that was never acknowledged:

- **record format** -- one line per record: an 8-hex-digit CRC32 of the
  JSON body, one space, the body, ``\\n``.  The body is a compact JSON
  object carrying a monotonically increasing ``seq`` plus kind-specific
  fields (see :data:`RECORD_KINDS`);
- **torn-tail detection** -- a crash mid-append leaves a final line
  without a newline, with a CRC mismatch, or with unparsable JSON.
  :func:`read_wal` recognizes all three and *truncates* the partial
  final record instead of failing (the record was never acknowledged --
  dropping it is exactly the contract).  A bad record followed by more
  valid data is a different beast -- silent mid-file corruption -- and
  raises :class:`~repro.exceptions.WalCorruptionError` so nobody serves
  from a silently hole-punched history;
- **sync modes** -- ``always`` fsyncs every append before returning
  (an acknowledged mutation survives power loss), ``batch`` defers the
  fsync to an explicit :meth:`WriteAheadLog.commit` (the scheduler
  commits once per coalesced mutation batch, amortizing the fsync over
  the batch -- see docs/PERF.md), ``off`` never fsyncs (OS page cache
  only; survives process crashes but not power loss);
- **compaction** -- :meth:`WriteAheadLog.rotate` atomically replaces
  the log with a single checkpoint record (write temp + fsync +
  ``os.replace`` + directory fsync), after the store has snapshotted
  every graph.  A crash at any point of the rotation leaves either the
  full old log or the new checkpointed one -- never a mix;
- **fault injection** -- :class:`FaultInjector` arms deterministic
  failures at the append/fsync/rotate boundaries (crash, torn write,
  corrupt record, disk full), configurable from the environment
  (``REPRO_WAL_FAULT=crash-after-append:3``) so a *real* server
  subprocess can be killed at an exact WAL position by the
  kill-and-recover suite in ``tests/test_durability.py``.

Recovery (:mod:`repro.service.recovery`) = newest content-fingerprinted
snapshot + replay of the WAL suffix through the store's normal mutation
path, which is the deterministic ``DeltaLog``/``patch_plan`` machinery
-- bitwise-identical to the pre-crash store.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import zlib
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union

from repro.exceptions import WalCompactedError, WalCorruptionError, WalError

PathLike = Union[str, Path]

#: The active WAL segment's file name inside a ``--wal-dir``.
WAL_FILENAME = "service.wal"

#: Record kinds a WAL may contain.
RECORD_KINDS = ("mutate", "register", "unregister", "checkpoint")

#: Control-plane record kinds: in ``batch`` sync mode these fsync
#: immediately instead of waiting for the next ``commit()`` -- an
#: unregister or checkpoint sitting in an unflushed batch window
#: across a crash would resurrect dropped state on recovery.
CONTROL_KINDS = ("unregister", "checkpoint")

#: Compact the WAL once it grows past this many bytes (default; the
#: store/CLI can override).  Snapshots bound recovery time -- replay
#: cost is O(suffix), not O(history).
DEFAULT_COMPACT_BYTES = 4 << 20

SYNC_POLICIES = ("always", "batch", "off")


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class SimulatedCrash(BaseException):
    """In-process stand-in for ``os._exit`` in crash-fault tests.

    Derives from ``BaseException`` so no library ``except Exception``
    handler can swallow it -- exactly like a real SIGKILL, the store
    object is abandoned mid-operation and recovery starts from disk.
    """


#: Faults that trigger on the Nth append (1-based, counting every
#: appended record including registers and checkpoints).
APPEND_FAULTS = (
    "crash-before-append",   # record lost entirely (never written)
    "torn-append",           # half the record written, then crash
    "corrupt-append",        # full-length record with a flipped byte
    "disk-full",             # OSError(ENOSPC) raised, nothing written
    "crash-after-append",    # record written+flushed, crash before fsync
    "crash-after-fsync",     # record fully durable, crash before the ack
)

#: Faults that trigger on the Nth rotation.
ROTATE_FAULTS = (
    "crash-before-rotate-rename",  # temp written, old log still active
)

#: Replication faults on the primary side, triggering on the Nth WAL
#: record shipped down a ``replicate`` stream.
SHIP_FAULTS = (
    "crash-mid-ship",   # primary dies mid-stream (whole process)
    "torn-ship",        # half a frame on the wire, then the stream dies
)

#: Replication faults on the follower side, triggering on the Nth
#: record received from the stream.
APPLY_FAULTS = (
    "crash-mid-apply",  # follower dies between receive and apply
    "partition",        # connection dropped without crashing (heals by
                        # reconnect-and-resume from the watermark)
)

#: Shadow-audit faults, triggering on the Nth executed audit.
AUDIT_FAULTS = (
    "corrupt-scores",   # perturb the live score fingerprint input --
                        # simulates a corrupted score slab, must surface
                        # as repro_audit_total{result="diverged"}
)

KNOWN_FAULTS = (APPEND_FAULTS + ROTATE_FAULTS + SHIP_FAULTS
                + APPLY_FAULTS + AUDIT_FAULTS)


class FaultInjector:
    """Deterministic failure injection at WAL I/O boundaries.

    ``spec`` is a comma-separated list of ``fault-name:N`` entries --
    the named fault fires on the Nth append (or rotation).  The default
    crash action is ``os._exit(137)`` (indistinguishable from SIGKILL:
    no atexit handlers, no flushing); in-process tests replace
    :attr:`crash` with a callable raising :class:`SimulatedCrash`.
    """

    ENV_VAR = "REPRO_WAL_FAULT"

    def __init__(self, spec: str = ""):
        self.faults: List[tuple] = []
        for entry in (spec or "").split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, nth = entry.partition(":")
            if name not in KNOWN_FAULTS:
                raise WalError(
                    f"unknown WAL fault {name!r} "
                    f"(known: {', '.join(KNOWN_FAULTS)})"
                )
            if not sep or not nth.isdigit() or int(nth) < 1:
                raise WalError(
                    f"WAL fault {entry!r} needs a 1-based trigger count, "
                    f"e.g. {name}:3"
                )
            self.faults.append((name, int(nth)))
        self.appends = 0
        self.rotations = 0
        self.ships = 0
        self.applies = 0
        self.audits = 0
        self.tripped: List[str] = []

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        spec = os.environ.get(cls.ENV_VAR, "")
        return cls(spec) if spec.strip() else None

    # -- actions -------------------------------------------------------
    def crash(self) -> None:  # pragma: no cover - subprocess suite only
        os._exit(137)

    def _active(self, count: int, universe) -> List[str]:
        hits = [name for name, nth in self.faults
                if nth == count and name in universe]
        self.tripped.extend(hits)
        return hits

    def on_append(self) -> List[str]:
        """Advance the append counter; return faults firing now."""
        self.appends += 1
        return self._active(self.appends, APPEND_FAULTS)

    def on_rotate(self) -> List[str]:
        self.rotations += 1
        return self._active(self.rotations, ROTATE_FAULTS)

    def on_ship(self) -> List[str]:
        """Advance the shipped-record counter (primary stream side)."""
        self.ships += 1
        return self._active(self.ships, SHIP_FAULTS)

    def on_apply(self) -> List[str]:
        """Advance the applied-record counter (follower stream side)."""
        self.applies += 1
        return self._active(self.applies, APPLY_FAULTS)

    def on_audit(self) -> List[str]:
        """Advance the executed-audit counter (shadow auditor)."""
        self.audits += 1
        return self._active(self.audits, AUDIT_FAULTS)

    @staticmethod
    def corrupt(line: bytes) -> bytes:
        """Flip one byte in the middle of the record body."""
        middle = len(line) // 2
        return line[:middle] + bytes([line[middle] ^ 0x5A]) + \
            line[middle + 1:]


# ----------------------------------------------------------------------
# reading / repair
# ----------------------------------------------------------------------
class WalReadResult(NamedTuple):
    """Outcome of scanning a WAL file."""

    records: List[dict]
    valid_bytes: int     # offset of the first byte NOT covered by a
                         # valid record (== total_bytes when clean)
    total_bytes: int

    @property
    def torn(self) -> bool:
        return self.valid_bytes < self.total_bytes


def _parse_line(line: bytes) -> Optional[dict]:
    """One WAL line -> record dict, or ``None`` when invalid."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    body = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(body) != crc:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    if not isinstance(record, dict) or not isinstance(
            record.get("seq"), int):
        return None
    if record.get("kind") not in RECORD_KINDS:
        return None
    return record


def read_wal(path: PathLike) -> WalReadResult:
    """Scan a WAL file, CRC-validating every record.

    A partial/invalid *final* record (torn tail from a crash
    mid-append) is reported via :attr:`WalReadResult.torn` and excluded
    from ``records``; an invalid record *followed by more data* raises
    :class:`~repro.exceptions.WalCorruptionError` -- that is silent
    corruption, not a crash artifact, and must not be skipped over.

    A missing or zero-length file is a valid empty log.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return WalReadResult([], 0, 0)
    records: List[dict] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            break  # torn tail: unterminated final record
        record = _parse_line(data[offset:newline])
        if record is None:
            if newline == len(data) - 1:
                break  # invalid final record: torn/corrupt tail
            raise WalCorruptionError(
                f"{path}: corrupt WAL record at byte {offset} with "
                f"{len(data) - newline - 1} byte(s) of valid-looking "
                f"data after it; refusing to recover past a mid-file "
                f"hole (restore from snapshots or repair manually)"
            )
        records.append(record)
        offset = newline + 1
    return WalReadResult(records, offset, len(data))


def read_wal_since(path: PathLike, after_seq: int) -> List[dict]:
    """The contiguous WAL suffix with ``seq > after_seq``.

    The tailing contract (property-tested in
    ``tests/test_replication.py``): a reader positioned at any
    ``after_seq`` either gets every record after it -- consecutive
    sequence numbers, no skips, torn tails excluded like
    :func:`read_wal` -- or a typed
    :class:`~repro.exceptions.WalCompactedError` when compaction has
    already folded the requested range into snapshots (the reader then
    re-bootstraps from a snapshot instead).  Concurrent appends and
    rotations are safe: appends are atomic line writes and rotation is
    an atomic ``os.replace``, so any single read observes either the
    old or the new log, never a mix.
    """
    after_seq = int(after_seq)
    records = read_wal(path).records
    if records and records[0]["seq"] > after_seq + 1:
        raise WalCompactedError(
            f"records after seq {after_seq} were compacted away "
            f"(oldest still in the log: {records[0]['seq']}); "
            f"re-bootstrap from a snapshot",
            first_seq=records[0]["seq"],
        )
    return [record for record in records if record["seq"] > after_seq]


def repair_wal(path: PathLike) -> int:
    """Physically truncate a torn tail; returns the bytes removed.

    Appending after a torn record would bury it mid-file where
    :func:`read_wal` treats it as corruption, so the tail must be cut
    *before* the log is reopened for writing.
    """
    outcome = read_wal(path)
    removed = outcome.total_bytes - outcome.valid_bytes
    if removed > 0:
        with open(path, "rb+") as handle:
            handle.truncate(outcome.valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    return removed


# ----------------------------------------------------------------------
# the log
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Append-only, CRC-protected NDJSON log (see module docstring).

    Thread-safe: the scheduler mutates different graphs from different
    worker threads; ``append``/``commit``/``rotate`` serialize on an
    internal lock so records never interleave and ``seq`` stays
    strictly monotonic.
    """

    def __init__(
        self,
        path: PathLike,
        sync: str = "batch",
        fault_injector: Optional[FaultInjector] = None,
        next_seq: Optional[int] = None,
    ):
        path = Path(path)
        if path.is_dir():
            path = path / WAL_FILENAME
        if sync not in SYNC_POLICIES:
            raise WalError(
                f"unknown wal sync mode {sync!r} (choose from "
                f"{', '.join(SYNC_POLICIES)})"
            )
        self.path = path
        self.sync = sync
        self.fault = fault_injector if fault_injector is not None \
            else FaultInjector.from_env()
        self._mutex = threading.Lock()
        path.parent.mkdir(parents=True, exist_ok=True)
        self.repaired_bytes = repair_wal(path) if path.exists() else 0
        if next_seq is None:
            existing = read_wal(path).records
            next_seq = (existing[-1]["seq"] + 1) if existing else 1
        self._next_seq = int(next_seq)
        self._handle = open(path, "ab")
        self._dirty = False
        self.appended = 0
        self.syncs = 0
        self.control_syncs = 0
        self.rotations = 0
        #: Optional subscriber hook: called with every record dict
        #: (``seq`` assigned) right after it is durably appended, and
        #: with each rotation's checkpoint record.  The replication hub
        #: feeds live ``replicate`` streams from it; it runs under the
        #: log mutex, so implementations must be fast and non-blocking
        #: (the hub only enqueues onto per-follower queues).
        self.on_record = None

    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        return self._next_seq - 1

    def size_bytes(self) -> int:
        with self._mutex:
            return self._handle.tell() if not self._handle.closed else 0

    def stats(self) -> Dict[str, object]:
        return {
            "path": str(self.path),
            "sync": self.sync,
            "last_seq": self.last_seq,
            "bytes": self.size_bytes(),
            "appended": self.appended,
            "syncs": self.syncs,
            "control_syncs": self.control_syncs,
            "rotations": self.rotations,
            "repaired_bytes": self.repaired_bytes,
        }

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    @staticmethod
    def encode(record: dict) -> bytes:
        """One record -> its CRC-framed NDJSON line."""
        try:
            body = json.dumps(
                record, separators=(",", ":"), ensure_ascii=True,
            ).encode()
        except (TypeError, ValueError) as exc:
            raise WalError(
                f"WAL record is not JSON-serializable: {exc} (durable "
                f"mode requires JSON-representable node ids and labels, "
                f"which the wire protocol guarantees)"
            ) from exc
        if b"\n" in body:  # pragma: no cover - json never emits raw \n
            raise WalError("WAL record serialization produced a newline")
        return f"{zlib.crc32(body):08x} ".encode() + body + b"\n"

    def append(self, record: dict) -> int:
        """Durably (per sync mode) append one record; returns its seq.

        The record dict must not carry ``seq`` -- the log assigns it.
        On any failure (disk full, injected fault) nothing is applied
        to the store: callers append *before* mutating, so the graph
        and the log can never disagree in the dangerous direction
        (applied but unlogged).
        """
        if record.get("kind") not in RECORD_KINDS:
            raise WalError(f"unknown WAL record kind {record.get('kind')!r}")
        with self._mutex:
            active = self.fault.on_append() if self.fault else []
            if "crash-before-append" in active:
                self.fault.crash()
            if "disk-full" in active:
                raise OSError(
                    errno.ENOSPC, "No space left on device (injected)"
                )
            seq = self._next_seq
            line = self.encode(dict(record, seq=seq))
            if "corrupt-append" in active:
                line = FaultInjector.corrupt(line)
            if "torn-append" in active:
                self._handle.write(line[:max(1, len(line) // 2)])
                self._handle.flush()
                self.fault.crash()
            try:
                self._handle.write(line)
                self._handle.flush()
            except OSError:
                # A partial write is a torn tail; reopening repairs it.
                raise
            self._next_seq = seq + 1
            self._dirty = True
            self.appended += 1
            if "crash-after-append" in active:
                self.fault.crash()
            if self.sync == "always":
                self._fsync()
            elif self.sync == "batch" \
                    and record.get("kind") in CONTROL_KINDS:
                self._fsync()
                self.control_syncs += 1
            if "crash-after-fsync" in active:
                self.fault.crash()
            if self.on_record is not None:
                self.on_record(dict(record, seq=seq))
            return seq

    def _fsync(self) -> None:
        from repro.obs.profiling import phase

        with phase("wal.fsync"):
            os.fsync(self._handle.fileno())
        self._dirty = False
        self.syncs += 1

    def commit(self) -> None:
        """Make every appended record durable (fsync once if dirty).

        The micro-batch scheduler calls this after each coalesced
        mutation batch and before any future resolves, so in ``batch``
        mode an acknowledgement still implies durability -- the fsync
        is merely amortized over the batch.  ``off`` mode never syncs.
        """
        with self._mutex:
            if self.sync != "off" and self._dirty \
                    and not self._handle.closed:
                self._fsync()

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def rotate(self, checkpoint: dict) -> Dict[str, int]:
        """Atomically replace the log with one checkpoint record.

        The caller (``GraphStore.compact``) has already written
        content-fingerprinted snapshots for every registered graph;
        ``checkpoint`` carries the per-graph WAL watermarks and the
        applied-request-id map those snapshots stand for.  Write temp +
        fsync + ``os.replace`` + directory fsync: a crash anywhere
        leaves either the old complete log or the new checkpointed one.
        """
        if checkpoint.get("kind") != "checkpoint":
            raise WalError("rotate() takes a checkpoint record")
        with self._mutex:
            old_bytes = self._handle.tell()
            seq = self._next_seq
            line = self.encode(dict(checkpoint, seq=seq))
            temp = self.path.with_name(self.path.name + ".rotate")
            with open(temp, "wb") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            active = self.fault.on_rotate() if self.fault else []
            if "crash-before-rotate-rename" in active:
                self.fault.crash()
            self._handle.close()
            os.replace(temp, self.path)
            self._fsync_dir()
            self._next_seq = seq + 1
            self._handle = open(self.path, "ab")
            self._dirty = False
            self.rotations += 1
            if self.on_record is not None:
                self.on_record(dict(checkpoint, seq=seq))
            return {"reclaimed_bytes": old_bytes - len(line),
                    "checkpoint_seq": seq}

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._mutex:
            if not self._handle.closed:
                if self.sync != "off" and self._dirty:
                    self._fsync()
                self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<WriteAheadLog {self.path} sync={self.sync} "
            f"last_seq={self.last_seq}>"
        )
