"""WAL-shipping replication: read replicas of a served GraphStore.

The write-ahead log already *is* a total order over every durable state
change (see :mod:`repro.service.wal`), so replication needs no second
protocol: a follower bootstraps from the primary's warm snapshot
payloads, then tails the primary's WAL over the same NDJSON connection
every client uses and applies each record through the same
:class:`~repro.service.recovery.WalReplayer` crash recovery uses.  A
follower is therefore *bitwise identical* to "the primary, had it
crashed and recovered at that sequence number" -- which is bitwise
identical to the primary itself.

Wire shape of the ``replicate`` op (one per dedicated connection)::

    -> {"id": 1, "op": "replicate", "after": 41}
    <- {"id": 1, "ok": true, "result": {"stream": true, "head": 45}}
    <- <crc32> {"kind":"mutate","graph":"g","ops":[...],"seq":42,"head":45}
    <- <crc32> {"kind":"mutate","graph":"g","ops":[...],"seq":43,"head":45}
    <- <crc32> {"kind":"heartbeat","head":45,"ts":...}
    ...

Every shipped record is stamped with the primary's WAL head *at ship
time*: heartbeats only flow on an idle stream, so while a follower
drains a backlog under live write load the per-record stamp is the only
signal that keeps ``repro_replica_lag_records`` honest about how far
behind the apply loop actually is.

After the single header response line the connection becomes a one-way
stream of CRC-framed records -- the exact framing of WAL lines on disk,
so a torn frame (primary died mid-write, injected ``torn-ship`` fault)
is detected the same way a torn WAL tail is, and the follower simply
reconnects and resumes from its watermark.  Heartbeats flow on an idle
stream so the follower can measure wall-clock staleness and a replica
set client can health-gate routing.

Resume rules (the watermark contract):

- the follower's only cursor is ``applied_seq`` -- the newest record it
  has fully applied.  Reconnecting with ``after=applied_seq`` replays
  nothing and skips nothing: :func:`~repro.service.wal.read_wal_since`
  serves a contiguous suffix or raises the typed
  :class:`~repro.exceptions.WalCompactedError`;
- a connection blip therefore **never** re-bootstraps -- the follower
  resumes mid-stream after the backoff;
- only when the primary compacted the requested range away (the
  ``compacted`` error) does the follower fall back to a fresh
  ``replica_bootstrap``: the primary pickles each graph's
  :func:`~repro.service.snapshot.build_snapshot_payload` under an
  all-graph exclusive lock and the follower adopts the payloads in
  place of its stale state.

The primary side is push-based and allocation-light: a
:class:`ReplicationHub` subscribes to
:attr:`~repro.service.wal.WriteAheadLog.on_record` (called under the
WAL mutex, so the hook only enqueues) and fans every durable record out
to per-follower asyncio queues.  Subscribing *before* reading the disk
backlog -- then deduplicating by sequence number -- closes the classic
gap where a record lands between "read the file" and "listen for new
ones".
"""

from __future__ import annotations

import asyncio
import base64
import json
import pickle
import random
import time
import zlib
from typing import Dict, List, Optional, Tuple

from repro.obs import log as obs_log
from repro.obs import metrics, tracing
from repro.exceptions import (
    ReplicaLaggingError,
    ServiceConnectionError,
    ServiceError,
    WalCompactedError,
    WalError,
)
from repro.service.recovery import RecoveryReport, WalReplayer
from repro.service.snapshot import adopt_snapshot_payload
from repro.service.wal import (
    RECORD_KINDS,
    FaultInjector,
    read_wal_since,
)

logger = obs_log.get_logger("service.replication")

#: Stream-control frame kind (not a WAL record; never applied).
HEARTBEAT_KIND = "heartbeat"

FRAME_KINDS = RECORD_KINDS + (HEARTBEAT_KIND,)

#: Heartbeat cadence on an idle stream; also the follower's unit of
#: wall-clock staleness resolution.
HEARTBEAT_INTERVAL = 0.25

#: A stream with no frame (not even a heartbeat) for this long is dead
#: (primary SIGKILLed mid-ship leaves the TCP peer half-open).
STREAM_STALL_TIMEOUT = 10.0


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(obj: dict) -> bytes:
    """One stream frame: the WAL's CRC-framed NDJSON line format."""
    body = json.dumps(obj, separators=(",", ":"), ensure_ascii=True).encode()
    return f"{zlib.crc32(body):08x} ".encode() + body + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one stream frame; raises :class:`WalError` on a torn frame.

    Identical validation to a WAL line on disk (length, CRC, JSON,
    known kind) -- a frame cut short by a primary dying mid-``write``
    fails the CRC exactly like a torn WAL tail, and the follower treats
    it as a connection failure (reconnect and resume), never as data.
    """
    line = line.rstrip(b"\n")
    if len(line) < 10 or line[8:9] != b" ":
        raise WalError(
            f"torn replication frame ({len(line)} byte(s)); resuming "
            f"from the watermark"
        )
    body = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        raise WalError("torn replication frame (bad CRC field)") from None
    if zlib.crc32(body) != crc:
        raise WalError("torn replication frame (CRC mismatch)")
    try:
        frame = json.loads(body)
    except ValueError:
        raise WalError("torn replication frame (bad JSON body)") from None
    if not isinstance(frame, dict) or frame.get("kind") not in FRAME_KINDS:
        raise WalError(
            f"unknown replication frame kind "
            f"{frame.get('kind') if isinstance(frame, dict) else '?'!r}"
        )
    return frame


# ----------------------------------------------------------------------
# primary side
# ----------------------------------------------------------------------
class ReplicationHub:
    """Fans durably appended WAL records out to ``replicate`` streams.

    One hub per primary server.  :meth:`attach` installs the WAL's
    ``on_record`` hook; the hook runs on whichever worker thread holds
    the WAL mutex and only trampolines into the event loop
    (``call_soon_threadsafe``), so the append hot path never blocks on
    a slow follower.  Per-follower queues are unbounded: a stalled
    follower buffers records (bounded in practice by WAL growth between
    compactions) and is cut loose by its own TCP backpressure, not by
    dropping records.
    """

    def __init__(self, store, heartbeat: float = HEARTBEAT_INTERVAL):
        self.store = store
        self.heartbeat = max(float(heartbeat), 0.01)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queues: Dict[int, asyncio.Queue] = {}
        self.followers: Dict[int, dict] = {}
        self._next_token = 0
        self.shipped_records = 0
        self.heartbeats_sent = 0

    # -- lifecycle -----------------------------------------------------
    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        if self.store.wal is not None:
            self.store.wal.on_record = self._publish

    def detach(self) -> None:
        wal = self.store.wal
        if wal is not None and wal.on_record == self._publish:
            wal.on_record = None
        self._loop = None

    # -- record fan-out ------------------------------------------------
    def _publish(self, record: dict) -> None:
        """WAL ``on_record`` hook (worker thread, under the log mutex)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._fanout, record)
        except RuntimeError:  # loop torn down mid-shutdown
            pass

    def _fanout(self, record: dict) -> None:
        for queue in list(self._queues.values()):
            queue.put_nowait(record)

    # -- subscriptions -------------------------------------------------
    def subscribe(self, peer: str,
                  advertise: Optional[str] = None
                  ) -> Tuple[int, asyncio.Queue]:
        self._next_token += 1
        token = self._next_token
        self._queues[token] = asyncio.Queue()
        self.followers[token] = {
            "peer": peer,
            #: The follower's *served* address (its ephemeral stream
            #: port is useless for scraping) -- what ``cluster_metrics``
            #: dials.
            "advertise": advertise,
            "since": time.time(),
            "sent_seq": 0,
            "records": 0,
        }
        return token, self._queues[token]

    def advertised(self) -> List[str]:
        """Scrapeable addresses of the live followers (dedup, stable)."""
        out: List[str] = []
        for entry in self.followers.values():
            address = entry.get("advertise")
            if address and address not in out:
                out.append(address)
        return out

    def unsubscribe(self, token: Optional[int]) -> None:
        if token is not None:
            self._queues.pop(token, None)
            self.followers.pop(token, None)

    def backlog(self, after: int) -> List[dict]:
        """The durable suffix after ``after`` (blocking; run in an
        executor).  Raises :class:`WalCompactedError` when compaction
        folded that range into snapshots."""
        return read_wal_since(self.store.wal.path, after)

    def stats(self) -> dict:
        return {
            "followers": [dict(entry) for entry in self.followers.values()],
            "shipped_records": self.shipped_records,
            "heartbeats_sent": self.heartbeats_sent,
        }

    # -- the stream pump -----------------------------------------------
    async def ship(self, writer: asyncio.StreamWriter,
                   write_lock: asyncio.Lock, token: int,
                   queue: asyncio.Queue, after: int,
                   backlog: List[dict]) -> None:
        """Pump frames to one follower until the connection dies.

        ``backlog`` was read *after* ``queue`` was subscribed, so every
        record is in at least one of the two; ``last_sent`` dedups the
        overlap.  Runs until cancelled or the transport fails -- the
        caller owns (un)subscription.
        """
        wal = self.store.wal
        follower = self.followers.get(token, {})
        last_sent = int(after)
        for record in backlog:
            last_sent = await self._send_record(
                writer, write_lock, follower, record, last_sent
            )
        while True:
            try:
                record = await asyncio.wait_for(
                    queue.get(), timeout=self.heartbeat
                )
            except asyncio.TimeoutError:
                heartbeat = {
                    "kind": HEARTBEAT_KIND,
                    "head": wal.last_seq,
                    "ts": time.time(),
                }
                async with write_lock:
                    writer.write(encode_frame(heartbeat))
                    await writer.drain()
                self.heartbeats_sent += 1
                continue
            last_sent = await self._send_record(
                writer, write_lock, follower, record, last_sent
            )

    async def _send_record(self, writer, write_lock, follower,
                           record: dict, last_sent: int) -> int:
        seq = int(record["seq"])
        if seq <= last_sent:
            return last_sent
        wal = self.store.wal
        active = wal.fault.on_ship() if wal is not None and wal.fault \
            else []
        if "crash-mid-ship" in active:
            wal.fault.crash()
        line = encode_frame(dict(record, ts=time.time(),
                                 head=wal.last_seq))
        async with write_lock:
            if "torn-ship" in active:
                writer.write(line[:max(1, len(line) // 2)])
                await writer.drain()
                raise ConnectionResetError(
                    "injected torn-ship: frame cut mid-write"
                )
            writer.write(line)
            await writer.drain()
        self.shipped_records += 1
        if follower:
            follower["sent_seq"] = seq
            follower["records"] += 1
        return seq


# ----------------------------------------------------------------------
# follower side
# ----------------------------------------------------------------------
class ReplicationTail:
    """A follower's tailing loop: bootstrap, stream, apply, reconnect.

    Owned by a replica-mode :class:`~repro.service.server.FSimServer`;
    runs as one asyncio task on the server's loop.  Records are applied
    under the scheduler's per-graph exclusive locks on a worker thread,
    so replicated mutations serialize against read batches exactly like
    the primary's own writes do -- a read never observes half an
    applied record.

    Reconnection uses capped exponential backoff with **full jitter**
    (``uniform(0, min(cap, base * 2**attempt))``); the attempt counter
    resets after any healthy stream, so a long-lived follower recovers
    from a blip in ~``base`` seconds while a hard-down primary is not
    hammered.

    State transitions emit structured ``replica.*`` events through the
    shared :mod:`repro.obs.log` tree, each stamped with a
    per-connection trace id, and lag crossings use hysteresis: a
    ``replica.lag`` ``state=behind`` event fires when record lag
    reaches :data:`LAG_EVENT_THRESHOLD` and ``state=caught_up`` only
    once lag returns to zero -- no event storm while hovering.
    """

    #: Record-lag hysteresis threshold for ``replica.lag`` events.
    LAG_EVENT_THRESHOLD = 64

    def __init__(self, server, primary: str,
                 fault_injector: Optional[FaultInjector] = None,
                 backoff_base: float = 0.05, backoff_max: float = 2.0,
                 connect_timeout: float = 5.0,
                 stall_timeout: float = STREAM_STALL_TIMEOUT):
        host, _, port = primary.rpartition(":")
        if not host or not port.isdigit():
            raise ServiceError(
                f"--replicate-from needs HOST:PORT, got {primary!r}"
            )
        self.server = server
        self.store = server.store
        self.primary = primary
        self.primary_host = host
        self.primary_port = int(port)
        self.fault = fault_injector if fault_injector is not None \
            else FaultInjector.from_env()
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.connect_timeout = float(connect_timeout)
        self.stall_timeout = float(stall_timeout)
        self._rng = random.Random()
        self._stopping = False
        self._need_bootstrap = True
        self._session_streamed = False
        # -- watermark + lag state ------------------------------------
        #: Newest fully applied sequence number (THE resume cursor).
        self.applied_seq = 0
        #: Primary's newest durable seq, as last advertised.  ``None``
        #: until the first successful stream header.
        self.head_seq: Optional[int] = None
        #: Wall clock of the last instant this follower *knew* it was
        #: caught up (``applied_seq >= head_seq`` at frame receipt).
        self.freshness_ts: Optional[float] = None
        self.connected = False
        # -- counters --------------------------------------------------
        self.reconnects = 0
        self.bootstraps = 0
        self.applied_records = 0
        self.heartbeats = 0
        self._replayer = self._fresh_replayer()
        #: Trace id of the current connection attempt: rides every
        #: request to the primary and every structured event below.
        self._conn_trace = tracing.new_trace_id()
        self._lag_behind = False
        self._m_lag = metrics.gauge(
            "repro_replica_lag_records",
            "Records this replica is behind its primary.")
        self._m_connected = metrics.gauge(
            "repro_replica_connected",
            "1 while the replication stream is live.")

    # ------------------------------------------------------------------
    # lag / staleness
    # ------------------------------------------------------------------
    def lag(self) -> Tuple[Optional[int], Optional[float]]:
        """``(lag_records, lag_seconds)`` -- ``None`` means unknown."""
        if self.head_seq is None:
            return None, None
        records = max(0, self.head_seq - self.applied_seq)
        seconds = None
        if self.freshness_ts is not None:
            seconds = max(0.0, time.time() - self.freshness_ts)
        return records, seconds

    def check_staleness(self, max_lag, max_lag_seconds) -> None:
        """Enforce a read's bounded-staleness contract (server dispatch).

        Rejecting is deliberate: a replica that cannot *prove* it is
        within the bound (never connected -> lag unknown) refuses the
        read rather than guessing, and the client fails over to the
        primary.
        """
        if max_lag is None and max_lag_seconds is None:
            return
        records, seconds = self.lag()
        if records is None:
            raise ReplicaLaggingError(
                "replica has never reached its primary; lag unknown"
            )
        if max_lag is not None and records > int(max_lag):
            raise ReplicaLaggingError(
                f"replica is {records} record(s) behind the primary "
                f"(bound: max_lag={int(max_lag)})",
                lag_records=records, lag_seconds=seconds,
            )
        if max_lag_seconds is not None and (
                seconds is None or seconds > float(max_lag_seconds)):
            shown = "unknown" if seconds is None else f"{seconds:.3f}s"
            raise ReplicaLaggingError(
                f"replica staleness {shown} exceeds "
                f"max_lag_seconds={float(max_lag_seconds)}",
                lag_records=records, lag_seconds=seconds,
            )

    def stats(self) -> dict:
        records, seconds = self.lag()
        return {
            "primary": self.primary,
            "connected": self.connected,
            "applied_seq": self.applied_seq,
            "head_seq": self.head_seq,
            "lag_records": records,
            "lag_seconds": seconds,
            "reconnects": self.reconnects,
            "bootstraps": self.bootstraps,
            "applied_records": self.applied_records,
            "heartbeats": self.heartbeats,
        }

    # ------------------------------------------------------------------
    # the tailing loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Tail forever (until cancelled), healing every failure mode."""
        attempt = 0
        while not self._stopping:
            self._session_streamed = False
            self._conn_trace = tracing.new_trace_id()
            try:
                await self._tail_once()
            except asyncio.CancelledError:
                raise
            except (ConnectionError, OSError, EOFError,
                    asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ServiceError, WalError) as exc:
                obs_log.log_event(
                    logger, "replica.disconnected",
                    primary=self.primary, error=str(exc) or repr(exc),
                    streamed=self._session_streamed,
                    trace_id=self._conn_trace,
                )
            except Exception:  # pragma: no cover - defensive
                logger.exception("replication tail error; reconnecting")
            finally:
                self.connected = False
                self._m_connected.set(0)
            if self._stopping:
                break
            # A session that reached streaming resets the backoff: a
            # blip after hours of health reconnects in ~base seconds.
            attempt = 1 if self._session_streamed else attempt + 1
            delay = min(self.backoff_max,
                        self.backoff_base * (2 ** (attempt - 1)))
            await asyncio.sleep(self._rng.uniform(0.0, delay))
            self.reconnects += 1

    def stop(self) -> None:
        self._stopping = True

    async def _tail_once(self) -> None:
        """One connection's lifetime; exits by raising, or by returning
        once :meth:`stop` was called."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(
                self.primary_host, self.primary_port, limit=1 << 22
            ),
            timeout=self.connect_timeout,
        )
        try:
            if self._need_bootstrap:
                await self._bootstrap(reader, writer)
            advertise = f"{self.server.host}:{self.server.port}"
            try:
                header = await self._request(
                    reader, writer, "replicate", after=self.applied_seq,
                    advertise=advertise,
                )
            except WalCompactedError:
                # The suffix we need was folded into snapshots while we
                # were away: fall back to a fresh warm bootstrap on this
                # same connection, then resume the stream.
                self._need_bootstrap = True
                await self._bootstrap(reader, writer)
                header = await self._request(
                    reader, writer, "replicate", after=self.applied_seq,
                    advertise=advertise,
                )
            self._observe_head(int(header["result"]["head"]))
            self.connected = True
            self._m_connected.set(1)
            self._session_streamed = True
            obs_log.log_event(
                logger, "replica.connected",
                primary=self.primary, after=self.applied_seq,
                head=self.head_seq, trace_id=self._conn_trace,
            )
            # Python 3.11's wait_for returns the line instead of raising
            # when a cancel lands just as the line arrives, so a stopping
            # tail must also leave by checking the flag.
            while not self._stopping:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.stall_timeout
                )
                if not line:
                    raise ServiceConnectionError(
                        "replication stream closed by the primary"
                    )
                await self._handle_frame(decode_frame(line))
        finally:
            self.connected = False
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_frame(self, frame: dict) -> None:
        if frame["kind"] == HEARTBEAT_KIND:
            self.heartbeats += 1
            self._observe_head(int(frame["head"]))
            return
        active = self.fault.on_apply() if self.fault else []
        if "crash-mid-apply" in active:
            self.fault.crash()
        if "partition" in active:
            raise ServiceConnectionError(
                "injected partition: replication link dropped"
            )
        seq = int(frame["seq"])
        names = [frame["graph"]] if "graph" in frame \
            else self.store.graph_names()
        trace_id = frame.get("trace")

        def _apply() -> None:
            # Worker thread: a record stamped with its originating
            # trace id records its apply into THIS server's recorder,
            # so the client's merged trace shows the replica hop.
            if trace_id is None:
                self._replayer.apply(frame)
                return
            handle = self.server.recorder.begin(str(trace_id),
                                                "replica.apply")
            with tracing.use_sink((handle,)), \
                    handle.span("replica.apply",
                                graph=frame.get("graph"), seq=seq):
                self._replayer.apply(frame)
            self.server.recorder.finish(handle)

        loop = asyncio.get_running_loop()
        async with self.server.scheduler.exclusive(names):
            await loop.run_in_executor(None, _apply)
        self.applied_seq = max(self.applied_seq, seq)
        self.applied_records += 1
        # Prefer the ship-time head stamp: during a backlog drain the
        # record's own seq trails the primary's head by the whole
        # backlog, and no heartbeats flow on a busy stream.
        self._observe_head(int(frame.get("head", seq)))

    def _observe_head(self, head: int) -> None:
        self.head_seq = max(self.head_seq or 0, head)
        if self.applied_seq >= self.head_seq:
            self.freshness_ts = time.time()
        lag = max(0, self.head_seq - self.applied_seq)
        self._m_lag.set(lag)
        if not self._lag_behind and lag >= self.LAG_EVENT_THRESHOLD:
            self._lag_behind = True
            obs_log.log_event(
                logger, "replica.lag", state="behind",
                lag_records=lag, primary=self.primary,
                trace_id=self._conn_trace,
            )
        elif self._lag_behind and lag == 0:
            self._lag_behind = False
            obs_log.log_event(
                logger, "replica.lag", state="caught_up",
                lag_records=0, primary=self.primary,
                trace_id=self._conn_trace,
            )

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    async def _bootstrap(self, reader, writer) -> None:
        """Adopt the primary's warm snapshot payloads; set the cursor.

        The primary built the payloads and read ``last_seq`` under an
        all-graph exclusive lock, so adopting them and resuming the
        stream at ``after=last_seq`` loses nothing and re-applies
        nothing.
        """
        response = await self._request(reader, writer, "replica_bootstrap")
        result = response["result"]
        payloads = {
            name: pickle.loads(base64.b64decode(blob))
            for name, blob in result["graphs"].items()
        }
        names = set(payloads) | set(self.store.graph_names())
        loop = asyncio.get_running_loop()
        async with self.server.scheduler.exclusive(sorted(names)):
            await loop.run_in_executor(None, self._adopt, payloads)
        self.applied_seq = int(result["last_seq"])
        self._replayer = self._fresh_replayer()
        self._need_bootstrap = False
        self.bootstraps += 1
        obs_log.log_event(
            logger, "replica.bootstrap",
            graphs=len(payloads), primary=self.primary,
            seq=self.applied_seq, trace_id=self._conn_trace,
        )

    def _adopt(self, payloads: Dict[str, dict]) -> None:
        """Install bootstrap payloads (worker thread, locks held).

        The replay flag is the read-only gate's pass: the bootstrap is
        replicated state, exactly like a streamed record.
        """
        store = self.store
        was_replaying = store._wal_replaying
        store._wal_replaying = True
        try:
            for name in sorted(payloads):
                adopt_snapshot_payload(
                    store, payloads[name], replace=True,
                    origin=f"replica://{self.primary}/{name}",
                )
            for name in list(store.graph_names()):
                if name not in payloads:  # dropped on the primary
                    store.unregister(name)
        finally:
            store._wal_replaying = was_replaying

    def _fresh_replayer(self) -> WalReplayer:
        report = RecoveryReport(wal_path=f"replicate://{self.primary}")
        report.last_seq = self.applied_seq
        return WalReplayer(self.store, None, report)

    # ------------------------------------------------------------------
    # primary RPC
    # ------------------------------------------------------------------
    async def _request(self, reader, writer, op: str, **fields) -> dict:
        message = dict({"id": f"tail-{op}", "op": op,
                        "trace": self._conn_trace}, **fields)
        writer.write(
            json.dumps(message, separators=(",", ":")).encode() + b"\n"
        )
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(),
                                      timeout=self.stall_timeout * 6)
        if not line:
            raise ServiceConnectionError(
                f"primary closed the connection during {op!r}"
            )
        response = json.loads(line)
        if not response.get("ok"):
            error = response.get("error", "unknown error")
            if response.get("compacted"):
                raise WalCompactedError(
                    error, first_seq=response.get("first_seq", 0)
                )
            raise ServiceError(f"{op!r} rejected by primary: {error}")
        return response
