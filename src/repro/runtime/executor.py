"""The worker pool of the parallel runtime.

An :class:`Executor` exposes three workload shapes:

``sweep_session(vectorized)``
    Context manager yielding a drop-in ``sweep(scores, upd)`` for the
    vectorized fixed-point loop (or ``None`` to keep the caller's own
    serial sweep).  The parallel form shards the dirty pair positions
    into contiguous ranges.

``pair_session(engine, shards)``
    Context manager yielding ``step(prev) -> (scores, max_delta)`` for
    the reference (dict) engine: one synchronous Jacobi iteration over
    the pre-sharded candidate pairs, with the max-delta reduction done
    shard-locally in the workers (or ``None`` for serial).

``run_queries(engines)``
    Whole-query sharding for multi-query batches.  Returns a list of
    ``(position, scores, iterations, converged, deltas, num_candidates)``
    tuples, or ``None`` to make the caller run serially.

:class:`SerialExecutor` answers ``None`` everywhere (``workers == 1``).
:class:`SharedMemoryExecutor` is the one worker pool: a persistent pool
(reused across queries, top-k batches and streaming updates), created
lazily -- a session that never crosses the parallel threshold never
starts a process -- plus a parent-owned shared-memory arena
double-buffering the sweep state (scores in, Equation-3 values out).
Per sweep, the only task payload is a pair-id range descriptor; workers
write results directly into the output buffer, so no per-iteration
array crosses the process boundary in either direction.  Session state
(the compiled arrays) is broadcast once per session through a pickled
shared-memory block, which makes the pool start-method agnostic: it
runs under both ``fork`` and ``spawn``.
"""

from __future__ import annotations

import atexit
import copy
import multiprocessing
import threading
import os
import pickle
import struct
import time
import warnings
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import update_pairs
from repro.exceptions import ConfigError

#: Sweeps with fewer dirty positions than this never leave the parent
#: process: per-task dispatch overhead (hundreds of microseconds per
#: worker) dwarfs the vectorized sweep arithmetic below it.  Also the
#: pool-spawn gate -- a session whose sweeps all stay below it never
#: creates a pool at all.
MIN_PARALLEL_UPD = 1024

#: Same gate for the reference (dict) engine's pair updates.  A python
#: ``update_pair`` costs orders of magnitude more than one vectorized
#: lane, so its break-even sits far lower than MIN_PARALLEL_UPD.
MIN_PARALLEL_PAIRS = 64

#: Environment override for the pool start method ("fork" / "spawn" /
#: "forkserver").  CI uses it to exercise the spawn path on Linux.
START_METHOD_ENV = "REPRO_RUNTIME_START_METHOD"

_HEADER = struct.Struct("<Q")


def preferred_start_method() -> str:
    """The multiprocessing start method the runtime will use."""
    forced = os.environ.get(START_METHOD_ENV)
    methods = multiprocessing.get_all_start_methods()
    if forced:
        if forced not in methods:
            raise ConfigError(
                f"{START_METHOD_ENV}={forced!r} is not a start method on "
                f"this platform (available: {methods})"
            )
        return forced
    return "fork" if "fork" in methods else "spawn"


def _dumps(payload) -> bytes:
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# shared-memory plumbing (parent side)
# ----------------------------------------------------------------------
class _ParentBuffer:
    """One parent-owned shared-memory block with a typed flat view."""

    def __init__(self, dtype, capacity: int):
        import numpy as np
        from multiprocessing import shared_memory

        self.dtype = np.dtype(dtype)
        self.capacity = int(capacity)
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(self.capacity * self.dtype.itemsize, 1)
        )
        self.view = np.frombuffer(
            self.shm.buf, dtype=self.dtype, count=self.capacity
        )

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        self.view = None  # release the exported memoryview first
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class _PayloadBlock:
    """A pickled session payload published through shared memory.

    Workers attach by name and unpickle once per session; the parent
    pays one pickle per session instead of one per task (and none per
    iteration).
    """

    def __init__(self, payload: bytes, session_id: int):
        from multiprocessing import shared_memory

        self.session_id = session_id
        self.shm = shared_memory.SharedMemory(
            create=True, size=_HEADER.size + len(payload)
        )
        self.shm.buf[:_HEADER.size] = _HEADER.pack(len(payload))
        self.shm.buf[_HEADER.size:_HEADER.size + len(payload)] = payload

    @property
    def name(self) -> str:
        return self.shm.name

    def seal(self) -> None:
        """Release this process's mapping of the block.

        The pages stay alive in the kernel under the block's name --
        workers attach and read as usual, and :meth:`close` can still
        unlink by name -- but they stop counting against the publishing
        process's resident set.  A sealed block cannot be read locally
        again, so only publish-and-forget payloads (sharded slices,
        journal deltas) seal."""
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover
            pass

    def close(self) -> None:
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass


def round_robin_shards(items: Sequence, workers: int) -> List[list]:
    """Round-robin shards of ``items``, one per worker (input order kept
    within each shard).  The single sharding policy of the runtime:
    the dict-engine pair shards and the whole-query shards both use it,
    so parent loops and workers agree on ordering by construction.
    """
    items = list(items)
    workers = max(int(workers), 1)
    return [items[index::workers] for index in range(workers)]


def _shard_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges like ``np.array_split``."""
    shards = max(min(shards, total), 1)
    base, extra = divmod(total, shards)
    bounds = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    return bounds


def _dumps_compiled(compiled, wrap) -> bytes:
    """Pickle ``wrap(compiled)`` for the workers.

    Workers never call the label / init / filter callables (those are
    lowered into the compiled arrays), so when the config holds an
    unpicklable callable the payload is retried with a copy of the
    instance whose config names a registered label function instead.
    Raises when even that copy cannot be pickled.
    """
    try:
        return _dumps(wrap(compiled))
    except Exception:
        from dataclasses import replace

        clone = copy.copy(compiled)
        clone.config = replace(
            compiled.config,
            label_function="indicator",
            init_function=None,
            candidate_filter=None,
        )
        return _dumps(wrap(clone))


def _transportable_vectorized(vectorized) -> Optional[bytes]:
    """The pickled sweep-session payload, or ``None`` when unpicklable."""
    try:
        return _dumps_compiled(
            vectorized.compiled, lambda compiled: {"sweep": compiled}
        )
    except Exception:
        return None


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-worker cache of shared-memory sessions: (payload name, session
#: id) -> {"state": unpickled payload, "applied": patch-journal entries
#: replayed so far}.  A small LRU (rather than the old single slot) so a
#: service alternating between a few long-lived sessions does not
#: re-unpickle the broadcast state on every switch.
_WORKER_SESSIONS: "OrderedDict[tuple, dict]" = OrderedDict()

_WORKER_SESSION_LIMIT = 4

#: Per-worker cache of attached data buffers, keyed by block name.
_WORKER_BUFFERS: Dict[str, object] = {}

#: Bound on stale buffer attachments kept per worker (growth is rare;
#: eviction only reclaims fds, correctness never depends on it).
_WORKER_BUFFER_LIMIT = 12


def _attach_block(name: str):
    shm = _WORKER_BUFFERS.get(name)
    if shm is None:
        from multiprocessing import shared_memory

        if len(_WORKER_BUFFERS) >= _WORKER_BUFFER_LIMIT:
            for stale_name, stale in list(_WORKER_BUFFERS.items()):
                try:
                    stale.close()
                except BufferError:  # pragma: no cover
                    continue
                del _WORKER_BUFFERS[stale_name]
        # Worker-side attachments re-register with the (shared) resource
        # tracker; that is idempotent -- the parent's unlink at close
        # time unregisters the name exactly once.
        shm = shared_memory.SharedMemory(name=name)
        _WORKER_BUFFERS[name] = shm
    return shm


def _read_payload(payload_name: str):
    """Unpickle one published payload block (uncached)."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=payload_name)
    try:
        (length,) = _HEADER.unpack_from(shm.buf, 0)
        return pickle.loads(
            bytes(shm.buf[_HEADER.size:_HEADER.size + length])
        )
    finally:
        shm.close()


def _load_session(payload_name: str, session_id: int):
    """The unpickled session state, cached per worker per session."""
    key = (payload_name, session_id)
    entry = _WORKER_SESSIONS.get(key)
    if entry is None:
        entry = {"state": _read_payload(payload_name), "applied": 0}
        while len(_WORKER_SESSIONS) >= _WORKER_SESSION_LIMIT:
            _WORKER_SESSIONS.popitem(last=False)
        _WORKER_SESSIONS[key] = entry
    else:
        _WORKER_SESSIONS.move_to_end(key)
    return entry


def _replay_patch_journal(entry: dict, delta_name: str,
                          journal_len: int) -> None:
    """Bring a cached sweep session up to date with the parent's patches.

    The parent broadcasts the full compiled state once per channel and
    then ships only the recorded graph deltas (see :class:`SweepChannel`);
    :func:`~repro.streaming.patch.replay_journal_entry` leaves the
    worker's cached copy identical to the parent's -- at O(delta)
    broadcast cost.
    """
    if journal_len <= entry["applied"]:
        return
    from repro.streaming.patch import replay_journal_entry

    journal = _read_payload(delta_name)["journal"]
    compiled = entry["state"]["sweep"]
    for patch in journal[entry["applied"]:journal_len]:
        replay_journal_entry(compiled, patch)
    entry["applied"] = journal_len
    # The engine caches per-structure state keyed on the pre-patch
    # structures -- rebuild it from the patched compiled instance.
    entry["state"].pop("engine", None)


def _shm_sweep_worker(task) -> None:
    """Sweep one pair-id range, writing into the shared output buffer."""
    (payload_name, session_id, delta_name, journal_len,
     scores_name, scores_cap, upd_name, upd_cap,
     out_name, out_cap, scores_len, upd_len, start, stop) = task
    import numpy as np

    entry = _load_session(payload_name, session_id)
    _replay_patch_journal(entry, delta_name, journal_len)
    state = entry["state"]
    engine = state.get("engine")
    if engine is None:
        from repro.core.vectorized import VectorizedFSimEngine

        engine = VectorizedFSimEngine(state["sweep"])
        state["engine"] = engine
    scores = np.frombuffer(
        _attach_block(scores_name).buf, dtype=np.float64, count=scores_cap
    )[:scores_len]
    upd = np.frombuffer(
        _attach_block(upd_name).buf, dtype=np.int64, count=upd_cap
    )[:upd_len]
    out = np.frombuffer(
        _attach_block(out_name).buf, dtype=np.float64, count=out_cap
    )
    engine.sweep(scores, upd[start:stop], out=out[start:stop])


def _shm_pair_worker(task) -> Tuple[dict, float]:
    payload_name, session_id, shard_index, prev_name = task
    state = _load_session(payload_name, session_id)["state"]
    engine, shards = state["pairs"]
    # prev travels through its own per-iteration block (pickled once by
    # the parent, not once per task); read uncached so it never evicts
    # the session state above.
    prev = _read_payload(prev_name)
    return update_pairs(engine, shards[shard_index], prev)


def _query_result_row(engine, position: int) -> tuple:
    result = engine.run(workers=1)
    # The fallback callable is a bound method of the worker's engine
    # copy; the parent reattaches its own instead of pickling it.
    return (
        position, result.scores, result.iterations, result.converged,
        result.deltas, result.num_candidates,
    )


def _shm_query_worker(task) -> List[tuple]:
    payload_name, session_id = task
    state = _load_session(payload_name, session_id)["state"]
    shard_engines, positions = state["query_shard"]
    return [_query_result_row(engine, position)
            for engine, position in zip(shard_engines, positions)]


def _drop_worker_session(_=None) -> None:
    """Release this worker's cached session state (see
    ``SharedMemoryExecutor._release_worker_state``)."""
    _WORKER_SESSIONS.clear()


# ----------------------------------------------------------------------
# persistent broadcast channels (streaming sessions)
# ----------------------------------------------------------------------
#: Patches accumulated on a channel before the next parallel sweep
#: re-broadcasts the full state instead (bounds both the cumulative
#: delta payload and the worker-side replay chain; amortized cost per
#: update stays O(delta) + O(full)/budget).
CHANNEL_JOURNAL_BUDGET = 64


class SweepChannel:
    """Persistent broadcast state for one long-lived compiled session.

    A streaming session (:class:`repro.streaming.session.IncrementalFSim`)
    patches its compiled instance *in place* between computes; without a
    channel, every parallel compute re-published the full compiled
    arrays to the worker pool -- O(graph) per update where the update
    itself is O(delta).  A channel keeps the first full broadcast alive
    across computes and ships only the recorded graph deltas
    (:meth:`record_patch`); workers replay the same deterministic
    ``patch_plan`` + ``patch_compiled_edges`` surgery on their cached
    copy, so their state stays identical to the parent's while the
    per-update broadcast is O(delta) bytes.

    A channel is owned by exactly one session object (its computes are
    serial); the executor tracks channels weakly and closes them with
    the pool.  :attr:`broadcast_bytes` / :attr:`last_broadcast_bytes`
    expose the wire cost for the O(delta) regression test.
    """

    def __init__(self, executor: "SharedMemoryExecutor"):
        self._executor = executor
        self._base_block: Optional[_PayloadBlock] = None
        self._delta_block: Optional[_PayloadBlock] = None
        self._journal: List[tuple] = []
        self._published = 0
        self._compiled_ref = None  # weakref to the broadcast instance
        self._buffers = None
        self._buffer_caps = None
        self.closed = False
        self.broadcast_bytes = 0
        self.last_broadcast_bytes = 0
        self.base_broadcasts = 0
        self.delta_broadcasts = 0

    # -- session-facing API -------------------------------------------
    def record_patch(self, delta1, delta2, selfsim: bool) -> None:
        """Record one successful in-place compiled patch for replay.

        Call after ``patch_compiled_edges`` succeeded on the parent's
        instance; ``delta1`` / ``delta2`` are the drained
        :class:`~repro.streaming.delta.Delta` objects the patch applied
        (``selfsim`` when both sides are the same graph).
        """
        if self.closed or self._base_block is None:
            # Nothing broadcast yet: the next base broadcast pickles the
            # already-patched state, so there is nothing to replay.
            return
        if len(self._journal) >= CHANNEL_JOURNAL_BUDGET:
            self.invalidate()
            return
        from repro.streaming.patch import journal_entry

        self._journal.append(journal_entry(delta1, delta2, selfsim))

    def invalidate(self) -> None:
        """Drop the broadcast state (full recompile, unsupported delta):
        the next parallel sweep re-broadcasts the full payload."""
        if self._base_block is not None:
            self._base_block.close()
            self._base_block = None
        if self._delta_block is not None:
            self._delta_block.close()
            self._delta_block = None
        self._journal = []
        self._published = 0
        self._compiled_ref = None

    def close(self) -> None:
        if self.closed:
            return
        self.invalidate()
        if self._buffers is not None:
            for buffer in self._buffers:
                buffer.close()
            self._buffers = None
        self.closed = True

    # -- executor-facing plumbing -------------------------------------
    def _ensure_broadcast(self, vectorized):
        """The (base block, (delta name, journal length)) for this sweep.

        Returns ``(None, ...)`` when the state is unpicklable (the
        caller stays serial).  Publishes the base payload on first use
        or after an invalidation; publishes a fresh cumulative delta
        block whenever the journal grew past what was last shipped.
        """
        compiled = vectorized.compiled
        if (self._base_block is not None
                and (self._compiled_ref() if self._compiled_ref is not None
                     else None) is not compiled):
            # The session recompiled into a new instance out-of-band.
            self.invalidate()
        if self._base_block is None:
            payload = _transportable_vectorized(vectorized)
            if payload is None:
                return None, ("", 0)
            self._base_block = self._executor._publish(payload)
            self._compiled_ref = weakref.ref(compiled)
            self._journal = []
            self._published = 0
            self.base_broadcasts += 1
            self.last_broadcast_bytes = len(payload)
            self.broadcast_bytes += len(payload)
        if len(self._journal) > self._published:
            try:
                payload = _dumps({"journal": list(self._journal)})
            except Exception:
                # Unpicklable delta operands: fall back to a fresh base.
                self.invalidate()
                return self._ensure_broadcast(vectorized)
            block = _PayloadBlock(payload, self._base_block.session_id)
            if self._delta_block is not None:
                self._delta_block.close()
            self._delta_block = block
            self._published = len(self._journal)
            self.delta_broadcasts += 1
            self.last_broadcast_bytes = len(payload)
            self.broadcast_bytes += len(payload)
        if self._delta_block is None:
            return self._base_block, ("", 0)
        return self._base_block, (self._delta_block.name, self._published)

    def _ensure_buffers(self, num_feasible: int, num_updatable: int):
        import numpy as np

        caps = (num_feasible, num_updatable)
        if self._buffers is not None and self._buffer_caps != caps:
            for buffer in self._buffers:
                buffer.close()
            self._buffers = None
        if self._buffers is None:
            self._buffers = (
                _ParentBuffer(np.float64, num_feasible),
                _ParentBuffer(np.int64, num_updatable),
                _ParentBuffer(np.float64, num_updatable),
            )
            self._buffer_caps = caps
        return self._buffers


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class Executor:
    """Serial base protocol; parallel executors override the sessions.

    Every session degrades to ``None`` (= caller runs its own serial
    path) rather than failing: unpicklable state and workloads below
    the parallel thresholds fall back gracefully.
    """

    workers = 1
    #: Sessions currently inside a ``*_session`` / ``run_queries`` body
    #: (idle-eviction guard for the bounded registry).  Updated under
    #: ``_SESSION_COUNT_LOCK`` -- concurrent service threads share one
    #: cached executor, and a lost ``+= 1`` would make a busy pool look
    #: idle to the eviction scan.
    active_sessions = 0
    #: ``time.monotonic()`` of the last session start.  Parallel
    #: executors stamp it at construction too, so a just-created,
    #: never-used executor is not "infinitely idle" to eviction.
    last_used = 0.0

    def _touch(self) -> None:
        self.last_used = time.monotonic()

    @contextmanager
    def sweep_session(self, vectorized, channel: "Optional[SweepChannel]" = None):
        """Yield a parallel ``sweep(scores, upd)`` or ``None``.

        ``channel`` carries the persistent broadcast state of a
        long-lived streaming session; the serial executor ignores it.
        """
        yield None

    @contextmanager
    def pair_session(self, engine, shards: Sequence[list]):
        """Yield a parallel ``step(prev) -> (scores, delta)`` or ``None``."""
        yield None

    def run_queries(self, engines: Sequence) -> Optional[List[tuple]]:
        """Whole-query sharding; ``None`` = caller runs serially."""
        return None

    def open_channel(self) -> "Optional[SweepChannel]":
        """A persistent sweep broadcast channel, or ``None`` when this
        executor has no cross-session state to reuse."""
        return None

    @contextmanager
    def _track(self):
        """Session accounting for the bounded registry (idle detection)."""
        with _SESSION_COUNT_LOCK:
            self._touch()
            self.active_sessions += 1
        try:
            yield
        finally:
            with _SESSION_COUNT_LOCK:
                self.active_sessions -= 1

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.workers}>"


#: Guards active_sessions updates (see Executor.active_sessions).
_SESSION_COUNT_LOCK = threading.Lock()


class SerialExecutor(Executor):
    """The in-process path: every session yields ``None``."""


class SharedMemoryExecutor(Executor):
    """The persistent zero-copy runtime (see the module docstring).

    One pool serves every session for the executor's lifetime.  Each
    sweep session owns its shared-memory arena (scores in / values out,
    plus the dirty-position index), sized once from the compiled
    instance, reused across that session's iterations and torn down
    with the session -- per-session ownership is what makes concurrent
    sessions on one cached executor safe.
    """

    def __init__(self, workers: int, min_parallel_upd: int = MIN_PARALLEL_UPD,
                 start_method: Optional[str] = None,
                 min_parallel_pairs: int = MIN_PARALLEL_PAIRS):
        self.workers = max(int(workers), 1)
        self.min_parallel_upd = int(min_parallel_upd)
        self.min_parallel_pairs = int(min_parallel_pairs)
        self._touch()
        self._start_method = start_method
        self._pool = None
        self._pool_lock = threading.Lock()
        self._sessions = 0
        self.pools_created = 0
        #: Live broadcast channels (closed with the executor so their
        #: shared-memory blocks never outlive the pool).
        self._channels: "weakref.WeakSet[SweepChannel]" = weakref.WeakSet()
        #: Live sharded runtimes (:mod:`repro.runtime.sharded`) whose
        #: lifecycle is tied to this executor: a registered runtime pins
        #: the executor in the registry (its workers own resident arena
        #: shards, which eviction would silently destroy) and is closed
        #: with the executor.
        self._shard_runtimes: "weakref.WeakSet" = weakref.WeakSet()

    # -- pool / arena lifecycle ---------------------------------------
    @property
    def pool_started(self) -> bool:
        return self._pool is not None

    def _ensure_pool(self):
        # Serialized so concurrent sessions share one pool instead of
        # racing to create two.  NOTE the usual POSIX caveat: creating
        # a fork-context pool while other threads are running can
        # inherit held locks into the children.  A multi-threaded
        # service should warm the pool before spinning up request
        # threads (any first query does it), or use a spawn/forkserver
        # start method; once the pool exists, concurrent sessions are
        # safe (Pool.map is thread-safe, all session state is
        # per-session).
        with self._pool_lock:
            if self._pool is None:
                method = self._start_method or preferred_start_method()
                context = multiprocessing.get_context(method)
                self._pool = context.Pool(processes=self.workers)
                self.pools_created += 1
            return self._pool

    def _publish(self, payload: bytes) -> _PayloadBlock:
        from repro.obs.profiling import phase

        self._sessions += 1
        # The shared-memory broadcast: one copy of the pickled session
        # state into a block every worker maps.
        with phase("runtime.broadcast"):
            return _PayloadBlock(payload, self._sessions)

    def _release_worker_state(self) -> None:
        """Best-effort reclamation of worker-side session state.

        Workers cache the last unpickled payload (compiled arrays or an
        engine shard) so repeat tasks of one session unpickle once; at
        session end that state would otherwise stay resident in every
        worker until a future session replaces it.  One no-op task per
        worker usually reaches each idle worker (chunksize=1), but the
        pool does not guarantee distribution -- this bounds idle memory
        in the common case, never correctness.
        """
        if self._pool is None:
            return
        try:
            self._pool.map(
                _drop_worker_session, range(self.workers), chunksize=1
            )
        except Exception:  # pragma: no cover - pool already broken
            pass

    def open_channel(self) -> SweepChannel:
        channel = SweepChannel(self)
        self._channels.add(channel)
        return channel

    def register_shard_runtime(self, runtime) -> None:
        """Tie a sharded runtime's lifecycle to this executor (see
        :mod:`repro.runtime.sharded`): while the runtime is live the
        executor is never reclaimed, and closing the executor closes
        the runtime."""
        self._shard_runtimes.add(runtime)

    def close(self) -> None:
        for runtime in list(self._shard_runtimes):
            runtime.close()
        for channel in list(self._channels):
            channel.close()
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    # -- sessions ------------------------------------------------------
    @contextmanager
    def sweep_session(self, vectorized, channel: Optional[SweepChannel] = None):
        import numpy as np

        compiled = vectorized.compiled
        num_feasible = int(compiled.num_feasible)
        num_updatable = int(compiled.num_updatable)
        threshold = max(self.workers, self.min_parallel_upd)
        if num_updatable < threshold:
            # Every sweep is a subset of upd_arena: nothing to gain.
            yield None
            return
        if channel is not None and (channel.closed
                                    or channel._executor is not self):
            channel = None
        # The session broadcast (one pickle of the compiled arrays) and
        # the session's arena buffers are deferred until a sweep
        # actually crosses the threshold: a session whose sweeps all
        # stay small -- the usual shape of streaming updates, whose
        # dirty frontier is delta-sized -- pays neither pickle, buffers
        # nor pool.  Without a channel, buffers and broadcast are per
        # session (never shared through the executor), so concurrent
        # sessions on one cached executor cannot clobber each other's
        # sweep state; the pool itself is safe to share (Pool.map is
        # thread-safe, payloads are session-keyed).  With a channel the
        # broadcast block, buffers and worker-side state persist across
        # this caller's sessions -- the channel's owner serializes its
        # own computes.
        state: dict = {"block": None, "delta": ("", 0),
                       "serial_only": False, "buffers": None}
        try:

            def sweep(scores, upd):
                length = int(upd.size)
                if length < threshold or state["serial_only"]:
                    return vectorized.sweep(scores, upd)
                block = state["block"]
                if block is None:
                    if channel is not None:
                        block, state["delta"] = (
                            channel._ensure_broadcast(vectorized)
                        )
                    else:
                        payload = _transportable_vectorized(vectorized)
                        block = (None if payload is None
                                 else self._publish(payload))
                    if block is None:
                        warnings.warn(
                            "compiled sweep state is not picklable; "
                            "sweeps stay serial",
                            RuntimeWarning,
                        )
                        state["serial_only"] = True
                        return vectorized.sweep(scores, upd)
                    state["block"] = block
                if state["buffers"] is None:
                    if channel is not None:
                        state["buffers"] = channel._ensure_buffers(
                            num_feasible, num_updatable
                        )
                    else:
                        state["buffers"] = (
                            _ParentBuffer(np.float64, num_feasible),
                            _ParentBuffer(np.int64, num_updatable),
                            _ParentBuffer(np.float64, num_updatable),
                        )
                scores_buf, upd_buf, out_buf = state["buffers"]
                delta_name, journal_len = state["delta"]
                scores_len = int(scores.size)
                scores_buf.view[:scores_len] = scores
                upd_buf.view[:length] = upd
                pool = self._ensure_pool()
                pool.map(
                    _shm_sweep_worker,
                    [
                        (block.name, block.session_id,
                         delta_name, journal_len,
                         scores_buf.name, scores_buf.capacity,
                         upd_buf.name, upd_buf.capacity,
                         out_buf.name, out_buf.capacity,
                         scores_len, length, start, stop)
                        for start, stop in _shard_bounds(length, self.workers)
                    ],
                )
                # A zero-copy view into the output buffer -- valid
                # until this session's next parallel sweep (callers
                # consume the values before re-entering sweep).
                return out_buf.view[:length]

            with self._track():
                yield sweep
        finally:
            if channel is None:
                if state["buffers"] is not None:
                    for buffer in state["buffers"]:
                        buffer.close()
                if state["block"] is not None:
                    state["block"].close()
                    self._release_worker_state()

    @contextmanager
    def pair_session(self, engine, shards):
        shards = list(shards)
        # The pair-session analogue of the sweep threshold: per-iteration
        # dispatch plus pickling the previous-iteration score dict dwarfs
        # a handful of ``update_pair`` calls, and staying serial also
        # keeps the pool from ever spawning.
        total = sum(len(shard) for shard in shards)
        if total < max(self.workers, self.min_parallel_pairs):
            yield None
            return
        try:
            payload = _dumps({"pairs": (engine, shards)})
        except Exception:
            warnings.warn(
                "engine state is not picklable; pair updates stay serial",
                RuntimeWarning,
            )
            yield None
            return
        indices = [i for i, shard in enumerate(shards) if shard]
        block = self._publish(payload)
        try:

            def step(prev):
                if not indices:
                    return {}, 0.0
                pool = self._ensure_pool()
                prev_block = _PayloadBlock(_dumps(prev), block.session_id)
                try:
                    parts = pool.map(
                        _shm_pair_worker,
                        [(block.name, block.session_id, i, prev_block.name)
                         for i in indices],
                    )
                finally:
                    prev_block.close()
                merged: dict = {}
                delta = 0.0
                for partial, local in parts:
                    merged.update(partial)
                    if local > delta:
                        delta = local
                return merged, delta

            with self._track():
                yield step
        finally:
            block.close()
            self._release_worker_state()

    def run_queries(self, engines):
        if len(engines) < 2 or self.workers < 2:
            return None
        # No plan warming here: the plan cache keys on graph identity,
        # and these engines travel by pickle -- workers' unpickled
        # graph copies could never hit a parent-warmed entry.  Each
        # shard is published as its own payload so a worker unpickles
        # only the engines it will run, not the whole batch; pickle
        # deduplicates a shared data graph within a shard, so each
        # worker lowers it once.
        workers = min(self.workers, len(engines))
        blocks: List[_PayloadBlock] = []
        try:
            tasks = []
            for positions in round_robin_shards(range(len(engines)), workers):
                if not positions:
                    continue
                payload = _dumps({"query_shard": (
                    [engines[position] for position in positions], positions,
                )})
                block = self._publish(payload)
                blocks.append(block)
                tasks.append((block.name, block.session_id))
        except Exception:
            for block in blocks:
                block.close()
            warnings.warn(
                "engine state is not picklable; queries run serially",
                RuntimeWarning,
            )
            return None
        try:
            with self._track():
                pool = self._ensure_pool()
                partials = pool.map(_shm_query_worker, tasks)
        finally:
            for block in blocks:
                block.close()
            self._release_worker_state()
        return [row for partial in partials for row in partial]


# ----------------------------------------------------------------------
# registry and resolution
# ----------------------------------------------------------------------
_SERIAL = SerialExecutor()
_CACHE: "OrderedDict[int, SharedMemoryExecutor]" = OrderedDict()
_CACHE_LOCK = threading.Lock()

#: Bound on the process-wide executor registry.  A long-lived server
#: sweeping many worker counts would otherwise accumulate one worker
#: pool per count forever; past the bound, the least-recently-used
#: *idle* executor is closed and evicted (busy executors are never
#: reclaimed under a caller).
MAX_CACHED_EXECUTORS = 4


def _holds_live_shards(executor: SharedMemoryExecutor) -> bool:
    """Whether any live sharded runtime is registered on this executor.

    A sharded session's workers *own* their arena shards (slices of the
    compiled state resident for the session's lifetime); reclaiming the
    executor would destroy them mid-session, so such executors are
    exempt even from :func:`shutdown_executors`.
    """
    return any(not rt.closed for rt in executor._shard_runtimes)


def _reclaimable(executor: SharedMemoryExecutor) -> bool:
    """Whether eviction may close this executor right now.

    Not mid-session, not holding any live :class:`SweepChannel` -- a
    resident streaming session's channel carries its one-time state
    broadcast, and closing it would silently demote that session from
    O(delta) delta shipping back to full re-broadcasts (plus respawn
    the pool outside the registry's reach on its next compute) -- and
    not holding any live sharded runtime, whose workers own resident
    arena shards.
    """
    return not (
        executor.active_sessions
        or any(not channel.closed for channel in executor._channels)
        or _holds_live_shards(executor)
    )


def get_executor(workers: int) -> Executor:
    """The process-wide cached pool for ``workers`` processes (pool
    reuse across queries); the serial executor for ``workers <= 1``."""
    workers = int(workers)
    if workers <= 1:
        return _SERIAL
    with _CACHE_LOCK:
        cached = _CACHE.get(workers)
        if cached is not None:
            _CACHE.move_to_end(workers)
            return cached
        cached = SharedMemoryExecutor(workers)
        while len(_CACHE) >= MAX_CACHED_EXECUTORS:
            victim_key = next(
                (k for k, ex in _CACHE.items() if _reclaimable(ex)),
                None,
            )
            if victim_key is None:
                break  # every cached pool is in use: soft bound
            _CACHE.pop(victim_key).close()
        _CACHE[workers] = cached
    return cached


def evict_idle_executors(max_idle_seconds: float = 0.0) -> int:
    """Close and evict cached executors idle for ``max_idle_seconds``.

    Idle = no session currently open, no live streaming channel (a
    resident :class:`~repro.streaming.session.IncrementalFSim` keeps
    one), and the last use at least ``max_idle_seconds`` ago (0
    reclaims every currently idle pool).  Returns the number of
    executors closed.  Safe to call from a server's housekeeping loop;
    a subsequent :func:`get_executor` simply builds a fresh instance.
    """
    now = time.monotonic()
    closed = 0
    with _CACHE_LOCK:
        for key in list(_CACHE):
            cached = _CACHE[key]
            if not _reclaimable(cached):
                continue
            if now - cached.last_used >= max_idle_seconds:
                _CACHE.pop(key).close()
                closed += 1
    return closed


def executor_registry_stats() -> Dict[str, object]:
    """Observability for the service stats endpoint."""
    with _CACHE_LOCK:
        return {
            "cached": len(_CACHE),
            "bound": MAX_CACHED_EXECUTORS,
            "entries": [
                {
                    "workers": workers,
                    "pool_started": ex.pool_started,
                    "active_sessions": ex.active_sessions,
                }
                for workers, ex in _CACHE.items()
            ],
        }


def shutdown_executors() -> None:
    """Close every cached executor (pools, shared-memory arenas).

    Executors holding a live sharded session are skipped -- their
    workers own resident arena shards that a blanket shutdown (e.g. a
    server housekeeping sweep) must not destroy mid-session.  They are
    closed when their runtimes close, or at interpreter exit.
    """
    with _CACHE_LOCK:
        for key in list(_CACHE):
            cached = _CACHE[key]
            if _holds_live_shards(cached):
                continue
            _CACHE.pop(key).close()


#: Explicit alias for long-lived servers (the eviction API's big hammer).
shutdown_all = shutdown_executors


def _shutdown_at_exit() -> None:
    """Interpreter exit: close everything, sharded sessions included
    (closing an executor closes its registered shard runtimes)."""
    with _CACHE_LOCK:
        for cached in _CACHE.values():
            cached.close()
        _CACHE.clear()


atexit.register(_shutdown_at_exit)


def resolve_executor(config=None, workers: Optional[int] = None,
                     executor: Optional[Executor] = None) -> Executor:
    """Map ``(config, overrides)`` to an executor instance.

    ``executor`` (an :class:`Executor` instance) is used as-is;
    otherwise ``workers`` (default ``config.workers``) picks the cached
    pool of that size, or the serial executor for one worker.
    """
    if executor is not None:
        if not isinstance(executor, Executor):
            raise ConfigError(
                f"executor must be an Executor instance, got {executor!r}"
            )
        return executor
    if workers is None:
        workers = getattr(config, "workers", 1)
    workers = int(workers)
    if workers < 1:
        raise ConfigError(f"workers must be positive, got {workers}")
    return get_executor(workers)
