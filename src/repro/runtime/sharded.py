"""The persistent sharded runtime: per-worker pair-space ownership.

The shared-memory executor (:mod:`repro.runtime.executor`) parallelizes
one sweep by range-splitting the dirty positions, but every worker holds
the *whole* compiled arena and the parent re-publishes the full score
vector each iteration -- compile, memory and broadcast all stay O(total
arena) per process.  This module inverts the ownership: the pair space
is partitioned once per session (:mod:`repro.core.partition`) and each
shard's compiled rows -- entry lists, matching slots, dependency CSR --
live inside a dedicated worker process for the session's lifetime.  Per
Jacobi iteration only the *boundary* state crosses processes:

- each shard owns a full-length score vector but is authoritative only
  for its own rows; every other updatable score it reads is imported
  from the shared-memory *halo buffer* (8 bytes value + 1 byte dirty
  flag per boundary pair, double-buffered so one iteration's writes
  never race another shard's reads);
- the dirty-pair scheduler runs shard-locally: a shard sweeps the local
  dependents of its own dirty pairs plus the imported pairs whose dirty
  flag the owner raised, which is exactly the shard's slice of the
  unsharded scheduler's sweep set (over-approximation is bitwise
  harmless -- recomputing a pair from unchanged inputs reproduces its
  float);
- convergence is a shard-local max-delta reduced in the parent; the
  per-iteration maximum over shards equals the unsharded delta exactly
  (float max is associative, extra swept rows contribute 0.0).

Results are bitwise identical to the unsharded engine.  Streaming edits
stay O(delta): the parent patches its full compiled instance, appends
the delta to a journal (the :class:`~repro.runtime.executor.SweepChannel`
mechanism), re-derives the halo from the patched dependency structures
and ships only the journal + halo layout; each worker replays the same
deterministic patch surgery on its slice.  A sharded session keeps no
replay trajectory: after every edit it re-runs the fixed point cold on
the patched slices, which is bitwise equal to the unsharded session's
trajectory replay (the replay reproduces the cold run by construction).

The runtime is one of the two runners of the compiled fixed-point loop;
:func:`repro.runtime.driver.run_compiled` picks it for
:meth:`~repro.core.engine.FSimEngine.run` and top-k search, and falls
back to the unsharded loop when :func:`open_sharded_runtime` declines
or the slices cannot be published (:class:`ShardedUnavailable`).  Its
``watch`` / ``on_iteration`` hook carries top-k's certification rule.

:class:`InProcessShardRunner` drives the identical
:class:`_ShardWorkerState` protocol inside one process (no pools, no
shared memory) so property tests can exercise the sharded scheduler and
halo exchange deterministically under hypothesis.
"""

from __future__ import annotations

import multiprocessing
import warnings
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.partition import PairPartition, compute_halo, partition_pairs
from repro.runtime.executor import (
    CHANNEL_JOURNAL_BUDGET,
    MIN_PARALLEL_UPD,
    _ParentBuffer,
    _PayloadBlock,
    _attach_block,
    _dumps,
    _dumps_compiled,
    _read_payload,
    preferred_start_method,
)

#: Bytes exchanged per boundary pair per iteration: one float64 score
#: plus one dirty-flag byte.
HALO_BYTES_PER_PAIR = 9


class ShardedUnavailable(RuntimeError):
    """Raised when a sharded session cannot be established (unpicklable
    compiled state); callers fall back to the unsharded engine, which is
    bitwise identical."""


def warn_unsharded() -> None:
    """The warning every caller gives when it falls back from
    :class:`ShardedUnavailable` to the unsharded loop."""
    warnings.warn("compiled state is not picklable; running unsharded",
                  RuntimeWarning, stacklevel=3)


# ----------------------------------------------------------------------
# the shard protocol (runs identically in-process and in workers)
# ----------------------------------------------------------------------
class _ShardWorkerState:
    """One shard's persistent iteration state.

    Holds the row-subset compiled instance
    (:meth:`~repro.core.compile.CompiledFSim.build_row_subset`), a
    full-length local score vector (authoritative for owned rows,
    mirrored for imports, frozen constants elsewhere) and the halo slot
    layout.  :meth:`step` is one Jacobi iteration of the shard-local
    dirty scheduler.
    """

    def __init__(self, compiled_slice, halo_ids, halo_owner, shard: int):
        from repro.core.vectorized import VectorizedFSimEngine

        self.compiled = compiled_slice
        self.shard = int(shard)
        self.engine = VectorizedFSimEngine(compiled_slice)
        self.set_halo(halo_ids, halo_owner)
        self.reset()

    def set_halo(self, halo_ids, halo_owner) -> None:
        """(Re)install the boundary layout (after streaming patches)."""
        self.halo_ids = np.asarray(halo_ids, dtype=np.int64)
        owner = np.asarray(halo_owner, dtype=np.int32)
        self.export_slots = np.flatnonzero(owner == self.shard)
        self.import_slots = np.flatnonzero(owner != self.shard)
        self.export_ids = self.halo_ids[self.export_slots]
        self.import_ids = self.halo_ids[self.import_slots]

    def reset(self) -> None:
        """Arm a cold run: L-initialized scores, every row scheduled."""
        self.scores = self.compiled.scores0.copy()
        self.pending: "np.ndarray | None" = np.arange(
            self.compiled.num_updatable, dtype=np.int64
        )
        self.dirty_own = np.empty(0, dtype=np.int64)

    def step(self, halo_in_values: np.ndarray, halo_in_flags: np.ndarray,
             halo_out_values: np.ndarray,
             halo_out_flags: np.ndarray) -> float:
        """Import boundary state, sweep the due rows, export boundary
        state; returns the shard-local max delta.

        The import refreshes every non-owned halo score (owners export
        all their slots each iteration, so the mirror is always the
        pre-sweep global state) and unions the flagged pairs -- those
        whose score changed at their owner last iteration --
        into the dirty frontier, reproducing the unsharded scheduler's
        ``dependents(dirty)`` row selection restricted to this shard.
        """
        compiled = self.compiled
        if self.import_slots.size:
            self.scores[self.import_ids] = halo_in_values[self.import_slots]
            dirty_imported = self.import_ids[
                halo_in_flags[self.import_slots] != 0
            ]
        else:
            dirty_imported = np.empty(0, dtype=np.int64)
        if self.pending is not None:
            upd = self.pending
            self.pending = None
        else:
            dirty = np.concatenate([self.dirty_own, dirty_imported])
            upd = compiled.dependents(dirty)
        if upd.size:
            new_values = self.engine.sweep(self.scores, upd)
            arena_ids = compiled.upd_arena[upd]
            change = np.abs(new_values - self.scores[arena_ids])
            delta = float(change.max())
            self.scores[arena_ids] = new_values
            self.dirty_own = arena_ids[change > 0.0]
        else:
            delta = 0.0
            self.dirty_own = np.empty(0, dtype=np.int64)
        if self.export_slots.size:
            halo_out_values[self.export_slots] = self.scores[self.export_ids]
            flags = np.zeros(self.export_slots.size, dtype=np.uint8)
            if self.dirty_own.size:
                flags[np.isin(self.export_ids, self.dirty_own)] = 1
            halo_out_flags[self.export_slots] = flags
        return delta

    def gather_into(self, out: np.ndarray) -> None:
        """Write this shard's authoritative rows into ``out``."""
        own = self.compiled.upd_arena
        out[own] = self.scores[own]

    def apply_patch(self, patch: tuple) -> None:
        """Replay one journaled graph delta on this shard's slice."""
        from repro.core.vectorized import VectorizedFSimEngine
        from repro.streaming.patch import replay_journal_entry

        replay_journal_entry(self.compiled, patch)
        # The engine caches per-structure slot state keyed on the
        # pre-patch structures -- rebuild it on the patched slice.
        self.engine = VectorizedFSimEngine(self.compiled)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-worker shard sessions keyed by (payload name, session id).  Each
#: shard has a dedicated single-process pool, so in practice a worker
#: holds exactly one live entry; the LRU bound only caps leftovers from
#: closed sessions.
_SHARD_SESSIONS: "OrderedDict[tuple, dict]" = OrderedDict()

_SHARD_SESSION_LIMIT = 4


def _load_shard(payload_name: str, session_id: int) -> dict:
    key = (payload_name, session_id)
    entry = _SHARD_SESSIONS.get(key)
    if entry is None:
        payload = _read_payload(payload_name)
        state = _ShardWorkerState(
            payload["slice"], payload["halo_ids"], payload["halo_owner"],
            payload["shard"],
        )
        if payload.get("arena_backend") == "memmap":
            # The slice arrived as in-memory bytes (numpy materializes
            # memmaps through pickle); spill it back onto files so the
            # worker's resident set tracks its touched pages only.
            state.compiled.convert_to_memmap()
        entry = {"state": state, "applied": 0, "run_id": -1,
                 "halo_version": 0}
        while len(_SHARD_SESSIONS) >= _SHARD_SESSION_LIMIT:
            _SHARD_SESSIONS.popitem(last=False)
        _SHARD_SESSIONS[key] = entry
    else:
        _SHARD_SESSIONS.move_to_end(key)
    return entry


def _replay_shard_journal(entry: dict, delta_name: str,
                          journal_len: int) -> None:
    """Bring a shard slice up to date with the parent's patch journal.

    The delta payload also carries the freshest halo layout: an edge
    patch can migrate pairs across the shard boundary (new cross-shard
    dependencies) without changing row ownership, so the layout rides
    along under a version number and is reinstalled when it changed.
    """
    if journal_len <= entry["applied"]:
        return
    payload = _read_payload(delta_name)
    state = entry["state"]
    for patch in payload["journal"][entry["applied"]:journal_len]:
        state.apply_patch(patch)
    entry["applied"] = journal_len
    version = payload.get("halo_version", 0)
    if version != entry["halo_version"]:
        halo_ids, halo_owner = payload["halo"]
        state.set_halo(halo_ids, halo_owner)
        entry["halo_version"] = version


def _shard_step_worker(task) -> float:
    """One shard, one Jacobi iteration; returns the shard-local delta."""
    (payload_name, session_id, delta_name, journal_len, run_id,
     in_val_name, in_flg_name, out_val_name, out_flg_name, halo_len,
     watch_ids_name, watch_name, watch_len) = task
    entry = _load_shard(payload_name, session_id)
    if delta_name:
        _replay_shard_journal(entry, delta_name, journal_len)
    state = entry["state"]
    if entry["run_id"] != run_id:
        state.reset()
        entry["run_id"] = run_id
    if halo_len:
        in_values = np.frombuffer(
            _attach_block(in_val_name).buf, dtype=np.float64, count=halo_len
        )
        in_flags = np.frombuffer(
            _attach_block(in_flg_name).buf, dtype=np.uint8, count=halo_len
        )
        out_values = np.frombuffer(
            _attach_block(out_val_name).buf, dtype=np.float64, count=halo_len
        )
        out_flags = np.frombuffer(
            _attach_block(out_flg_name).buf, dtype=np.uint8, count=halo_len
        )
    else:
        in_values = out_values = np.empty(0, dtype=np.float64)
        in_flags = out_flags = np.empty(0, dtype=np.uint8)
    delta = state.step(in_values, in_flags, out_values, out_flags)
    if watch_ids_name:
        # The watch set: arena ids the parent observes per iteration
        # (top-k certification rows).  Each shard writes only the
        # watched ids it owns -- the exchange stays O(watch), never
        # O(arena).
        cached = entry.get("watch")
        if cached is None or cached[0] != watch_ids_name:
            watch_ids = _read_payload(watch_ids_name)
            own_slots = np.flatnonzero(
                np.isin(watch_ids, state.compiled.upd_arena)
            )
            cached = (watch_ids_name, watch_ids, own_slots)
            entry["watch"] = cached
        _, watch_ids, own_slots = cached
        if own_slots.size:
            watch_view = np.frombuffer(
                _attach_block(watch_name).buf, dtype=np.float64,
                count=watch_len,
            )
            watch_view[own_slots] = state.scores[watch_ids[own_slots]]
    return delta


def process_peak_rss_kb() -> int:
    """This process's peak resident set in KiB.

    Reads ``VmHWM`` (reset at exec, so a spawn-started worker reports
    only its own life, not copy-on-write pages inherited across the
    fork half of fork+exec); falls back to ``ru_maxrss`` where /proc is
    unavailable.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _shard_probe_worker() -> int:
    return process_peak_rss_kb()


def _shard_gather_worker(task) -> int:
    """Write the shard's authoritative rows into the gather buffer."""
    payload_name, session_id, gather_name, num_feasible = task
    entry = _load_shard(payload_name, session_id)
    out = np.frombuffer(
        _attach_block(gather_name).buf, dtype=np.float64, count=num_feasible
    )
    entry["state"].gather_into(out)
    return int(entry["state"].compiled.upd_arena.size)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
_SESSION_IDS = iter(range(1, 1 << 62))


class ShardedSweepRuntime:
    """A persistent sharded session over one compiled instance.

    Owns one dedicated single-process pool per shard (ownership needs
    task -> process affinity, which ``multiprocessing.Pool`` does not
    offer across a shared pool), the halo double buffers, the patch
    journal, and the parent-side convergence reduction.  The parent
    keeps the full compiled instance for O(delta) patching and halo
    re-derivation; workers keep only their slices.

    :meth:`iterate` is bitwise identical to
    :meth:`repro.core.vectorized.VectorizedFSimEngine.iterate` on the
    same compiled instance.
    """

    def __init__(self, compiled, partition: PairPartition, executor=None,
                 start_method: Optional[str] = None):
        self.compiled = compiled
        self.partition = partition
        self.closed = False
        self._start_method = start_method
        self._pools: Optional[List] = None
        self._blocks: Optional[List[_PayloadBlock]] = None
        self._delta_block: Optional[_PayloadBlock] = None
        self._journal: List[tuple] = []
        self._published_journal = 0
        self._halo_ids = partition.halo_ids
        self._halo_owner = partition.halo_owner
        self._halo_version = 0
        self._buffers = None  # ((val, flg), (val, flg)) double buffer
        self._gather_buf: Optional[_ParentBuffer] = None
        self._run_counter = 0
        self._session_id = next(_SESSION_IDS)
        #: Wire accounting for the O(boundary) regression test.
        self.broadcast_bytes = 0
        self.base_broadcasts = 0
        self.delta_broadcasts = 0
        self.halo_exchanges = 0
        self.exchange_bytes = 0
        self.iterations_total = 0
        self._executor_ref = None
        if executor is not None and hasattr(
            executor, "register_shard_runtime"
        ):
            executor.register_shard_runtime(self)
            self._executor_ref = weakref.ref(executor)

    # -- lifecycle -----------------------------------------------------
    @property
    def shards(self) -> int:
        return self.partition.shards

    @property
    def halo_pairs(self) -> int:
        return int(len(self._halo_ids))

    @property
    def halo_bytes_per_iteration(self) -> int:
        """Cross-process bytes one Jacobi iteration moves: O(boundary
        pairs), independent of the arena size."""
        return HALO_BYTES_PER_PAIR * self.halo_pairs

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._pools is not None:
            for pool in self._pools:
                pool.terminate()
            for pool in self._pools:
                pool.join()
            self._pools = None
        self._close_blocks()
        self._close_buffers()
        if self._gather_buf is not None:
            self._gather_buf.close()
            self._gather_buf = None

    def _close_blocks(self) -> None:
        if self._blocks is not None:
            for block in self._blocks:
                block.close()
            self._blocks = None
        if self._delta_block is not None:
            self._delta_block.close()
            self._delta_block = None
        self._journal = []
        self._published_journal = 0

    def _close_buffers(self) -> None:
        if self._buffers is not None:
            for val, flg in self._buffers:
                val.close()
                flg.close()
            self._buffers = None

    # -- broadcast -----------------------------------------------------
    def _slice_payload(self, shard: int) -> bytes:
        compiled_slice = self.compiled.build_row_subset(
            self.partition.positions[shard]
        )
        try:
            return _dumps_compiled(compiled_slice, lambda clone: {
                "slice": clone,
                "halo_ids": self._halo_ids,
                "halo_owner": self._halo_owner,
                "shard": shard,
                "arena_backend": self.compiled.config.arena_backend,
            })
        except Exception as exc:
            raise ShardedUnavailable(str(exc)) from exc

    def _ensure_published(self) -> None:
        if self._blocks is not None:
            return
        from repro.obs.profiling import phase

        blocks: List[_PayloadBlock] = []
        try:
            with phase("runtime.broadcast"):
                for shard in range(self.shards):
                    payload = self._slice_payload(shard)
                    block = _PayloadBlock(payload, self._session_id)
                    # Publish-and-forget: unmap the parent's view so the
                    # resident arena lives once (in the owning worker),
                    # not twice.
                    block.seal()
                    blocks.append(block)
                    self.broadcast_bytes += len(payload)
                    # Slicing shard ``i`` faulted ~1/k of the parent's
                    # memmap slabs in; evict between slices so the
                    # parent's high-water mark stays O(arena/shards),
                    # not O(arena).  No-op on the RAM backend.
                    self.compiled.release_resident_slabs()
        except Exception:
            for block in blocks:
                block.close()
            raise
        self._blocks = blocks
        self.base_broadcasts += 1

    def _ensure_pools(self) -> List:
        if self._pools is None:
            method = self._start_method or preferred_start_method()
            context = multiprocessing.get_context(method)
            self._pools = [context.Pool(processes=1)
                           for _ in range(self.shards)]
        return self._pools

    def _ensure_halo_buffers(self):
        if self._buffers is None:
            capacity = self.halo_pairs
            self._buffers = tuple(
                (_ParentBuffer(np.float64, capacity),
                 _ParentBuffer(np.uint8, capacity))
                for _ in range(2)
            )
        return self._buffers

    # -- streaming patches --------------------------------------------
    def record_patch(self, delta1, delta2, selfsim: bool) -> bool:
        """Journal one successful in-place parent patch for worker
        replay; re-derives the halo from the patched structures.

        Returns False when the journal budget is exhausted (the caller
        should treat it like an out-of-band change: the session is
        invalidated and the next iterate re-broadcasts patched slices).
        """
        if self._blocks is None:
            # Nothing broadcast yet: the next publish pickles the
            # already-patched slices.
            self._refresh_halo()
            return True
        if len(self._journal) >= CHANNEL_JOURNAL_BUDGET:
            self.invalidate()
            return False
        from repro.streaming.patch import journal_entry

        self._journal.append(journal_entry(delta1, delta2, selfsim))
        self._refresh_halo()
        try:
            payload = _dumps({
                "journal": list(self._journal),
                "halo": (self._halo_ids, self._halo_owner),
                "halo_version": self._halo_version,
            })
        except Exception:
            self.invalidate()
            return False
        block = _PayloadBlock(payload, self._session_id)
        block.seal()
        if self._delta_block is not None:
            self._delta_block.close()
        self._delta_block = block
        self._published_journal = len(self._journal)
        self.delta_broadcasts += 1
        self.broadcast_bytes += len(payload)
        return True

    def invalidate(self) -> None:
        """Drop the broadcast state (recompile, journal overflow): the
        next iterate re-publishes full slices of the current parent
        compiled instance."""
        self._close_blocks()
        self._refresh_halo()
        self._session_id = next(_SESSION_IDS)

    def _refresh_halo(self) -> None:
        halo_ids, halo_owner, _ = compute_halo(
            self.compiled, self.partition.owner, self.partition.arena_owner
        )
        if (len(halo_ids) != len(self._halo_ids)
                or not np.array_equal(halo_ids, self._halo_ids)):
            self._halo_ids = halo_ids
            self._halo_owner = halo_owner
            self._halo_version += 1
            self._close_buffers()

    # -- the fixed point -----------------------------------------------
    def iterate(self, watch=None, on_iteration=None
                ) -> Tuple[np.ndarray, int, bool, List[float]]:
        """Run Algorithm 1 to convergence across the shards; returns
        ``(scores, iterations, converged, deltas)`` bitwise identical to
        the unsharded engine's ``iterate()``.

        ``watch`` (arena ids) gathers those pairs' scores into a small
        shared buffer every iteration -- O(watch) extra traffic -- and
        ``on_iteration(iteration, watch_values, delta, converged)`` is
        called after each barrier; returning True stops the loop early
        (top-k certification retires all queries before convergence).
        """
        from repro.obs.profiling import observe_iterations, phase

        if self.closed:
            raise RuntimeError("sharded runtime is closed")
        self._ensure_published()
        pools = self._ensure_pools()
        buffers = self._ensure_halo_buffers()
        halo_len = self.halo_pairs
        self._run_counter += 1
        run_id = self._run_counter
        # Seed the first read side with the initial boundary scores and
        # clean flags (iteration 1 sweeps every row regardless).
        val0, flg0 = buffers[0]
        if halo_len:
            val0.view[:halo_len] = self.compiled.scores0[self._halo_ids]
            flg0.view[:halo_len] = 0
        delta_name = ""
        journal_len = 0
        if self._delta_block is not None:
            delta_name = self._delta_block.name
            journal_len = self._published_journal
        watch_ids_name = ""
        watch_name = ""
        watch_len = 0
        watch_block = watch_buf = None
        if watch is not None:
            watch = np.asarray(watch, dtype=np.int64)
            watch_len = int(watch.size)
            watch_block = _PayloadBlock(_dumps(watch), self._session_id)
            watch_block.seal()
            watch_ids_name = watch_block.name
            watch_buf = _ParentBuffer(np.float64, max(watch_len, 1))
            # Non-updatable watched ids never change: seed them once.
            watch_buf.view[:watch_len] = self.compiled.scores0[watch]
            watch_name = watch_buf.name
        config = self.compiled.config
        epsilon = config.epsilon
        deltas: List[float] = []
        converged = False
        stopped = False
        iterations = 0
        try:
            with phase("engine.iterate"):
                for k in range(1, config.iteration_budget() + 1):
                    iterations += 1
                    (in_val, in_flg) = buffers[(k - 1) % 2]
                    (out_val, out_flg) = buffers[k % 2]
                    results = [
                        pools[shard].apply_async(_shard_step_worker, ((
                            self._blocks[shard].name, self._session_id,
                            delta_name, journal_len, run_id,
                            in_val.name, in_flg.name,
                            out_val.name, out_flg.name, halo_len,
                            watch_ids_name, watch_name, watch_len,
                        ),))
                        for shard in range(self.shards)
                    ]
                    local = [result.get() for result in results]
                    delta = max(local) if local else 0.0
                    deltas.append(delta)
                    self.halo_exchanges += 1
                    self.exchange_bytes += (
                        self.halo_bytes_per_iteration + 8 * watch_len
                    )
                    if delta < epsilon:
                        converged = True
                    if on_iteration is not None:
                        values = np.array(
                            watch_buf.view[:watch_len], copy=True
                        ) if watch_buf is not None else None
                        if on_iteration(k, values, delta, converged):
                            stopped = True
                            break
                    if converged:
                        break
        finally:
            if watch_block is not None:
                watch_block.close()
            if watch_buf is not None:
                watch_buf.close()
        observe_iterations(iterations, converged)
        self.iterations_total += iterations
        scores = self._gather() if not stopped else None
        return scores, iterations, converged, deltas

    def _gather(self) -> np.ndarray:
        num_feasible = int(self.compiled.num_feasible)
        if (self._gather_buf is None
                or self._gather_buf.capacity != num_feasible):
            if self._gather_buf is not None:
                self._gather_buf.close()
            self._gather_buf = _ParentBuffer(np.float64, num_feasible)
        # Frozen and pruned slots keep their compiled constants; each
        # shard overwrites exactly its own rows (disjoint by
        # construction).
        self._gather_buf.view[:num_feasible] = self.compiled.scores0
        pools = self._ensure_pools()
        results = [
            pools[shard].apply_async(_shard_gather_worker, ((
                self._blocks[shard].name, self._session_id,
                self._gather_buf.name, num_feasible,
            ),))
            for shard in range(self.shards)
        ]
        for result in results:
            result.get()
        return np.array(self._gather_buf.view[:num_feasible], copy=True)

    def worker_peak_rss_kb(self) -> List[int]:
        """Peak resident set of each shard's worker process, in KiB
        (observability; each worker self-reports ``VmHWM``)."""
        if self.closed:
            raise RuntimeError("sharded runtime is closed")
        pools = self._ensure_pools()
        results = [pool.apply_async(_shard_probe_worker) for pool in pools]
        return [int(result.get()) for result in results]

    def stats(self) -> Dict[str, object]:
        return {
            "shards": self.shards,
            "partition": dict(self.partition.stats),
            "halo_pairs": self.halo_pairs,
            "halo_bytes_per_iteration": self.halo_bytes_per_iteration,
            "halo_exchanges": self.halo_exchanges,
            "exchange_bytes": self.exchange_bytes,
            "broadcast_bytes": self.broadcast_bytes,
            "base_broadcasts": self.base_broadcasts,
            "delta_broadcasts": self.delta_broadcasts,
            "iterations_total": self.iterations_total,
        }


# ----------------------------------------------------------------------
# in-process runner (tests, single-address-space validation)
# ----------------------------------------------------------------------
class InProcessShardRunner:
    """Drive the shard protocol inside one process.

    Same :class:`_ShardWorkerState` objects, same double-buffered halo
    exchange and parent-side reduction -- minus pools and shared memory,
    so hypothesis can shrink failures deterministically.
    """

    def __init__(self, compiled, partition: PairPartition):
        self.compiled = compiled
        self.partition = partition
        self.states = [
            _ShardWorkerState(
                compiled.build_row_subset(partition.positions[shard]),
                partition.halo_ids, partition.halo_owner, shard,
            )
            for shard in range(partition.shards)
        ]
        self._halo_ids = partition.halo_ids

    def apply_patch(self, delta1, delta2, selfsim: bool) -> None:
        """Replay one graph delta on every slice (the caller has already
        patched the full compiled instance) and refresh the halo."""
        from repro.streaming.patch import journal_entry

        patch = journal_entry(delta1, delta2, selfsim)
        for state in self.states:
            state.apply_patch(patch)
        halo_ids, halo_owner, _ = compute_halo(
            self.compiled, self.partition.owner, self.partition.arena_owner
        )
        self._halo_ids = halo_ids
        for state in self.states:
            state.set_halo(halo_ids, halo_owner)

    def iterate(self) -> Tuple[np.ndarray, int, bool, List[float]]:
        halo_len = len(self._halo_ids)
        values = [np.zeros(halo_len), np.zeros(halo_len)]
        flags = [np.zeros(halo_len, dtype=np.uint8),
                 np.zeros(halo_len, dtype=np.uint8)]
        if halo_len:
            values[0][:] = self.compiled.scores0[self._halo_ids]
        for state in self.states:
            state.reset()
        config = self.compiled.config
        epsilon = config.epsilon
        deltas: List[float] = []
        converged = False
        iterations = 0
        for k in range(1, config.iteration_budget() + 1):
            iterations += 1
            side_in = (k - 1) % 2
            side_out = k % 2
            local = [
                state.step(values[side_in], flags[side_in],
                           values[side_out], flags[side_out])
                for state in self.states
            ]
            delta = max(local) if local else 0.0
            deltas.append(delta)
            if delta < epsilon:
                converged = True
                break
        scores = self.compiled.scores0.copy()
        for state in self.states:
            state.gather_into(scores)
        return scores, iterations, converged, deltas


# ----------------------------------------------------------------------
# session factory
# ----------------------------------------------------------------------
def open_sharded_runtime(compiled, shards: int, executor=None,
                         min_updatable: int = MIN_PARALLEL_UPD,
                         start_method: Optional[str] = None
                         ) -> Optional[ShardedSweepRuntime]:
    """A :class:`ShardedSweepRuntime` for ``compiled``, or ``None`` when
    sharding cannot pay (one shard, or fewer updatable rows than
    ``min_updatable`` -- per-iteration process dispatch would dominate
    the arithmetic).  The unsharded path is bitwise identical, so the
    fallback is silent."""
    shards = int(shards)
    if shards <= 1:
        return None
    if compiled.num_updatable < max(shards, int(min_updatable)):
        return None
    partition = partition_pairs(compiled, shards)
    if partition.shards <= 1:
        return None
    return ShardedSweepRuntime(
        compiled, partition, executor=executor, start_method=start_method,
    )

