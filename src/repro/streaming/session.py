"""Incremental FSim sessions: scores maintained across graph mutations.

The fixed point of Equation 3 is a contraction (Theorem 1), so it
converges from *any* starting vector -- yet before this subsystem every
mutation threw the whole computation away: the version bump evicted the
cached plan and the next query recompiled and re-iterated from the
L-initialization.  :class:`IncrementalFSim` keeps the computation alive
instead:

- mutations are recorded through per-graph :class:`~repro.streaming.delta.DeltaLog`
  wrappers (``session.log1`` / ``session.log2``);
- on :meth:`IncrementalFSim.compute`, the drained delta is pushed down
  the stack: the cached :class:`~repro.core.plan.GraphPlan` is patched
  by array surgery -- one memcpy-bound splice per op
  (:func:`repro.core.plan.patch_cached_plan`) --, and the compiled
  instance is patched row-wise for edge-only deltas
  (:func:`repro.streaming.patch.patch_compiled_edges`) or recompiled
  for node/label churn.

One resume rule then brings the scores up to date, always **bitwise
identical** to a cold recomputation (scores, iteration count,
per-iteration deltas):

- an unsharded session whose worst-case Jacobi trajectory --
  ``(iteration_budget() + 1) * num_feasible`` floats -- fits
  ``max_trajectory_mb`` keeps that trajectory and replays it through
  :meth:`~repro.core.vectorized.VectorizedFSimEngine.iterate_incremental`,
  re-sweeping only the frontier of pairs the delta touched (directly,
  or transitively through the dependency CSR);
- every other session re-runs the fixed point cold on the patched
  arena: across the shard runtime when one is open, else on the
  session's pool sweep (recording the trajectory when it now fits).

Out-of-band mutations (anything bypassing the logs, detected through
the version bracket) trigger a transparent cold resynchronization.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.compile import CompiledFSim, compile_fsim
from repro.core.config import FSimConfig
from repro.core.engine import FSimEngine, FSimResult, vectorized_fallback_reason
from repro.core.plan import lower_graph, patch_cached_plan
from repro.core.vectorized import VectorizedFSimEngine
from repro.exceptions import ConfigError
from repro.graph.digraph import LabeledDigraph
from repro.streaming.delta import Delta, DeltaLog
from repro.streaming.patch import CompiledPatchError, patch_compiled_edges


class IncrementalFSim:
    """One live FSim computation over a mutating graph pair.

    Parameters
    ----------
    graph1, graph2:
        The compared graphs (``graph1 is graph2`` means all-pairs
        self-similarity; the shared log is then exposed as both ``log1``
        and ``log2``).
    config:
        A :class:`~repro.core.config.FSimConfig`; must be expressible on
        the vectorized backend (custom init functions / candidate
        filters / exact matching raise :class:`ConfigError`).
    max_trajectory_mb:
        Upper bound on replay-trajectory memory.  A session whose
        worst-case trajectory would exceed it keeps none and re-runs
        the fixed point cold on the patched arena after each edit --
        same floats, no trajectory memory.
    workers / executor:
        The :mod:`repro.runtime` worker pool for the re-sweeps: its
        size (default ``config.workers``), or an
        :class:`~repro.runtime.executor.Executor` instance to use
        as-is.  With ``workers > 1`` the session's sweeps run over one
        persistent pool, reused across every :meth:`compute` --
        results stay bitwise identical to the serial session.
    shards:
        ``> 1`` (default ``config.shards``) serves the session from the
        persistent sharded runtime (:mod:`repro.runtime.sharded`): each
        worker owns a pair-space slice for the session's lifetime,
        edits route as O(delta) journal entries to the owning shards,
        and each :meth:`compute` re-runs the fixed point cold across
        the shards -- bitwise identical to the replay, at zero
        trajectory memory.  Instances too small to shard silently run
        unsharded.
    """

    def __init__(
        self,
        graph1: LabeledDigraph,
        graph2: LabeledDigraph,
        config: Optional[FSimConfig] = None,
        max_trajectory_mb: float = 1024.0,
        workers: Optional[int] = None,
        executor=None,
        shards: Optional[int] = None,
    ):
        from repro.runtime import resolve_executor

        config = config or FSimConfig()
        reason = vectorized_fallback_reason(config)
        if reason is None and config.backend == "python":
            reason = "backend='python' requested"
        if reason is not None:
            raise ConfigError(
                f"streaming sessions require the vectorized backend ({reason})"
            )
        self.graph1 = graph1
        self.graph2 = graph2
        self.config = config
        self.max_trajectory_mb = float(max_trajectory_mb)
        self.shards = int(shards if shards is not None else config.shards)
        if self.shards < 1:
            raise ConfigError(f"shards must be positive, got {self.shards}")
        self._sharded = None  # lazy ShardedSweepRuntime (shards > 1)
        self.executor = resolve_executor(config, workers, executor)
        # Persistent broadcast channel (parallel executors only):
        # the full compiled state crosses to the worker pool once, then
        # each compute ships only the recorded deltas -- see
        # :class:`repro.runtime.SweepChannel`.
        self._channel = self.executor.open_channel()
        if self._channel is not None:
            self._channel_finalizer = weakref.finalize(
                self, _close_channel, self._channel
            )
        self.log1 = DeltaLog(graph1)
        self.log2 = self.log1 if graph2 is graph1 else DeltaLog(graph2)
        self._compiled: Optional[CompiledFSim] = None
        self._trajectory: Optional[List[np.ndarray]] = None
        self._result: Optional[FSimResult] = None
        self.stats: Dict[str, int] = {
            "cold_runs": 0,
            "incremental_runs": 0,
            "plan_patches": 0,
            "compiled_patches": 0,
            "full_recompiles": 0,
            "out_of_band_resyncs": 0,
            "iterations": 0,
            "sharded_runs": 0,
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compute(self) -> FSimResult:
        """Bring the scores up to date with the graphs and return them.

        Cold on the first call; incremental afterwards (the cheapest
        sound path for the drained delta: compiled patch > plan patch +
        recompile > cold resync).  With no pending mutations the cached
        result is returned as-is.

        A failure mid-update (e.g. a failed recompile) drops every cached artifact before propagating: the delta was already
        drained, so serving the pre-delta result on the next call would
        be silently stale -- instead the next call resynchronizes cold.
        """
        try:
            return self._compute()
        except Exception:
            self._compiled = None
            self._trajectory = None
            self._result = None
            self._discard_sharded()
            if self._channel is not None:
                self._channel.invalidate()
            raise

    def _compute(self) -> FSimResult:
        delta1 = self.log1.drain()
        delta2 = delta1 if self.log2 is self.log1 else self.log2.drain()
        if self._compiled is None:
            return self._cold()
        if delta1.out_of_band or delta2.out_of_band:
            self.stats["out_of_band_resyncs"] += 1
            return self._cold()
        if not delta1.ops and not delta2.ops and self._result is not None:
            return self._result
        return self._incremental(delta1, delta2)

    @property
    def result(self) -> Optional[FSimResult]:
        """The most recent result (None before the first compute)."""
        return self._result

    def close(self) -> None:
        """Release the session's persistent executor channel.

        The (shared, cached) executor itself is left running.  Safe to
        call more than once; a session dropped without ``close`` is
        cleaned up by a finalizer, but a long-lived server should close
        evicted sessions promptly -- each open channel pins
        shared-memory blocks (and each sharded runtime, worker pools).
        """
        self._discard_sharded()
        if self._channel is not None:
            self._channel.close()

    def __enter__(self) -> "IncrementalFSim":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # snapshot support (repro.service.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """The session's resumable state, as one picklable payload.

        Captures the compiled arrays, the replay trajectory (``None``
        when the session keeps none) and the converged result; the graphs themselves are not
        included (the service snapshot layer stores them alongside and
        fingerprints the combination).  Requires a computed, fully
        drained session.
        """
        if self._compiled is None or self._result is None:
            raise ConfigError("nothing to snapshot: call compute() first")
        if self.log1.pending or self.log2.pending:
            raise ConfigError(
                "pending mutations: call compute() before snapshot_state()"
            )
        return {
            "config": self.config,
            "compiled": self._compiled,
            "trajectory": (list(self._trajectory)
                           if self._trajectory is not None else None),
            "result": self._result,
            "versions": (self.graph1.version, self.graph2.version),
        }

    def adopt_state(self, state: dict) -> None:
        """Install a :meth:`snapshot_state` payload into a fresh session.

        The caller is responsible for the graphs matching the payload
        (the service layer enforces this with a content fingerprint
        before calling).  After adoption, a :meth:`compute` with no
        pending mutations returns the snapshot result without compiling
        or iterating; mutations resume from it under the session's own
        rule -- an unsharded session replays a carried trajectory that
        fits ``max_trajectory_mb``; otherwise the first edit re-runs the
        patched arena cold (across the shards when the session is
        sharded).  Keys a payload carries beyond those read here are
        ignored.
        """
        if state["config"] != self.config:
            raise ConfigError("snapshot config does not match the session")
        self._compiled = state["compiled"]
        trajectory = state["trajectory"]
        keep = (trajectory is not None and self.shards <= 1
                and self._fits_trajectory(self._compiled))
        self._trajectory = list(trajectory) if keep else None
        self._result = state["result"]
        if self._channel is not None:
            self._channel.invalidate()

    @property
    def trajectory_bytes(self) -> int:
        """Current replay-state footprint (0 when none is kept)."""
        if not self._trajectory:
            return 0
        return sum(level.nbytes for level in self._trajectory)

    # ------------------------------------------------------------------
    # the fixed point: cold runs and the one resume rule
    # ------------------------------------------------------------------
    def _fits_trajectory(self, compiled: CompiledFSim) -> bool:
        """Whether the worst-case replay trajectory over ``compiled``
        fits ``max_trajectory_mb``."""
        levels = self.config.iteration_budget() + 1
        worst = levels * max(compiled.num_feasible, 1) * 8
        return worst <= self.max_trajectory_mb * (1 << 20)

    def _cold(self) -> FSimResult:
        self.stats["cold_runs"] += 1
        compiled = compile_fsim(self.graph1, self.graph2, self.config)
        self._discard_sharded()
        if self._channel is not None:
            self._channel.invalidate()  # fresh compiled instance
        return self._finish(compiled, self._run_cold(compiled))

    def _run_cold(self, compiled: CompiledFSim):
        """Run the fixed point from the L-initialization on ``compiled``:
        across the shards when the session is sharded and its slices
        publish, else on the pool sweep, recording the replay
        trajectory when it fits."""
        from repro.runtime.sharded import ShardedUnavailable, warn_unsharded

        sharded = self._ensure_sharded(compiled)
        if sharded is not None:
            try:
                outcome = sharded.iterate()
            except ShardedUnavailable:
                self._discard_sharded()
                warn_unsharded()
            else:
                self._trajectory = None
                self.stats["sharded_runs"] += 1
                return outcome
        engine = VectorizedFSimEngine(compiled)
        trajectory = [] if self._fits_trajectory(compiled) else None
        with self.executor.sweep_session(engine,
                                         channel=self._channel) as sweep:
            outcome = engine.iterate(sweep=sweep, trajectory=trajectory)
        self._trajectory = trajectory
        return outcome

    def _incremental(self, delta1: Delta, delta2: Delta) -> FSimResult:
        """Patch the arena for the delta, then replay the trajectory if
        one is kept, else re-run the patched arena cold."""
        self.stats["incremental_runs"] += 1
        self._refresh_plans(delta1, delta2)
        compiled = self._compiled
        dirty0: Optional[np.ndarray] = None
        try:
            touched = patch_compiled_edges(
                compiled, lower_graph(self.graph1), lower_graph(self.graph2),
                delta1, delta2,
            )
            self.stats["compiled_patches"] += 1
            # Workers replay this exact patch from the ops alone -- the
            # broadcast for this update is O(delta), not O(graph).
            selfsim = self.graph2 is self.graph1
            if self._channel is not None:
                self._channel.record_patch(delta1, delta2, selfsim)
            if self._sharded is not None:
                self._sharded.record_patch(delta1, delta2, selfsim)
        except CompiledPatchError:
            compiled, touched, dirty0 = self._recompile(delta1, delta2)
        if self._trajectory is None:
            return self._finish(compiled, self._run_cold(compiled))
        engine = VectorizedFSimEngine(compiled)
        with self.executor.sweep_session(engine,
                                         channel=self._channel) as sweep:
            outcome = engine.iterate_incremental(
                self._trajectory, touched, dirty0, sweep=sweep
            )
        return self._finish(compiled, outcome)

    def _finish(self, compiled: CompiledFSim, outcome) -> FSimResult:
        scores, iterations, converged, deltas = outcome
        self._compiled = compiled
        self.stats["iterations"] += iterations
        return self._wrap(scores, iterations, converged, deltas)

    # ------------------------------------------------------------------
    # sharded serving (shards > 1)
    # ------------------------------------------------------------------
    def _ensure_sharded(self, compiled: CompiledFSim):
        """The session's sharded runtime over ``compiled``, opened
        lazily (``None`` when the session is unsharded or the instance
        is too small to shard -- the caller falls back to the
        bitwise-identical unsharded paths)."""
        from repro.runtime.sharded import open_sharded_runtime

        if self._sharded is not None and not self._sharded.closed:
            return self._sharded
        runtime = open_sharded_runtime(
            compiled, self.shards, executor=self.executor
        )
        if runtime is not None:
            weakref.finalize(self, _close_runtime, runtime)
        self._sharded = runtime
        return runtime

    def _discard_sharded(self) -> None:
        if self._sharded is not None:
            self._sharded.close()
            self._sharded = None

    def _refresh_plans(self, delta1: Delta, delta2: Delta) -> None:
        if delta1.ops and patch_cached_plan(
            self.graph1, delta1.ops, delta1.base_version
        ) is not None:
            self.stats["plan_patches"] += 1
        if self.graph2 is not self.graph1 and delta2.ops:
            if patch_cached_plan(
                self.graph2, delta2.ops, delta2.base_version
            ) is not None:
                self.stats["plan_patches"] += 1

    def _recompile(
        self, delta1: Delta, delta2: Delta
    ) -> Tuple[CompiledFSim, Optional[np.ndarray], Optional[np.ndarray]]:
        """Full recompile (node/label churn, pruning configs).  A kept
        trajectory is remapped into the new arena -- or dropped when the
        grown arena no longer fits the budget, leaving a cold re-run."""
        self.stats["full_recompiles"] += 1
        old = self._compiled
        new = compile_fsim(self.graph1, self.graph2, self.config)
        self._discard_sharded()  # the partition was over the old arena
        if self._channel is not None:
            self._channel.invalidate()  # new compiled instance
        if self._trajectory is None or not self._fits_trajectory(new):
            self._trajectory = None
            return new, None, None
        old_ids, new_ids = _arena_mapping(old, new)
        new_upd_slots = new.maintained & ~new.frozen
        mapped_slot = np.zeros(new.num_feasible, dtype=bool)
        mapped_slot[new_ids] = True
        unmapped = np.flatnonzero(~mapped_slot[new.upd_arena])
        touched = np.union1d(
            unmapped, self._affected_positions(new, delta1, delta2)
        )
        base = np.where(new_upd_slots, np.nan, new.scores0)
        levels = []
        for level in self._trajectory:
            remapped = base.copy()
            remapped[new_ids] = level[old_ids]
            levels.append(remapped)
        with np.errstate(invalid="ignore"):
            dirty0 = np.flatnonzero(levels[0] != new.scores0)
        levels[0] = new.scores0.copy()
        self._trajectory = levels
        return new, touched, dirty0

    def _affected_positions(self, compiled: CompiledFSim, delta1: Delta,
                            delta2: Delta) -> np.ndarray:
        """Updatable rows whose update rule a general delta may have
        changed: rows whose endpoint is a touched node or adjacent to
        one (a relabeled node changes the entry lists of every pair
        whose neighborhood contains it, without any edge op naming the
        pair's own endpoints)."""

        def closure(delta: Delta, graph: LabeledDigraph, index) -> set:
            nodes = set()
            for node in delta.touched_nodes():
                if graph.has_node(node):
                    nodes.add(node)
                    nodes.update(graph.neighbors(node))
            return {index[node] for node in nodes}

        aff1 = closure(delta1, self.graph1, compiled.index1)
        aff2 = closure(delta2, self.graph2, compiled.index2)
        mask = np.zeros(compiled.num_updatable, dtype=bool)
        if aff1:
            sel = np.zeros(compiled.n1, dtype=bool)
            sel[list(aff1)] = True
            mask |= sel[compiled.upd_u]
        if aff2:
            sel = np.zeros(compiled.n2, dtype=bool)
            sel[list(aff2)] = True
            mask |= sel[compiled.upd_v]
        return np.flatnonzero(mask)

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def _wrap(self, scores: np.ndarray, iterations: int, converged: bool,
              deltas: List[float]) -> FSimResult:
        cfg = self.config
        fallback = None
        if cfg.use_upper_bound and cfg.alpha > 0.0:
            # A fresh engine per compute is deliberate: the alpha
            # fallback must answer pruned pairs from the graph state
            # *this* result was computed on, and the engine snapshots
            # adjacency at construction.  Upper-bound configs take the
            # full-recompile path anyway, so the O(V+E) snapshot is not
            # on the patched fast path.
            fallback = FSimEngine(
                self.graph1, self.graph2, cfg
            ).result_fallback()
        result = FSimResult(
            scores=self._compiled.result_scores(scores),
            config=cfg,
            iterations=iterations,
            converged=converged,
            deltas=list(deltas),
            num_candidates=self._compiled.num_candidates,
            fallback=fallback,
        )
        self._result = result
        return result


def _close_channel(channel) -> None:
    """Finalizer target (must not be a bound method of the session)."""
    channel.close()


def _close_runtime(runtime) -> None:
    """Finalizer target for dropped sessions' sharded runtimes."""
    runtime.close()


def _arena_mapping(
    old: CompiledFSim, new: CompiledFSim
) -> Tuple[np.ndarray, np.ndarray]:
    """Arena ids of the pairs present -- and updatable -- in both
    compilations, as parallel ``(old_ids, new_ids)`` arrays."""
    map1 = np.full(max(old.n1, 1), -1, dtype=np.int64)
    for i, node in enumerate(old.nodes1):
        j = new.index1.get(node)
        if j is not None:
            map1[i] = j
    map2 = np.full(max(old.n2, 1), -1, dtype=np.int64)
    for i, node in enumerate(old.nodes2):
        j = new.index2.get(node)
        if j is not None:
            map2[i] = j
    if old.num_feasible == 0 or new.num_feasible == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    new_u = map1[old.arena_u.astype(np.int64)]
    new_v = map2[old.arena_v.astype(np.int64)]
    valid = (new_u >= 0) & (new_v >= 0)
    old_ids = np.flatnonzero(valid)
    if old_ids.size == 0:
        return old_ids, old_ids
    if new._pair_id_dense is not None:
        ids = new._pair_id_dense[new_u[valid], new_v[valid]].astype(np.int64)
        exists = ids >= 0
    else:
        keys = new_u[valid] * max(new.n2, 1) + new_v[valid]
        pos = np.searchsorted(new._sorted_keys, keys)
        pos = np.minimum(pos, max(len(new._sorted_keys) - 1, 0))
        exists = (len(new._sorted_keys) > 0) & (
            new._sorted_keys[pos] == keys
        )
        ids = np.where(exists, new._key_order[pos], -1).astype(np.int64)
    old_ids = old_ids[exists]
    new_ids = ids[exists]
    old_upd = old.maintained & ~old.frozen
    new_upd = new.maintained & ~new.frozen
    keep = old_upd[old_ids] & new_upd[new_ids]
    return old_ids[keep], new_ids[keep]
