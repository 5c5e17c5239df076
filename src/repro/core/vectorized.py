"""The vectorized FSim engine: Algorithm 1 over compiled numpy arrays.

Runs the same fixed-point iteration as :class:`repro.core.engine.FSimEngine`
but on the integer-indexed representation of :mod:`repro.core.compile`:

- the s/b mapping terms become segment-max reductions
  (``np.maximum.reduceat`` over precomputed per-source groups) followed
  by per-pair segment sums;
- the cross/SimRank term becomes a per-pair segment sum;
- the dp/bj greedy matching exploits that an entry's weight and repr
  tie-break are functions of its arena pair alone: the arena is sorted
  once per sweep by ``(-score, repr-rank)``, which orders the entries
  of every matching problem at once.  The greedy then runs as
  *locally-dominant rounds* over all problems together: each round
  accepts every live entry that comes first at both of its slots and
  drops the entries on used slots.  Under this strict order the rounds
  accept exactly the reference greedy matching, and one ``bincount``
  sums it in the reference's visit order.  The repr-rank reproduces
  the reference tie-breaking bit for bit (see ``CompiledFSim.tie_rank``);
- after each sweep, the *incremental scheduler* re-queues only the pairs
  whose Equation-3 inputs changed; the trajectory stays bitwise
  identical to the reference engine, because recomputing a pair from
  unchanged inputs reproduces its value exactly.

The engine is selected through ``FSimConfig(backend=...)`` -- see
:meth:`repro.core.engine.FSimEngine.run` for the dispatch rules and
docs/PERF.md for the design notes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.compile import (
    CompiledFSim,
    DirectionTerm,
    compile_fsim,
    ragged_indices,
    segment_sum,
)

SweepFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class VectorizedFSimEngine:
    """Array-program evaluator for one compiled FSim instance."""

    def __init__(self, compiled: CompiledFSim):
        self.compiled = compiled
        #: Per-sweep cache of the arena greedy visit order (both
        #: directions of a sweep read the same pre-sweep scores).
        self._order_cache = None

    # ------------------------------------------------------------------
    # one synchronous sweep over the dirty pairs
    # ------------------------------------------------------------------
    def sweep(self, scores: np.ndarray, upd: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """Equation-3 values of the pairs at positions ``upd`` (reading
        the pre-sweep ``scores`` only, Jacobi style).

        ``out``, when given, receives the values in place (the
        shared-memory executor points it at a worker's range of the
        shared output buffer, so results never cross the process
        boundary by pickling).  The clamping operations are identical
        either way -- the out-form is bitwise equal to the returned
        array.
        """
        compiled = self.compiled
        cfg = compiled.config
        self._order_cache = None
        out_vals: object = 0.0
        in_vals: object = 0.0
        if compiled.out_term is not None:
            out_vals = self._term(scores, upd, compiled.out_term)
        if compiled.in_term is not None:
            in_vals = self._term(scores, upd, compiled.in_term)
        raw = (
            cfg.w_out * out_vals
            + cfg.w_in * in_vals
            + cfg.w_label * compiled.upd_label[upd]
        )
        if out is None:
            return np.minimum(np.maximum(raw, 0.0), 1.0)
        raw = np.asarray(raw, dtype=np.float64)
        np.maximum(raw, 0.0, out=raw)
        np.minimum(raw, 1.0, out=out)
        return out

    def _term(self, scores: np.ndarray, upd: np.ndarray,
              term: DirectionTerm) -> np.ndarray:
        if term.family == "sb":
            forward, backward = term.structures
            total = self._sb_totals(scores, upd, forward)
            if backward is not None:
                total = total + self._sb_totals(scores, upd, backward)
        elif term.family == "cross":
            (structure,) = term.structures
            if upd.size == len(self.compiled.upd_arena):  # full sweep
                total = segment_sum(
                    scores[structure.ent_arena], structure.ent_count
                )
            else:
                counts = structure.ent_count[upd]
                idx = ragged_indices(structure.ent_start[upd], counts)
                total = segment_sum(scores[structure.ent_arena[idx]], counts)
        else:
            from repro.obs.profiling import phase

            with phase("engine.match"):
                total = self._match_totals(scores, upd, term)
        conv = term.conv[upd]
        values = conv.copy()
        active = np.isnan(conv)
        if active.any():
            values[active] = np.minimum(
                total[active] / term.denom[upd][active], 1.0
            )
        return values

    def _sb_totals(self, scores, upd, structure) -> np.ndarray:
        """Sum over sources of the best feasible target weight.

        Each group maximum is floored at 0.0 like the reference
        ``_best_match_sum`` (its running best starts at 0.0, so a source
        whose feasible targets all score negative -- possible through
        negative pinned values -- contributes nothing).
        """
        if upd.size == len(self.compiled.upd_arena):  # full sweep
            weights = scores[structure.ent_arena]
            grp_counts = structure.grp_count
            starts = structure.grp_pos_full
        else:
            ent_counts = structure.ent_count[upd]
            idx = ragged_indices(structure.ent_start[upd], ent_counts)
            weights = scores[structure.ent_arena[idx]]
            grp_counts = structure.grp_count[upd]
            gidx = ragged_indices(structure.grp_start[upd], grp_counts)
            lengths = structure.grp_len[gidx]
            starts = np.cumsum(lengths) - lengths
        if starts.size:
            maxima = np.maximum(np.maximum.reduceat(weights, starts), 0.0)
        else:
            maxima = np.empty(0, dtype=np.float64)
        return segment_sum(maxima, grp_counts)

    def _arena_greedy_order(self, scores) -> np.ndarray:
        """The reference greedy's global visit order over arena pairs.

        An entry's weight and repr tie-break are functions of its arena
        pair alone, so sorting the (much smaller) arena by
        ``(-score, repr-rank)`` once per sweep totally orders the entries
        of *every* matching problem.  Returns the positive-score
        pair-ids in visit order (weight <= 0 is never visited by the
        reference greedy).
        """
        if self._order_cache is None:
            order = np.lexsort((self.compiled.tie_rank, -scores))
            self._order_cache = order[:int(np.count_nonzero(scores > 0.0))]
        return self._order_cache

    def _match_totals(self, scores, upd, term: DirectionTerm) -> np.ndarray:
        """Greedy max-weight matching sums by locally-dominant rounds.

        The live entries are gathered in global rank order.  Each round
        accepts every entry that comes first among the live entries at
        both its left and its right slot, then drops the entries on used
        slots.  Slots are disjoint across problems and an arena pair
        occurs at most once per problem, so the order within a slot is
        strict and the rounds accept exactly the reference greedy
        matching (Preis 1999).  The |M_chi| cap keeps each problem's
        first ``cap`` acceptances in rank order -- exactly what a capped
        greedy accepts.  (A compiled cap is the maximum matching size,
        which no greedy matching exceeds, so there it never binds.)  One
        ``bincount`` over the acceptances in rank order sums each
        problem in the reference's visit order, bit for bit.
        """
        (structure,) = term.structures
        num_updatable = self.compiled.num_updatable
        full = upd.size == num_updatable
        visit_order = self._arena_greedy_order(scores)
        indptr = structure.ba_indptr
        # int32 entry indices keep the entry-sized temporaries small.
        index = np.int32 if indptr[-1] < 2 ** 31 else np.int64
        entries = ragged_indices(
            indptr[visit_order], indptr[visit_order + 1] - indptr[visit_order],
            dtype=index,
        )
        if not full:
            active = np.zeros(num_updatable, dtype=bool)
            active[upd] = True
            entries = entries[active[structure.ba_prob[entries]]]
        lslot = structure.ba_lslot[entries]
        rslot = structure.ba_rslot[entries]
        pos = np.arange(entries.size, dtype=index)
        first_l = np.empty(structure.num_lslots, dtype=index)
        first_r = np.empty(structure.num_rslots, dtype=index)
        used_l = np.zeros(structure.num_lslots, dtype=bool)
        used_r = np.zeros(structure.num_rslots, dtype=bool)
        accepted = np.zeros(entries.size, dtype=bool)
        while pos.size:
            # Reversed assignment: the last write wins, so each slot
            # ends up holding its first live position.
            first_l[lslot[::-1]] = pos[::-1]
            first_r[rslot[::-1]] = pos[::-1]
            wins = (first_l[lslot] == pos) & (first_r[rslot] == pos)
            accepted[pos[wins]] = True
            used_l[lslot[wins]] = True
            used_r[rslot[wins]] = True
            live = np.flatnonzero(~(used_l[lslot] | used_r[rslot]))
            pos, lslot, rslot = pos[live], lslot[live], rslot[live]
        chosen = entries[accepted]
        probs = structure.ba_prob[chosen]
        caps = structure.cap
        if (np.bincount(probs, minlength=num_updatable) > caps).any():
            by_prob = np.argsort(probs, kind="stable")
            sorted_probs = probs[by_prob]
            starts = np.searchsorted(sorted_probs, sorted_probs)
            ordinal = np.empty(probs.size, dtype=np.int64)
            ordinal[by_prob] = np.arange(probs.size) - starts
            keep = ordinal < caps[probs]
            chosen, probs = chosen[keep], probs[keep]
        weights = scores[np.searchsorted(indptr, chosen, side="right") - 1]
        # (an empty bincount comes back int64 even with weights)
        totals = np.bincount(
            probs, weights=weights, minlength=num_updatable
        ).astype(np.float64, copy=False)
        return totals if full else totals[upd]

    # ------------------------------------------------------------------
    # the fixed-point loop with the dirty-pair scheduler
    # ------------------------------------------------------------------
    def iterate(
        self,
        sweep: Optional[SweepFn] = None,
        trajectory: Optional[List[np.ndarray]] = None,
        watch: Optional[np.ndarray] = None,
        on_iteration: Optional[Callable[..., bool]] = None,
    ) -> Tuple[np.ndarray, int, bool, List[float]]:
        """Run Algorithm 1 to convergence; returns
        ``(scores, iterations, converged, deltas)``.

        When ``trajectory`` is a list, a copy of the full arena score
        array is appended before the first sweep and after every sweep
        (the per-iteration Jacobi trajectory) -- the state
        :meth:`iterate_incremental` replays.  Memory is
        ``(iterations + 1) * num_feasible`` floats.

        ``on_iteration(iteration, scores[watch], delta, converged)`` is
        called after every sweep (``None`` in place of the watched
        scores when ``watch`` is ``None``); returning True stops the
        loop -- the contract of
        :meth:`repro.runtime.sharded.ShardedSweepRuntime.iterate`.
        """
        compiled = self.compiled
        sweep = sweep or self.sweep
        scores = compiled.scores0.copy()
        upd = np.arange(len(compiled.upd_arena), dtype=np.int64)
        if trajectory is not None:
            trajectory.append(scores.copy())
        from repro.obs.profiling import observe_iterations, phase

        deltas: List[float] = []
        converged = False
        iterations = 0
        epsilon = compiled.config.epsilon
        with phase("engine.iterate"):
            for _ in range(compiled.config.iteration_budget()):
                iterations += 1
                if upd.size:
                    new_values = sweep(scores, upd)
                    arena_ids = compiled.upd_arena[upd]
                    change = np.abs(new_values - scores[arena_ids])
                    delta = float(change.max())
                    scores[arena_ids] = new_values
                    dirty = arena_ids[change > 0.0]
                else:
                    delta = 0.0
                    dirty = np.empty(0, dtype=np.int64)
                deltas.append(delta)
                if trajectory is not None:
                    trajectory.append(scores.copy())
                converged = delta < epsilon
                if on_iteration is not None and on_iteration(
                    iterations, None if watch is None else scores[watch],
                    delta, converged,
                ):
                    break
                if converged:
                    break
                upd = compiled.dependents(dirty)
        observe_iterations(iterations, converged)
        return scores, iterations, converged, deltas

    def iterate_incremental(
        self,
        trajectory: List[np.ndarray],
        touched: np.ndarray,
        dirty0: Optional[np.ndarray] = None,
        sweep: Optional[SweepFn] = None,
    ) -> Tuple[np.ndarray, int, bool, List[float]]:
        """Replay the cold Jacobi trajectory after a structural delta.

        The scheduled iteration of
        :meth:`iterate` follows the full Jacobi trajectory bit for bit
        (a pair none of whose inputs changed recomputes to the same
        float), so the cold run after a graph delta is a deterministic
        function of the compiled instance.  This method computes that
        *exact* trajectory incrementally from the previous run's:

        - ``trajectory`` holds the previous run's per-iteration arena
          score arrays (``trajectory[0]`` must already hold the *new*
          initial scores; later levels hold the previous run's values,
          with NaN in any slot that has no usable history).  It is
          mutated in place into the new run's trajectory.
        - ``touched`` are the ``upd_arena`` positions whose update rule
          changed (entry lists, denominators, label term) -- they are
          re-swept every iteration.  Positions with NaN history must be
          included.
        - ``dirty0`` are arena pair-ids whose level-0 scores differ from
          the previous run's (label-driven initial changes).

        Every other pair is re-swept only once its Equation-3 inputs
        diverge from the previous trajectory, and the divergence
        frontier is tracked *bitwise*: a pair that recomputes to its
        previous-run value (common under clamping) re-converges and
        stops propagating.  The returned ``(scores, iterations,
        converged, deltas)`` is bitwise identical to a cold
        :meth:`iterate` on the same compiled instance.
        """
        from repro.obs.profiling import observe_iterations, phase

        compiled = self.compiled
        sweep = sweep or self.sweep
        epsilon = compiled.config.epsilon
        num_updatable = compiled.num_updatable
        touched = np.unique(np.asarray(touched, dtype=np.int64))
        if dirty0 is None:
            dirty_arena = np.empty(0, dtype=np.int64)
        else:
            dirty_arena = np.unique(np.asarray(dirty0, dtype=np.int64))
        deltas: List[float] = []
        converged = False
        iterations = 0
        with phase("engine.iterate"):
            for level in range(1, compiled.config.iteration_budget() + 1):
                iterations += 1
                prev = trajectory[level - 1]
                if level >= len(trajectory):
                    # Beyond the previous run's horizon: no history to
                    # replay against, fall back to full sweeps.
                    cur = prev.copy()
                    trajectory.append(cur)
                    upd = np.arange(num_updatable, dtype=np.int64)
                else:
                    cur = trajectory[level]
                    deps = compiled.dependents(dirty_arena)
                    if deps.size >= num_updatable:
                        upd = deps  # full sweep; touched is a subset
                    else:
                        upd = np.union1d(touched, deps)
                if upd.size:
                    new_values = sweep(prev, upd)
                    arena_ids = compiled.upd_arena[upd]
                    previous_run = cur[arena_ids]
                    cur[arena_ids] = new_values
                    # NaN history compares unequal to everything, so
                    # pairs without usable history always propagate.
                    with np.errstate(invalid="ignore"):
                        changed = new_values != previous_run
                    dirty_arena = arena_ids[changed]
                else:
                    dirty_arena = np.empty(0, dtype=np.int64)
                delta = float(np.abs(cur - prev).max()) if cur.size else 0.0
                deltas.append(delta)
                if delta < epsilon:
                    converged = True
                    break
        observe_iterations(iterations, converged)
        del trajectory[iterations + 1:]
        return trajectory[iterations], iterations, converged, deltas


def run_vectorized(engine, executor, shards: Optional[int] = None):
    """Run ``engine``'s computation on the numpy backend.

    ``engine`` is a :class:`repro.core.engine.FSimEngine`; the caller has
    already checked :func:`repro.core.engine.vectorized_fallback_reason`.
    The fixed point runs through :func:`repro.runtime.driver.run_compiled`
    -- the sharded runtime when ``shards`` (default ``config.shards``)
    > 1 and the instance shards, else ``executor``'s sweep session
    (an :class:`repro.runtime.executor.Executor`).  Every runner returns
    the same :class:`~repro.core.engine.FSimResult` bit for bit.
    """
    from repro.core.engine import FSimResult
    from repro.runtime.driver import run_compiled

    compiled = compile_fsim(engine.graph1, engine.graph2, engine.config)
    if shards is None:
        shards = engine.config.shards
    scores, iterations, converged, deltas = run_compiled(
        compiled, executor, shards
    )
    return FSimResult(
        scores=compiled.result_scores(scores),
        config=engine.config,
        iterations=iterations,
        converged=converged,
        deltas=deltas,
        num_candidates=compiled.num_candidates,
        fallback=engine.result_fallback(),
    )
