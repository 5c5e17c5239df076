"""Configuration of the FSimX framework.

Mirrors the paper's knobs:

- ``variant`` -- which chi-simulation to quantify (Table 3 row);
- ``w_out`` / ``w_in`` -- the weighting factors w+ and w- of Equation 1
  (the paper's experiments use w+ = w- = 0.4, i.e. w* = 0.2);
- ``label_function`` -- L(.) of Section 3.3 (default Jaro-Winkler, the
  paper's choice after Table 5);
- ``theta`` -- the label-constrained-mapping threshold of Remark 2;
- ``alpha`` / ``beta`` -- the upper-bound-updating constants of
  Section 3.4 (enabled with ``use_upper_bound``);
- ``epsilon`` -- the convergence tolerance (the paper terminates when
  values change by less than 0.01);
- ``matching_mode`` -- "greedy" (the paper's Avis-style approximation of
  Hungarian) or "exact" (scipy Hungarian; satisfies condition C3 of
  Theorem 1 exactly, guaranteeing simulation definiteness);
- ``backend`` -- which compute backend evaluates Algorithm 1: "python"
  (the dict-based reference engine), "numpy" (the vectorized
  integer-indexed engine of :mod:`repro.core.vectorized`), or "auto"
  (numpy when the configuration is expressible and the problem is large
  enough to amortize compilation; see docs/PERF.md);
- ``workers`` -- the parallel runtime (Section 3.4 / Figure 9a): how
  many worker processes of the :mod:`repro.runtime` pool share each
  iteration's pair updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, Optional, Tuple, Union

from repro.exceptions import ConfigError
from repro.labels.similarity import LabelSimilarity, get_label_function
from repro.simulation.base import Variant

Pair = Tuple[Hashable, Hashable]

#: Recognised compiled-arena storage backends (see
#: :meth:`repro.core.compile.CompiledFSim.convert_to_memmap`).
ARENA_BACKENDS = ("ram", "memmap")


@dataclass(frozen=True)
class FSimConfig:
    """Immutable configuration for one FSimX computation."""

    variant: Variant = Variant.S
    w_out: float = 0.4
    w_in: float = 0.4
    label_function: Union[str, LabelSimilarity] = "jaro_winkler"
    theta: float = 0.0
    use_upper_bound: bool = False
    alpha: float = 0.0
    beta: float = 0.5
    epsilon: float = 0.01
    max_iterations: Optional[int] = None
    matching_mode: str = "greedy"
    #: Optional score initialisation override ``f(u, v) -> float``
    #: (used by the SimRank / RoleSim configurations of Section 4.3).
    init_function: Optional[Callable[[Hashable, Hashable], float]] = None
    #: Pairs whose score is fixed and never updated (SimRank's diagonal).
    pinned_pairs: Optional[Dict[Pair, float]] = None
    #: Normalizer for the dp/bj matching term: "table3" follows the paper
    #: (|S1| for dp, sqrt(|S1||S2|) for bj); "max" uses max(|S1|, |S2|)
    #: (RoleSim's normalizer, needed by the Section 4.3 configuration).
    normalizer: str = "table3"
    #: Extra candidate filter ``f(u, v) -> bool`` applied on top of theta.
    candidate_filter: Optional[Callable[[Hashable, Hashable], bool]] = None
    #: Compute backend: "auto" picks the vectorized numpy engine when the
    #: configuration supports it (falling back to the reference Python
    #: engine otherwise), "python"/"numpy" force a specific backend.
    backend: str = "auto"
    #: Worker processes for the parallel runtime (Section 3.4 /
    #: Figure 9a): 1 = in-process serial.  Per-call ``workers=``
    #: arguments override this default.
    workers: int = 1
    #: Pair-space shards for the persistent sharded runtime
    #: (:mod:`repro.runtime.sharded`): 1 = unsharded.  With ``shards >
    #: 1`` each shard's compiled rows (entry lists, dependency CSR,
    #: dp/bj slots) live worker-local for the session's lifetime and
    #: only boundary scores cross processes per iteration.  Results are
    #: bitwise identical to the unsharded engine.
    shards: int = 1
    #: Storage backend for the big compiled slabs: "ram" (plain numpy)
    #: or "memmap" (``numpy.memmap`` files behind the same array
    #: interface, so arenas larger than RAM compile and iterate).
    arena_backend: str = "ram"

    def __post_init__(self):
        variant = Variant(self.variant)
        object.__setattr__(self, "variant", variant)
        if not 0.0 <= self.w_out < 1.0:
            raise ConfigError(f"w_out must be in [0, 1), got {self.w_out}")
        if not 0.0 <= self.w_in < 1.0:
            raise ConfigError(f"w_in must be in [0, 1), got {self.w_in}")
        if not 0.0 < self.w_out + self.w_in < 1.0:
            raise ConfigError(
                "w_out + w_in must lie strictly between 0 and 1, got "
                f"{self.w_out + self.w_in}"
            )
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must be in [0, 1], got {self.theta}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.matching_mode not in ("greedy", "exact"):
            raise ConfigError(
                f"matching_mode must be 'greedy' or 'exact', got {self.matching_mode!r}"
            )
        if self.normalizer not in ("table3", "max"):
            raise ConfigError(
                f"normalizer must be 'table3' or 'max', got {self.normalizer!r}"
            )
        if self.backend not in ("auto", "python", "numpy"):
            raise ConfigError(
                f"backend must be 'auto', 'python' or 'numpy', got {self.backend!r}"
            )
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive when given")
        if int(self.workers) < 1:
            raise ConfigError(f"workers must be positive, got {self.workers}")
        if int(self.shards) < 1:
            raise ConfigError(f"shards must be positive, got {self.shards}")
        if self.arena_backend not in ARENA_BACKENDS:
            raise ConfigError(
                f"arena_backend must be one of {ARENA_BACKENDS}, "
                f"got {self.arena_backend!r}"
            )

    @property
    def w_label(self) -> float:
        """The label weight w* = 1 - w+ - w-."""
        return 1.0 - self.w_out - self.w_in

    @property
    def resolved_label_function(self) -> LabelSimilarity:
        return get_label_function(self.label_function)

    def iteration_budget(self) -> int:
        """Corollary 1: convergence within ceil(log_{w+ + w-} epsilon).

        An explicit ``max_iterations`` overrides the bound.
        """
        if self.max_iterations is not None:
            return self.max_iterations
        decay = self.w_out + self.w_in
        bound = math.ceil(math.log(self.epsilon) / math.log(decay))
        return max(1, bound)

    def with_options(self, **changes) -> "FSimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Configuration presets used throughout the paper's experiments.
def paper_default(variant: Variant = Variant.S, **overrides) -> FSimConfig:
    """w+ = w- = 0.4, Jaro-Winkler labels, eps = 0.01 (Section 5.1)."""
    base = FSimConfig(variant=variant, w_out=0.4, w_in=0.4)
    return base.with_options(**overrides) if overrides else base


def case_study_default(variant: Variant, **overrides) -> FSimConfig:
    """Section 5.4: indicator label function (label semantics are clear)."""
    base = FSimConfig(variant=variant, w_out=0.4, w_in=0.4, label_function="indicator")
    return base.with_options(**overrides) if overrides else base
