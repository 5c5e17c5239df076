"""Streaming FSim: incremental score maintenance under graph mutations.

Layering (bottom up):

- :mod:`repro.streaming.delta` -- :class:`DeltaLog` records structured
  mutations on a :class:`~repro.graph.digraph.LabeledDigraph` between
  snapshots;
- :mod:`repro.core.plan` -- ``patch_cached_plan`` applies a delta to the
  cached per-graph lowering by array surgery (one memcpy-bound
  splice per op, vs the per-node Python loops of a fresh lowering);
- :mod:`repro.streaming.patch` -- ``patch_compiled_edges`` splices the
  touched rows of a compiled FSim instance for edge-only deltas, and
  ``journal_entry`` / ``replay_journal_entry`` let worker-side copies
  (pool sweeps, shards) follow the same patch from its ops alone;
- :mod:`repro.streaming.session` -- :class:`IncrementalFSim` brings the
  fixed point up to date with one rule, bitwise identical to a cold
  run either way: replay the stored Jacobi trajectory when it fits
  ``max_trajectory_mb`` (unsharded sessions only), else re-run the
  patched arena cold.

See docs/PERF.md ("The streaming subsystem") and docs/ARCHITECTURE.md.
"""

from repro.streaming.delta import (
    Delta,
    DeltaLog,
    DeltaOp,
    apply_script_op,
    parse_edit_script,
)
from repro.streaming.patch import CompiledPatchError, patch_compiled_edges
from repro.streaming.session import IncrementalFSim

__all__ = [
    "Delta",
    "DeltaLog",
    "DeltaOp",
    "apply_script_op",
    "parse_edit_script",
    "CompiledPatchError",
    "patch_compiled_edges",
    "IncrementalFSim",
]
