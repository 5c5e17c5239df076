"""The parallel runtime (Section 3.4 / Figure 9a, as a layer).

Iteration k of Algorithm 1 reads only iteration k-1 scores, so pair
updates parallelize without conflicts.  Every parallel caller runs on
one :class:`~repro.runtime.executor.Executor`:

- :class:`~repro.runtime.executor.SerialExecutor` -- the in-process
  reference path (``workers == 1``);
- :class:`~repro.runtime.executor.SharedMemoryExecutor` -- the one
  worker pool: **persistent** (reused across queries, batches and
  streaming updates) with the sweep state double-buffered in
  ``multiprocessing.shared_memory``.  Each sweep ships only pair-id
  range descriptors; workers write their range's Equation-3 values
  straight into the shared output buffer.  It also runs the reference
  engine's pair steps and whole-query fan-out, under both the fork and
  spawn start methods.

``FSimConfig(workers=...)`` (or a per-call ``workers=``) is the only
parallelism setting: :func:`resolve_executor` maps it to the serial
executor or to the pool of that size, which :func:`get_executor` caches
process-wide so repeated queries share one pool.  Every executor
produces results bitwise identical to serial iteration -- see
``tests/test_runtime.py``.

:mod:`repro.runtime.sharded` layers *ownership* on top: with
``FSimConfig(shards=...)`` the pair space is partitioned once per
session and each shard's compiled rows live worker-local for the
session's lifetime -- only boundary scores cross processes per Jacobi
iteration (a shared-memory halo exchange), instead of re-broadcasting
O(arena) state.  Sharded results are bitwise identical too.
:func:`~repro.runtime.driver.run_compiled` is the one place that picks
between the shards and an executor's sweep session.
"""

from repro.runtime.driver import run_compiled

from repro.runtime.executor import (
    Executor,
    SerialExecutor,
    SharedMemoryExecutor,
    SweepChannel,
    evict_idle_executors,
    executor_registry_stats,
    get_executor,
    preferred_start_method,
    resolve_executor,
    shutdown_all,
    shutdown_executors,
    update_pairs,
)
from repro.runtime.sharded import (
    InProcessShardRunner,
    ShardedSweepRuntime,
    open_sharded_runtime,
)

__all__ = [
    "InProcessShardRunner",
    "ShardedSweepRuntime",
    "open_sharded_runtime",
    "run_compiled",
    "Executor",
    "SerialExecutor",
    "SharedMemoryExecutor",
    "SweepChannel",
    "evict_idle_executors",
    "executor_registry_stats",
    "get_executor",
    "preferred_start_method",
    "resolve_executor",
    "shutdown_all",
    "shutdown_executors",
    "update_pairs",
]
