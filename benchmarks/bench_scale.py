"""Memory trajectory of the sharded candidate arena at x100 scale.

The ROADMAP north star asks the reproduction to handle graphs two
orders of magnitude past the paper's tables.  This benchmark builds a
synthetic self-similarity workload at that scale -- >= 10^4 nodes and
>= 10^6 candidate pairs under FSimbj with theta = 1 (the Figure-9
configuration) -- and drives the same fixed point through four arena
configurations:

- **unsharded / ram**: the baseline engine, every compiled slab
  resident in one address space;
- **unsharded / memmap**: the memory-mapped arena backend alone
  (slabs on disk, OS pages them on demand);
- **sharded / ram**: the persistent sharded runtime
  (:mod:`repro.runtime.sharded`), each worker owning one pair-space
  partition for the session lifetime;
- **sharded / memmap**: both -- the intended million-pair deployment
  shape.

Each configuration runs in its **own subprocess** so peak RSS
(``resource.ru_maxrss``, driver and pool workers separately) is
attributed per configuration, and an out-of-memory kill is recorded
honestly as ``{"oom": true}`` instead of taking the benchmark down.

Correctness is never traded for memory: every configuration reports a
SHA-256 checksum over the full score vector plus a fixed subsample of
pair scores, and the harness asserts both **bitwise identical** to the
unsharded reference.  Sharded runs also report the halo traffic
accounting (per-iteration cross-process bytes are O(boundary pairs),
not O(arena)).

Writes ``BENCH_scale.json`` through :mod:`harness`:

    python benchmarks/bench_scale.py [--smoke | --no-gate]
        [--nodes N] [--labels L] [--edges-per-node E] [--shards S]
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys
import time

import harness

RESULT = "BENCH_scale.json"

#: Full-scale workload floor (the acceptance bar of the sharding PR).
FULL_NODES = 10_000
FULL_LABELS = 100
FULL_EDGES_PER_NODE = 5
FULL_SHARDS = 4
SUBSAMPLE = 512

#: Required headline: sharded+memmap peak RSS below unsharded+ram.
RSS_GATE = 0.9

#: Workload-size flags (``--nodes`` ...) for full runs.
FLAGS = {
    "nodes": FULL_NODES,
    "labels": FULL_LABELS,
    "edges_per_node": FULL_EDGES_PER_NODE,
    "shards": FULL_SHARDS,
}

#: The four configurations and their parity assertions at CI size.
SMOKE = dict(nodes=400, labels=8, edges_per_node=4, shards=2, timeout=600.0)

CHILD_MARKER = "BENCH_SCALE_CHILD_RESULT "


# ----------------------------------------------------------------------
# child process: one configuration, one fixed point, RSS self-report
# ----------------------------------------------------------------------
def _build_workload(spec: dict):
    from repro.core.compile import compile_fsim
    from repro.core.config import FSimConfig
    from repro.graph.generators import random_graph, uniform_labels
    from repro.simulation import Variant

    n = spec["nodes"]
    graph = random_graph(
        n, spec["edges"],
        uniform_labels(n, spec["labels"], seed=spec["seed"]),
        seed=spec["seed"] + 1,
    )
    config = FSimConfig(
        variant=Variant.BJ, label_function="indicator", theta=1.0,
        backend="numpy", arena_backend=spec["arena_backend"],
        shards=spec["shards"],
    )
    return compile_fsim(graph, graph, config)


def run_child(spec: dict) -> dict:
    """Compile and iterate one configuration; return the measurement."""
    import numpy as np

    from repro.runtime.sharded import (
        open_sharded_runtime,
        process_peak_rss_kb,
    )

    t0 = time.perf_counter()
    compiled = _build_workload(spec)
    compile_seconds = time.perf_counter() - t0
    result = {
        "nodes": spec["nodes"],
        "edges": spec["edges"],
        "candidate_pairs": int(compiled.num_feasible),
        "updatable_pairs": int(compiled.num_updatable),
        "arena_bytes": dict(compiled.arena_nbytes()),
        "compile_seconds": compile_seconds,
    }
    t0 = time.perf_counter()
    if spec["shards"] > 1:
        # Spawn-start workers: each begins from a fresh interpreter, so
        # its peak RSS measures what a sharded worker actually holds
        # (its slice), not copy-on-write pages inherited from the
        # driver's full compile.
        runtime = open_sharded_runtime(
            compiled, spec["shards"], min_updatable=1,
            start_method="spawn",
        )
        if runtime is None:
            raise SystemExit("sharded runtime unavailable for workload")
        try:
            scores, iterations, converged, _ = runtime.iterate()
            stats = runtime.stats()
            worker_rss_kb = runtime.worker_peak_rss_kb()
        finally:
            runtime.close()
        result["halo"] = {
            "pairs": stats["halo_pairs"],
            "bytes_per_iteration": stats["halo_bytes_per_iteration"],
            "exchange_bytes": stats["exchange_bytes"],
            "broadcast_bytes": stats["broadcast_bytes"],
        }
    else:
        from repro.core.vectorized import VectorizedFSimEngine

        scores, iterations, converged, _ = VectorizedFSimEngine(
            compiled
        ).iterate()
        worker_rss_kb = []
    result["iterate_seconds"] = time.perf_counter() - t0
    result["iterations"] = int(iterations)
    result["converged"] = bool(converged)

    scores = np.asarray(scores, dtype=np.float64)
    rng = np.random.default_rng(spec["seed"])
    sample_ids = np.sort(rng.choice(
        len(scores), size=min(SUBSAMPLE, len(scores)), replace=False
    ))
    result["scores_sha256"] = hashlib.sha256(scores.tobytes()).hexdigest()
    result["subsample"] = {
        "pair_ids": [int(i) for i in sample_ids],
        # repr round-trips float64 exactly: the parent compares these
        # for bitwise equality across configurations.
        "scores": [scores[i].hex() for i in sample_ids],
    }
    # Per-process peaks, each self-reported (VmHWM): RUSAGE_CHILDREN
    # is useless here because Linux folds the pre-exec copy-on-write
    # image of a fork+exec ("spawn") child into its ru_maxrss.
    result["peak_rss_mb"] = {
        "driver": process_peak_rss_kb() / 1024.0,
        "workers": max(worker_rss_kb, default=0) / 1024.0,
    }
    result["peak_rss_mb"]["max"] = max(result["peak_rss_mb"].values())
    return result


# ----------------------------------------------------------------------
# parent: per-configuration subprocesses, parity + RSS comparison
# ----------------------------------------------------------------------
def run_config(spec: dict, timeout: float) -> dict:
    """One configuration in its own interpreter; OOM recorded, not fatal."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--child", json.dumps(spec)],
        capture_output=True, text=True, timeout=timeout,
    )
    for line in proc.stdout.splitlines():
        if line.startswith(CHILD_MARKER):
            return json.loads(line[len(CHILD_MARKER):])
    # The honest-OOM branch: the kernel's OOM killer delivers SIGKILL
    # (returncode -9) and MemoryError unwinds with a traceback.
    oom = proc.returncode == -9 or "MemoryError" in proc.stderr
    return {
        "oom": oom,
        "error": f"child exited {proc.returncode}",
        "stderr_tail": proc.stderr.strip().splitlines()[-3:],
    }


def run_benchmark(nodes: int = FULL_NODES, labels: int = FULL_LABELS,
                  edges_per_node: int = FULL_EDGES_PER_NODE,
                  shards: int = FULL_SHARDS, seed: int = 97,
                  timeout: float = 3600.0) -> dict:
    base = {
        "nodes": nodes,
        "edges": nodes * edges_per_node,
        "labels": labels,
        "seed": seed,
    }
    configs = {
        "unsharded_ram": dict(base, shards=1, arena_backend="ram"),
        "unsharded_memmap": dict(base, shards=1, arena_backend="memmap"),
        "sharded_ram": dict(base, shards=shards, arena_backend="ram"),
        "sharded_memmap": dict(base, shards=shards, arena_backend="memmap"),
    }
    runs = {}
    for name, spec in configs.items():
        print(f"[bench_scale] running {name} "
              f"(n={spec['nodes']}, shards={spec['shards']}, "
              f"backend={spec['arena_backend']}) ...", flush=True)
        runs[name] = run_config(spec, timeout)
        rss = runs[name].get("peak_rss_mb", {}).get("max")
        print(f"[bench_scale]   -> peak RSS "
              f"{rss:.0f} MB" if rss is not None else
              f"[bench_scale]   -> {runs[name].get('error')}", flush=True)

    report = {
        "benchmark": "bench_scale",
        "workload": dict(base, shards=shards,
                         variant="BJ", theta=1.0,
                         label_function="indicator"),
        "runs": runs,
        "parity": check_parity(runs),
        "headline": headline(runs),
    }
    return report


def check_parity(runs: dict) -> dict:
    """Every completed run must match the unsharded reference bitwise."""
    reference = runs.get("unsharded_ram", {})
    out = {"reference": "unsharded_ram", "compared": [], "bitwise": True}
    if "scores_sha256" not in reference:
        out["bitwise"] = None  # reference itself OOMed: nothing to compare
        return out
    for name, run in runs.items():
        if name == "unsharded_ram" or "scores_sha256" not in run:
            continue
        same = (
            run["scores_sha256"] == reference["scores_sha256"]
            and run["subsample"] == reference["subsample"]
            and run["iterations"] == reference["iterations"]
        )
        out["compared"].append({"config": name, "bitwise": same})
        out["bitwise"] = out["bitwise"] and same
    return out


def headline(runs: dict) -> dict:
    """The number the PR exists for: sharded+memmap RSS vs unsharded."""
    baseline = runs.get("unsharded_ram", {})
    contender = runs.get("sharded_memmap", {})
    out = {}
    if baseline.get("oom"):
        out["unsharded_oom"] = True
    base_rss = baseline.get("peak_rss_mb", {}).get("max")
    cont_rss = contender.get("peak_rss_mb", {}).get("max")
    if base_rss and cont_rss:
        out["unsharded_ram_rss_mb"] = base_rss
        out["sharded_memmap_rss_mb"] = cont_rss
        out["rss_ratio"] = cont_rss / base_rss
    halo = contender.get("halo")
    if halo and contender.get("arena_bytes"):
        arena = sum(contender["arena_bytes"].values())
        out["halo_bytes_per_iteration"] = halo["bytes_per_iteration"]
        out["arena_bytes"] = arena
        out["halo_fraction_of_arena"] = (
            halo["bytes_per_iteration"] / arena if arena else None
        )
    return out


def render(report: dict) -> str:
    lines = ["# bench_scale: sharded candidate arena at x100 scale", ""]
    for name, run in report["runs"].items():
        if "peak_rss_mb" in run:
            lines.append(
                f"{name:18s} peak RSS {run['peak_rss_mb']['max']:8.0f} MB  "
                f"(driver {run['peak_rss_mb']['driver']:.0f}, "
                f"workers {run['peak_rss_mb']['workers']:.0f})  "
                f"{run['iterations']} iters, "
                f"{run['candidate_pairs']} pairs, "
                f"compile {run['compile_seconds']:.1f}s, "
                f"iterate {run['iterate_seconds']:.1f}s"
            )
        else:
            lines.append(f"{name:18s} {'OOM' if run.get('oom') else 'FAILED'}"
                         f" ({run.get('error')})")
    lines.append("")
    parity = report["parity"]
    lines.append(f"parity vs {parity['reference']}: "
                 f"{'bitwise identical' if parity['bitwise'] else parity}")
    head = report["headline"]
    if "rss_ratio" in head:
        lines.append(
            f"headline: sharded+memmap RSS = {head['rss_ratio']:.2f}x "
            f"unsharded+ram"
        )
    if "halo_fraction_of_arena" in head and head["halo_fraction_of_arena"]:
        lines.append(
            f"halo traffic/iteration = {head['halo_bytes_per_iteration']} "
            f"bytes = {head['halo_fraction_of_arena']:.4f} of the arena"
        )
    return "\n".join(lines)


def checks(report: dict) -> list:
    if report["parity"]["bitwise"] is False:
        return ["a configuration diverged from the unsharded reference"]
    return []


def gates(report: dict) -> list:
    head = report["headline"]
    if head.get("unsharded_oom"):
        return []  # the sharded runs carry a workload unsharded cannot
    ratio = head.get("rss_ratio")
    if ratio is None or ratio > RSS_GATE:
        return [f"sharded+memmap RSS ratio {ratio} above gate {RSS_GATE}"]
    return []


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:  # one configuration, for run_config
        print(CHILD_MARKER + json.dumps(run_child(json.loads(sys.argv[2]))))
        raise SystemExit(0)
    raise SystemExit(harness.main(sys.modules[__name__]))
