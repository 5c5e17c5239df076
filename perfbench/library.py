"""The library workloads: cold all-pairs queries through the public API.

Untraced runs time ``repro.fsim_matrix`` with the plan caches cleared
before every query.  Traced runs alternate that untraced query with the
same computation driven layer by layer -- ``repro.core.plan`` lowering,
``repro.core.compile``, then ``repro.core.vectorized`` iteration (each
sweep through the public ``iterate(sweep=...)`` hook) or a
``repro.runtime.sharded`` session -- with a span around every call.
"""

from __future__ import annotations

import gc
import os
import random
import time
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from perfbench.common import (
    process_peak_rss_mb,
    setup_time,
    same_answer,
    tail,
    score_digest,
)
from perfbench.tracer import Tracer

START_METHOD_ENV = "REPRO_RUNTIME_START_METHOD"


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def build_graph(graph_spec: dict, seed: int, scale: float = 1.0,
                index: int = 0):
    """Input ``index`` of the workload for ``seed``.

    The structure comes from the workload's fixed ``structure_seed``;
    ``seed`` and ``index`` draw the node numbering.  Every seed thus
    runs the same iterations on different inputs (drawing the structure
    from the seed moved the query time by a fifth between seeds, through
    the iteration count).  The numbering still moves the matching
    kernel's work by up to a fifth, so a run cycles over several
    numberings.  ``scale`` shrinks the graph for the reference-engine
    check (same generator, same density).
    """
    base_seed = graph_spec["structure_seed"]
    if graph_spec["generator"] == "acmcit":
        from repro.datasets import load_dataset
        from repro.graph.noise import densify

        base = load_dataset("acmcit", scale=graph_spec["scale"] * scale,
                            seed=base_seed)
        graph = densify(base, float(graph_spec["densify"]), base_seed)
    elif graph_spec["generator"] == "random":
        from repro.graph.generators import random_graph, uniform_labels

        nodes = max(2, round(graph_spec["nodes"] * scale))
        edges = round(graph_spec["edges"] * nodes / graph_spec["nodes"])
        graph = random_graph(
            nodes, edges,
            uniform_labels(nodes, graph_spec["labels"], base_seed), base_seed,
        )
    elif graph_spec["generator"] == "power_law":
        from repro.graph.generators import power_law_graph, uniform_labels

        nodes = graph_spec["nodes"]
        graph = power_law_graph(
            nodes, graph_spec["edges_per_node"],
            uniform_labels(nodes, graph_spec["labels"], base_seed), base_seed,
        )
    else:
        raise ValueError(f"unknown generator {graph_spec['generator']!r}")
    return renumber(graph, f"{seed}:{index}")


def renumber(graph, seed: str):
    """A copy of ``graph`` with its nodes renumbered 0..n-1 in an order
    drawn from ``seed`` (inserted in that order)."""
    from repro.graph import LabeledDigraph

    nodes = list(graph.nodes())
    numbers = list(range(len(nodes)))
    random.Random(seed).shuffle(numbers)
    number = dict(zip(nodes, numbers))
    out = LabeledDigraph(graph.name)
    for node in sorted(nodes, key=number.__getitem__):
        out.add_node(number[node], graph.label(node))
    for source, target in graph.edges():
        out.add_edge(number[source], number[target])
    return out


def build_config(config_spec: dict, shards: int = 1, backend: str = "numpy"):
    from repro.core.config import FSimConfig
    from repro.simulation import Variant

    return FSimConfig(
        variant=Variant(config_spec["variant"]),
        theta=config_spec["theta"],
        label_function=config_spec["label_function"],
        use_upper_bound=config_spec.get("use_upper_bound", False),
        backend=backend,
        shards=shards,
    )


# ----------------------------------------------------------------------
# one cold query, untraced and traced
# ----------------------------------------------------------------------
def cold_query(graph, config):
    """One cold ``fsim_matrix`` call; returns ``(seconds, scores)``."""
    from repro import fsim_matrix
    from repro.core.plan import clear_plan_caches

    clear_plan_caches()
    gc.collect()
    start = time.perf_counter()
    result = fsim_matrix(graph, graph, config=config)
    return time.perf_counter() - start, result.scores


def traced_query(tracer: Tracer, graph, config) -> dict:
    """The same computation as :func:`cold_query`, one span per layer
    call.  Returns the scores plus the layer counters of this query."""
    from repro.core.compile import compile_fsim
    from repro.core.plan import clear_plan_caches, lower_graph
    from repro.core.vectorized import VectorizedFSimEngine
    from repro.runtime.sharded import open_sharded_runtime

    clear_plan_caches()
    gc.collect()
    run = tracer.new_run()
    counts = {"pairs_swept": 0, "changed": 0}
    runtime_stats: Optional[dict] = None
    worker_rss_kb: List[int] = []
    with tracer.span("query"):
        with tracer.span("plan.lower"):
            lower_graph(graph)
        with tracer.span("compile"):
            compiled = compile_fsim(graph, graph, config)
        runtime = None
        if config.shards > 1:
            with tracer.span("runtime.open"):
                runtime = open_sharded_runtime(compiled, config.shards)
        if runtime is not None:
            try:
                with tracer.span("runtime.iterate"):
                    scores, iterations, _, _ = runtime.iterate()
                runtime_stats = runtime.stats()
                worker_rss_kb = runtime.worker_peak_rss_kb()
            finally:
                with tracer.span("runtime.close"):
                    runtime.close()
        else:
            engine = VectorizedFSimEngine(compiled)

            def sweep(current, upd):
                with tracer.span("iterate.sweep"):
                    values = engine.sweep(current, upd)
                counts["pairs_swept"] += len(upd)
                counts["changed"] += int(np.count_nonzero(
                    values != current[compiled.upd_arena[upd]]
                ))
                return values

            with tracer.span("iterate"):
                scores, iterations, _, _ = engine.iterate(sweep=sweep)
        with tracer.span("result"):
            result = compiled.result_scores(scores)
    match_entries = sum(
        len(structure.ent_arena)
        for term in (compiled.out_term, compiled.in_term)
        if term is not None and term.family == "match"
        for structure in term.structures
    )
    return {
        "run": run,
        "scores": result,
        "iterations": iterations,
        "candidate_pairs": compiled.num_candidates,
        "updatable_pairs": compiled.num_updatable,
        "match_entries": match_entries,
        "arena_mb": sum(compiled.arena_nbytes().values()) / 2**20,
        "runtime": runtime_stats,
        "worker_rss_mb": sum(worker_rss_kb) / 1024.0,
        **counts,
    }


def sharded_session(graph, config) -> Optional[dict]:
    """One sharded fixed point opened directly, to see that shards ran:
    ``None`` when the runtime declined or exchanged no halo, else its
    scores and the workers' summed peak resident memory."""
    from repro.core.compile import compile_fsim
    from repro.runtime.sharded import open_sharded_runtime

    compiled = compile_fsim(graph, graph, config)
    runtime = open_sharded_runtime(compiled, config.shards)
    if runtime is None:
        return None
    try:
        scores = runtime.iterate()[0]
        if runtime.stats()["halo_pairs"] <= 0:
            return None
        worker_rss_mb = sum(runtime.worker_peak_rss_kb()) / 1024.0
    finally:
        runtime.close()
    return {"scores": compiled.result_scores(scores),
            "worker_rss_mb": worker_rss_mb}


def same_scores(first: dict, other: dict) -> bool:
    """Bitwise equality of two results of the same compiled instance
    (same pair order), without re-sorting."""
    if list(first) != list(other):
        return False
    return (np.array(list(first.values())).tobytes()
            == np.array(list(other.values())).tobytes())


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
@contextmanager
def start_method(method: Optional[str]):
    """Run the shard workers under ``method`` (the program reads
    ``REPRO_RUNTIME_START_METHOD``); restores the environment after."""
    previous = os.environ.get(START_METHOD_ENV)
    if method is not None:
        os.environ[START_METHOD_ENV] = method
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(START_METHOD_ENV, None)
        else:
            os.environ[START_METHOD_ENV] = previous


def run(spec: dict, seed: int, seconds: float, trace: bool, log) -> dict:
    """Run one library workload; returns metrics, counts and checks."""
    with start_method(spec.get("start_method")):
        return _run(spec, seed, seconds, trace, log)


def _run(spec: dict, seed: int, seconds: float, trace: bool, log) -> dict:
    shards = int(spec.get("shards", 1))
    config = build_config(spec["config"], shards=shards)
    checks: Dict[str, bool] = {}
    attempted = failed = 0

    # set-up: input generation, timed for every input and again
    # ``setup_repeats`` times before every query so that its samples
    # span the whole run (see common.setup_time)
    setup_times: List[float] = []

    def timed_setup(index: int):
        start = time.perf_counter()
        built = build_graph(spec["graph"], seed, index=index)
        setup_times.append(time.perf_counter() - start)
        return built

    graphs = [timed_setup(index) for index in range(spec["inputs"])]
    graph = graphs[0]
    log(f"# inputs: {len(graphs)} numberings of {graph.num_nodes} nodes, "
        f"{graph.num_edges} edges")

    # check 1: a scaled-down instance matches the reference engine
    small = build_graph(spec["graph"], seed, scale=spec["check_scale"])
    from repro import fsim_matrix

    reference = fsim_matrix(small, small, config=build_config(
        spec["config"], backend="python")).scores
    fast = fsim_matrix(small, small, config=config).scores
    problems = same_answer(reference, fast)
    checks["reference_parity"] = not problems
    attempted += 1
    failed += bool(problems)
    for problem in problems:
        log(f"# MISMATCH reference vs numpy ({small.num_nodes} nodes): "
            f"{problem}")

    # measurement: cold queries over the inputs in turn until the window
    # closes (traced runs pair each untraced query with a traced one)
    times: List[List[float]] = [[] for _ in graphs]
    traced: List[dict] = []
    first_scores: List[Optional[dict]] = [None for _ in graphs]
    tracer = Tracer()
    wrong = 0
    queries = 0
    deadline = time.perf_counter() + seconds
    while queries < len(graphs) or time.perf_counter() < deadline:
        index = queries % len(graphs)
        queries += 1
        for _ in range(spec["setup_repeats"]):
            timed_setup(index)
        elapsed, scores = cold_query(graphs[index], config)
        times[index].append(elapsed)
        attempted += 1
        if first_scores[index] is None:
            first_scores[index] = scores
        elif not same_scores(first_scores[index], scores):
            wrong += 1
            log("# MISMATCH: a repeated cold query changed its answer")
        if trace:
            info = traced_query(tracer, graphs[index], config)
            info["untraced_s"] = elapsed
            traced.append(info)
            attempted += 1
            if not same_scores(first_scores[index], info["scores"]):
                wrong += 1
                log("# MISMATCH: the traced query changed the answer")
    peak_rss = process_peak_rss_mb()
    failed += wrong
    checks["repeatable"] = wrong == 0

    # check 2 (sharded): shards really ran, and their answer equals the
    # serial engine's by sha256
    if shards > 1:
        session = sharded_session(graph, config)
        serial_digest = score_digest(cold_query(graph, build_config(
            spec["config"]))[1])
        ran = session is not None
        equal = ran and score_digest(session["scores"]) == serial_digest \
            and score_digest(first_scores[0]) == serial_digest
        checks["sharding_ran"] = ran
        checks["sharded_equals_serial"] = equal
        attempted += 1
        failed += not equal
        if not ran:
            log("# FAILED: the sharded runtime did not open (no halo pairs); "
                "the queries ran unsharded")
        elif not equal:
            log("# MISMATCH: sharded scores differ from serial by sha256")
        else:
            # spawned workers share no pages with the parent: the work's
            # peak is the parent's plus every worker's
            peak_rss += session["worker_rss_mb"]

    every = [elapsed for samples in times for elapsed in samples]
    metrics = {
        "setup_s": setup_time(setup_times),
        "peak_rss_mb": peak_rss,
        "query_s": median(every),
        "read_p50_ms": median(every) * 1e3,
        "read_tail_ms": tail(every) * 1e3,
        "goodput_rps": max(len(every) - wrong, 0) / sum(every),
    }
    samples = {"queries": len(every), "inputs": len(graphs),
               "setup_s": len(setup_times)}
    if trace:
        metrics.update(_layer_metrics(tracer, traced))
        samples["traced_queries"] = len(traced)
        checks["trace_coverage"] = metrics["trace.coverage"] >= 0.9
        if not checks["trace_coverage"]:
            log(f"# FAILED: trace.coverage {metrics['trace.coverage']:.3f} "
                "is under 0.9: the layer spans miss part of the query")
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "tracer": tracer if trace else None,
        "query_times_s": times,
        "setup_times_s": setup_times,
        "digests": [score_digest(scores) for scores in first_scores],
        "input": {"nodes": graph.num_nodes, "edges": graph.num_edges},
    }


def _layer_metrics(tracer: Tracer, traced: List[dict]) -> dict:
    """Per-layer metrics: medians over the traced queries.  Coverage and
    overhead compare each traced query with the untraced query run just
    before it on the same input."""
    per_query = []
    for info in traced:
        totals = tracer.totals(info["run"])
        self_times = tracer.self_times(info["run"])
        sweep_s = totals.get("iterate.sweep", 0.0)
        iterate_s = totals.get("iterate", 0.0)
        root = tracer.roots(info["run"])[0]
        layers = sum(tracer.duration(child)
                     for child in tracer.children(root["id"]))
        runtime = info["runtime"] or {}
        pairs = info["pairs_swept"]
        per_query.append({
            "plan.lower_s": totals.get("plan.lower", 0.0),
            "compile.s": totals.get("compile", 0.0),
            "compile.candidate_pairs": info["candidate_pairs"],
            "compile.updatable_pairs": info["updatable_pairs"],
            "compile.match_entries": info["match_entries"],
            "compile.arena_mb": info["arena_mb"],
            "iterate.s": iterate_s,
            "iterate.sweep_s": sweep_s,
            "iterate.frontier_s": self_times.get("iterate", 0.0),
            "iterate.iterations": info["iterations"],
            "iterate.pairs_swept": pairs,
            "iterate.changed_ratio": info["changed"] / pairs if pairs else 0.0,
            "iterate.us_per_pair": sweep_s / pairs * 1e6 if pairs else 0.0,
            "result.s": totals.get("result", 0.0),
            "runtime.open_s": totals.get("runtime.open", 0.0)
            + totals.get("runtime.close", 0.0),
            "runtime.iterate_s": totals.get("runtime.iterate", 0.0),
            "runtime.broadcast_mb": runtime.get("broadcast_bytes", 0) / 2**20,
            "runtime.exchange_mb": runtime.get("exchange_bytes", 0) / 2**20,
            "runtime.halo_pairs": runtime.get("halo_pairs", 0),
            "runtime.worker_rss_mb": info["worker_rss_mb"],
            "trace.coverage": layers / info["untraced_s"],
            "trace.overhead_ratio":
                tracer.duration(root) / info["untraced_s"] - 1.0,
        })
    return {key: median([row[key] for row in per_query])
            for key in per_query[0]}
