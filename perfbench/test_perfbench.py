"""Tests of the benchmark itself: tiny-input smoke runs of every workload
and the answer checks failing on a perturbed score vector.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math

import pytest

from perfbench import compare, library, run, service
from perfbench.common import (
    load_spec, same_answer, score_digest, use_checkout_sources,
)
from perfbench.tracer import Tracer


def tiny_spec() -> dict:
    """The real workloads shrunk to run in about a second each."""
    spec = copy.deepcopy(load_spec())
    workloads = spec["workloads"]
    workloads["fig9-bj"]["graph"]["scale"] = 0.05
    workloads["fig9-bj"]["check_scale"] = 1.0
    workloads["synth-bj"]["graph"].update(nodes=30, edges=300)
    workloads["synth-bj"]["check_scale"] = 1.0
    # large enough that the sharded runtime really opens (>= 1024 pairs)
    workloads["synth-bj-sharded"]["graph"].update(nodes=80, edges=800)
    workloads["synth-bj-sharded"]["check_scale"] = 0.5
    for name in ("fig9-bj", "synth-bj", "synth-bj-sharded"):
        workloads[name].update(inputs=2, setup_repeats=1)
    serve = workloads["serve-mixed"]
    serve["graph"]["nodes"] = 40
    serve.update(offered_rps=40.0, server_starts=1, cold_queries=2)
    return spec


@pytest.fixture(scope="module")
def spec():
    use_checkout_sources()
    return tiny_spec()


@pytest.fixture(scope="module")
def bench_json():
    return run.load_benchmark()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize(
    "name", ["fig9-bj", "synth-bj", "synth-bj-sharded", "serve-mixed"])
def test_smoke_emits_every_metric_with_its_unit(spec, bench_json, name, trace):
    record = run.run_workload(name, seed=3, seconds=1.0, trace=trace,
                              log=lambda _: None, spec=spec)
    result = run.finish(record, bench_json)
    assert result["correct"], record["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.metric_table(bench_json, trace)
    assert list(result["metrics"]) == [entry["name"] for entry in expected]
    for entry in expected:
        emitted = result["metrics"][entry["name"]]
        assert emitted["unit"] == entry["unit"]
        assert math.isfinite(emitted["value"])
    json.dumps(result)  # the last output line must serialize
    if trace and name != "serve-mixed":
        assert record["checks"]["trace_coverage"]
    if name == "synth-bj-sharded":
        assert record["checks"]["sharding_ran"]
        if trace:
            assert record["metrics"]["runtime.halo_pairs"] > 0


def test_same_answer_catches_a_one_ulp_change(spec):
    from repro import fsim_matrix

    graph = library.build_graph(
        spec["workloads"]["synth-bj"]["graph"], seed=5)
    scores = fsim_matrix(graph, graph, config=library.build_config(
        spec["workloads"]["synth-bj"]["config"])).scores
    perturbed = dict(scores)
    pair = next(iter(perturbed))
    perturbed[pair] = math.nextafter(perturbed[pair], 2.0)
    assert same_answer(scores, dict(scores)) == []
    assert same_answer(scores, perturbed)
    assert score_digest(scores) != score_digest(perturbed)


def test_perturbed_library_scores_fail_the_run(spec, bench_json, monkeypatch):
    import repro

    real = repro.fsim_matrix

    def perturbed_numpy(graph1, graph2, config=None, **kwargs):
        result = real(graph1, graph2, config=config, **kwargs)
        if config is not None and config.backend == "numpy":
            pair = next(iter(result.scores))
            result.scores[pair] = math.nextafter(result.scores[pair], 2.0)
        return result

    monkeypatch.setattr(repro, "fsim_matrix", perturbed_numpy)
    record = run.run_workload("synth-bj", seed=1, seconds=0.1, trace=False,
                              log=lambda _: None, spec=spec)
    result = run.finish(record, bench_json)
    assert not record["checks"]["reference_parity"]
    assert result["failed"] >= 1 and not result["correct"]


def test_sharded_run_fails_when_no_shard_runs(spec, bench_json, monkeypatch):
    import repro.runtime.sharded

    monkeypatch.setattr(repro.runtime.sharded, "open_sharded_runtime",
                        lambda *args, **kwargs: None)
    record = run.run_workload("synth-bj-sharded", seed=1, seconds=0.1,
                              trace=False, log=lambda _: None, spec=spec)
    result = run.finish(record, bench_json)
    assert not record["checks"]["sharding_ran"]
    assert result["failed"] >= 1 and not result["correct"]


def test_perturbed_replica_fails_the_service_run(spec, bench_json, monkeypatch):
    real = service.replica_scores

    def perturbed(*args):
        scores = real(*args)
        pair = next(iter(scores))
        scores[pair] = math.nextafter(scores[pair], -1.0)
        return scores

    monkeypatch.setattr(service, "replica_scores", perturbed)
    record = run.run_workload("serve-mixed", seed=1, seconds=0.5, trace=False,
                              log=lambda _: None, spec=spec)
    result = run.finish(record, bench_json)
    assert not record["checks"]["final_state_parity"]
    assert not result["correct"]


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    tracer.new_run()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    self_times = tracer.self_times()
    assert self_times["outer"] == pytest.approx(
        Tracer.duration(outer) - Tracer.duration(inner))
    assert inner["parent"] == outer["id"] and outer["parent"] is None


def test_histogram_quantile_from_exposition_deltas():
    def text(counts):
        lines = [f'repro_x_seconds_bucket{{op="a",le="{le}"}} {c}'
                 for le, c in zip(("0.1", "0.2", "+Inf"), counts)]
        return "\n".join(lines + [f"repro_x_seconds_count {counts[-1]}",
                                  f"repro_x_seconds_sum {counts[-1] * 0.15}"])

    before = service.histogram(service.exposition_samples(text((1, 1, 1))),
                               "repro_x_seconds")
    after = service.histogram(service.exposition_samples(text((1, 11, 11))),
                              "repro_x_seconds")
    delta = service.histogram_delta(before, after)
    assert delta["buckets"][0.2] == 10
    assert 0.1 < service.histogram_quantile(delta, 0.5) <= 0.2


def test_compare_flags_regressions_and_wide_spreads(tmp_path, bench_json):
    def write(name, values):
        paths = []
        for i, value in enumerate(values):
            path = tmp_path / f"{name}{i}.json"
            path.write_text(json.dumps({
                "workload": "w",
                "result": {"metrics": {"query_s": {"value": value,
                                                   "unit": "s"}}},
            }))
            paths.append(str(path))
        return paths

    base = write("base", [1.0, 1.01, 0.99, 1.0])
    slower = write("slow", [1.5, 1.52, 1.49, 1.5])
    noisy = write("noisy", [0.6, 1.6, 1.0, 1.4])
    rows = compare.compare(bench_json, base, slower)
    assert [row["verdict"] for row in rows] == ["worse"]
    rows = compare.compare(bench_json, base, noisy)
    assert [row["verdict"] for row in rows] == ["unresolved"]
    rows = compare.compare(bench_json, base, base)
    assert [row["verdict"] for row in rows] == ["same"]
