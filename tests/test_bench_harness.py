"""The system-benchmark harness (``benchmarks/harness.py``): which runs
write a report, what the report is stamped with, and which failures
set the exit status."""

import importlib.util
import json
import pathlib
import types

import pytest

HARNESS_PATH = (pathlib.Path(__file__).resolve().parents[1]
                / "benchmarks" / "harness.py")


@pytest.fixture
def harness(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_harness",
                                                  HARNESS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    return module


def fake_bench(check_failures=(), gate_failures=()):
    """A bench whose run records its sizes and whose checks and gates
    record that they ran."""
    calls = []

    def run_benchmark(size=100, nodes=10):
        calls.append(("run", size, nodes))
        return {"size": size, "nodes": nodes}

    def checks(report):
        calls.append(("checks", report["size"]))
        return list(check_failures)

    def gates(report):
        calls.append(("gates", report["size"]))
        return list(gate_failures)

    return types.SimpleNamespace(
        __doc__="fake bench", RESULT="BENCH_fake.json", SMOKE={"size": 3},
        FLAGS={"nodes": 10}, run_benchmark=run_benchmark,
        render=lambda report: f"size={report['size']}",
        checks=checks, gates=gates, calls=calls,
    )


def test_smoke_writes_no_file_but_runs_checks(harness, tmp_path):
    bench = fake_bench()
    assert harness.main(bench, ["--smoke"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert bench.calls == [("run", 3, 10), ("checks", 3)]


def test_full_run_writes_a_machine_stamped_report(harness, tmp_path):
    bench = fake_bench()
    assert harness.main(bench, ["--nodes", "7"]) == 0
    report = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert (report["size"], report["nodes"]) == (100, 7)
    for key in ("nproc", "affinity", "python", "numpy", "git_sha"):
        assert report["machine"][key], key
    assert bench.calls == [("run", 100, 7), ("checks", 100), ("gates", 100)]


def test_failing_gate_exits_1(harness, tmp_path):
    bench = fake_bench(gate_failures=["too slow"])
    assert harness.main(bench, []) == 1
    assert (tmp_path / "BENCH_fake.json").exists()


def test_no_gate_skips_gates_but_not_checks(harness):
    slow = fake_bench(gate_failures=["too slow"])
    assert harness.main(slow, ["--no-gate"]) == 0
    assert ("gates", 100) not in slow.calls

    wrong = fake_bench(check_failures=["parity broken"])
    assert harness.main(wrong, ["--no-gate"]) == 1
    assert harness.main(wrong, ["--smoke"]) == 1
