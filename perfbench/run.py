"""The repository benchmark's one command.

Run a workload (from the repository root)::

    python3 perfbench/run.py --workload synth-bj --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The metric names, units and bounds come from
``BENCHMARK.json``; the workloads from ``perfbench/workloads.json``.
Every run checks its answers, writes a machine-stamped result (and, when
traced, its spans) under ``perfbench/out/``, prints a table, and prints
one JSON object as its last line.  The exit code is 1 when an answer
check failed and 2 when the benchmark cannot run here.

Compare result files against the bounds in ``BENCHMARK.json``::

    python3 perfbench/run.py compare --base A.json [A2.json ...] --head B.json [B2.json ...]
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make ``perfbench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    BenchError,
    load_spec,
    machine_stamp,
    use_checkout_sources,
)


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(benchmark: dict, trace: bool) -> list:
    return benchmark["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 log=print, spec: dict = None) -> dict:
    """Run one workload and return the full result record."""
    use_checkout_sources()
    spec = spec or load_spec()
    if name not in spec["workloads"]:
        raise BenchError(
            f"unknown workload {name!r}; known: {sorted(spec['workloads'])}"
        )
    workload = spec["workloads"][name]
    if workload.get("held_back"):
        log(f"# {name} is not in BENCHMARK.json: {workload['held_back']}")
    started = time.time()
    if workload["kind"] == "library":
        from perfbench import library

        outcome = library.run(workload, seed, seconds, trace, log)
    else:
        from perfbench import service

        outcome = service.run(workload, seed, seconds, trace, log,
                              spec["latency_limit_ms"])
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "started": started,
        "machine": machine_stamp(),
        "params": workload,
        **outcome,
    }


def finish(record: dict, benchmark: dict) -> dict:
    """The contract's result object: exactly the metrics BENCHMARK.json
    lists for this mode, each with its unit.  Layers a workload does not
    run report 0."""
    trace = bool(record["trace"])
    measured = record["metrics"]
    attempted = max(int(record["attempted"]), 1)
    failed = int(record["failed"])
    measured.setdefault("error_rate", failed / attempted)
    metrics = {}
    for entry in metric_table(benchmark, trace):
        value = measured.get(entry["name"])
        if value is None:
            if not trace:
                raise BenchError(f"end-to-end metric {entry['name']} "
                                 "was not measured")
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    return {
        "correct": failed == 0 and all(record["checks"].values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_record(record: dict, result: dict) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(record["started"]))
    base = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}"
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    tracer = record.pop("tracer", None)
    if tracer is not None:
        (OUT_DIR / "spans").mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / "spans" / f"{base}.ndjson"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["self_times_s"] = tracer.self_times()
    path = OUT_DIR / "results" / f"{base}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(record, result=result), handle, indent=1, default=str)
    return path


def print_report(record: dict, result: dict, benchmark: dict) -> None:
    machine = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} nproc={machine['nproc']} "
          f"cpu={machine['cpu_model']!r} python={machine['python']} "
          f"numpy={machine['numpy']} git={machine['git_sha'][:12]}")
    print(f"# samples: {record['samples']}  checks: {record['checks']}  "
          f"attempted={result['attempted']} failed={result['failed']}")
    measured = record["metrics"]
    units = {entry["name"]: entry["unit"]
             for entry in benchmark["end_to_end"] + benchmark["per_layer"]}
    if record["trace"]:
        print("# end-to-end numbers of this run, measured untraced, then "
              "the layers:")
    print(f"# {'metric':<30} {'value':>14}  unit")
    for name, value in measured.items():
        print(f"#   {name:<28} {value:>14.6g}  {units.get(name, '')}")
    tracer = record.get("tracer")
    if tracer is not None:
        total = sum(tracer.self_times().values()) or 1.0
        print("# layer self time over all traced queries:")
        for name, seconds in sorted(tracer.self_times().items(),
                                    key=lambda item: -item[1]):
            print(f"#   {name:<28} {seconds:>10.4f}s {seconds / total:6.1%}")


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        from perfbench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the server subprocess and shard
    # workers it started are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        benchmark = load_benchmark()
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        result = finish(record, benchmark)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(record, result, benchmark)
    path = write_record(record, result)
    print(f"# result written to {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
