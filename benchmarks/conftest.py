"""pytest configuration for the paper's figure and table benchmarks.

Each ``bench_fig*``, ``bench_table*``, ``bench_case*`` and
``bench_ablation*`` file regenerates one table, figure or ablation of
the paper's evaluation section.  Rendered outputs are printed and
archived under ``benchmarks/results/``.  Run them all with

    pytest benchmarks/bench_*.py --benchmark-only -s

The system benchmarks (``BENCH_*.json``) are scripts, not pytest files;
see ``harness.py``.
"""

import pathlib

import pytest

import harness  # noqa: F401  (puts src/ on sys.path for the bench files)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record(request):
    """Print an ExperimentOutput and archive it under benchmarks/results."""

    def _record(output):
        text = output.render()
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = request.node.name.replace("[", "_").replace("]", "")
        path = RESULTS_DIR / f"{slug}.txt"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n\n")
        return output

    # fresh file per test invocation
    slug = request.node.name.replace("[", "_").replace("]", "")
    stale = RESULTS_DIR / f"{slug}.txt"
    if stale.exists():
        stale.unlink()
    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )
