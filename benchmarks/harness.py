"""One command line, one report writer and one check/gate rule for the
system benchmarks in this directory.

A bench module defines

- ``RESULT``: the file name of its report at the repository root;
- ``SMOKE``: keyword arguments that shrink ``run_benchmark`` to a run
  of seconds;
- ``run_benchmark(**sizes) -> dict`` and ``render(report) -> str``;
- ``checks(report)`` and ``gates(report)``, each returning a list of
  failure messages.  Checks are correctness (parity, drained lag, plan
  misses) and run on every run.  Gates are wall-clock and memory bars;
  shared CI runners are too noisy for them, so they run only on full
  runs without ``--no-gate``;
- optionally ``FLAGS``, ``{name: default}``: extra ``--name`` options
  passed to ``run_benchmark`` on full runs,

and ends with ``raise SystemExit(harness.main(sys.modules[__name__]))``.
Then::

    python benchmarks/bench_NAME.py            # full run: write, check, gate
    python benchmarks/bench_NAME.py --no-gate  # full run: write, check
    python benchmarks/bench_NAME.py --smoke    # small run: check only

A smoke run writes no file, so it never replaces a committed full-size
report.  Every written report carries a ``machine`` key: the same stamp
(CPU count and affinity, Python and numpy versions, git sha) that the
repository benchmark ``perfbench/`` writes into its results.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT, REPO_ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.common import machine_stamp  # noqa: E402


def write_report(report: dict, path: pathlib.Path) -> None:
    stamped = dict(report, machine=machine_stamp())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stamped, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(bench, argv=None) -> int:
    """Run ``bench`` as its command line asks; the process exit status."""
    flags = getattr(bench, "FLAGS", {})
    parser = argparse.ArgumentParser(description=bench.__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes; run the correctness checks, write no file",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="write the report and run the correctness checks, but skip "
             "the wall-clock and memory gates (shared CI runners)",
    )
    for name, default in flags.items():
        parser.add_argument("--" + name.replace("_", "-"),
                            type=type(default), default=default)
    args = parser.parse_args(argv)

    if args.smoke:
        report = bench.run_benchmark(**bench.SMOKE)
    else:
        report = bench.run_benchmark(
            **{name: getattr(args, name) for name in flags}
        )
    print(bench.render(report))
    if not args.smoke:
        path = REPO_ROOT / bench.RESULT
        write_report(report, path)
        print(f"wrote {path}")

    failures = list(bench.checks(report))
    if args.smoke or args.no_gate:
        print("gates skipped; correctness checks ran")
    else:
        failures += bench.gates(report)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0
