"""Shared pieces of the benchmark: paths, percentiles, answer digests,
the memory probe and the machine stamp written into every result."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import platform
import resource
import struct
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = BENCH_DIR / "workloads.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from an
    installed copy; fail when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")


def load_spec() -> dict:
    """The workloads; one with a ``base`` starts from a copy of that
    workload's parameters and overrides the keys it sets."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = spec["workloads"]
    for name, workload in workloads.items():
        base = workload.pop("base", None)
        if base is not None:
            workloads[name] = {**copy.deepcopy(workloads[base]), **workload}
    return spec


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float]) -> float:
    """The tail-latency statistic: the 95th percentile when at least ten
    samples lie beyond it (200 or more samples); with fewer, the highest
    percentile that has ten samples beyond it -- the eleventh largest
    value -- but never less than the median.  A percentile with fewer
    samples beyond it moves with the few slowest ones."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no values")
    if len(ordered) - math.ceil(0.95 * len(ordered)) >= 10:
        return percentile(ordered, 0.95)
    return max(median(ordered), float(ordered[max(len(ordered) - 11, 0)]))


def setup_time(samples: Sequence[float]) -> float:
    """The ``setup_s`` statistic: the fastest of the repeated set-ups.

    The 2-vCPU VM this benchmark was written on runs the same code in
    two speeds, about 1.8x apart, switching within seconds, and the
    share of time spent slow changes over minutes.  Set-ups take
    milliseconds, so each lands in one speed or the other: within a run
    their median flipped between the two speeds from run to run (10 ms
    against 19 ms for the same input), and their lower decile did too
    in runs with few fast set-ups.  With dozens of set-ups spread over
    the run, the fastest one sees the fast speed in nearly every run.
    """
    return min(samples)


def steady_time(samples: Sequence[float]) -> float:
    """The lower quartile (nearest rank) of repeated timings of one short
    operation, which lands in the host's fast speed more steadily than
    their median (see :func:`setup_time`)."""
    return percentile(samples, 0.25)


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------
Scores = Dict[Tuple[Hashable, Hashable], float]


def score_digest(scores: Scores) -> str:
    """sha256 over the pairs and the big-endian IEEE-754 bytes of their
    scores, in sorted pair order (independent of dict order)."""
    items = sorted(scores.items(), key=lambda item: repr(item[0]))
    digest = hashlib.sha256()
    digest.update(repr([pair for pair, _ in items]).encode())
    digest.update(struct.pack(f">{len(items)}d", *(v for _, v in items)))
    return digest.hexdigest()


def same_answer(expected: Scores, got: Scores) -> List[str]:
    """The differences between two score maps, bit for bit (empty when
    they agree): missing or extra pairs and values whose bytes differ."""
    problems = []
    missing = expected.keys() - got.keys()
    extra = got.keys() - expected.keys()
    if missing:
        problems.append(f"{len(missing)} pairs missing, e.g. {min(missing, key=repr)!r}")
    if extra:
        problems.append(f"{len(extra)} unexpected pairs, e.g. {min(extra, key=repr)!r}")
    differ = [
        pair for pair, value in expected.items()
        if pair in got and struct.pack(">d", value) != struct.pack(">d", got[pair])
    ]
    if differ:
        pair = min(differ, key=repr)
        problems.append(
            f"{len(differ)} scores differ, e.g. {pair!r}: "
            f"{expected[pair]!r} != {got[pair]!r}"
        )
    return problems


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def process_peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory (VmHWM) of one process, in MiB (0 once it
    has exited)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


# ----------------------------------------------------------------------
# machine stamp
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (a parent directory's repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT.resolve():
        return "unknown"
    return lines[1]


def _source_digest() -> str:
    """sha256 of every Python file under ``src/`` (identifies the program when
    the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }
