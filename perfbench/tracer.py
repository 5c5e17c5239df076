"""In-memory spans recorded by the benchmark around its calls into the
program's layers.

A span is ``(name, start, end, parent, run)``; spans of one query share
a run id.  Self time is a span's duration minus the time its children
cover (children of one span never overlap: the benchmark is single
threaded).  Nothing here touches the program -- spans sit in the
benchmark's own code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._run = 0

    def new_run(self) -> int:
        self._run += 1
        return self._run

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self._run,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def runs(self) -> List[int]:
        return sorted({span["run"] for span in self.spans})

    def roots(self, run: int) -> List[dict]:
        return [s for s in self.spans if s["run"] == run and s["parent"] is None]

    def children(self, span_id: int) -> List[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def totals(self, run: int) -> Dict[str, float]:
        """Total duration per span name within one run."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span["run"] == run:
                out[span["name"]] += self.duration(span)
        return dict(out)

    def self_times(self, run: Optional[int] = None) -> Dict[str, float]:
        """Self time per span name, summed over one run (or all runs)."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += self.duration(span)
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if run is None or span["run"] == run:
                out[span["name"]] += self.duration(span) - covered[span["id"]]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
