"""In-memory spans recorded around calls into the program's layers.

A span is one timed call: name, start, end, the id of the span that was open
when it began (its parent) and the run it belongs to.  Spans stay in memory
and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": f"{self.run_id}:{len(self.spans)}",
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            **attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def durations(spans: list[dict], name: str) -> list[float]:
    """Durations in seconds of every span called ``name``, in start order."""
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time in seconds per span name.

    A span's self time is its duration minus the part of it that its child
    spans cover (overlapping children are counted once).
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        totals[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(totals)
