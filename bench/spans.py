"""Spans around the benchmark's calls into sact, and per-layer self time.

A span records a name, start and end (``time.perf_counter``), the index of the
span that encloses it and the id of the op it belongs to, plus optional work
counts.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the time covered by its direct children; in one thread,
children never overlap, so that is the sum of their durations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# Loops stop at their next cycle boundary once this many spans are held, so a
# traced run of microsecond ops stays within a few tens of MB.
SPAN_BUDGET = 200_000


class Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer.stack
        # [name, start, end, parent index, op id, counts]
        self.record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]

    def start(self) -> "Span":
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = perf_counter()
        return self

    def stop(self) -> None:
        self.record[2] = perf_counter()
        self.tracer.stack.pop()

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        if exc_type is not None:
            self.record[5] = {**(self.record[5] or {}), "raised." + exc_type.__name__: 1}
        return False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def span(self, name: str) -> Span:
        return Span(self, name)

    @property
    def full(self) -> bool:
        return len(self.spans) >= SPAN_BUDGET

    def write(self, path) -> None:
        """Write one JSON object per span: name, start, end, parent, op, counts."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, counts in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                      "op": op, "counts": counts}) + "\n")


def call(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """Call ``fn``, inside a span named ``name`` when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(name):
        return fn(*args, **kwargs)


def count(tracer: Tracer | None, key: str, value: float) -> None:
    """Add a work count to the span opened last (the call just made) when tracing."""
    if tracer is not None and tracer.spans:
        record = tracer.spans[-1]
        if record[5] is None:
            record[5] = {}
        record[5][key] = record[5].get(key, 0) + value


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total duration, total self time and summed counts."""
    child_time = [0.0] * len(spans)
    for record in spans:
        if record[3] >= 0:
            child_time[record[3]] += record[2] - record[1]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "counts": {}})
    for i, (name, start, end, _, _, counts) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["wall_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return dict(out)
