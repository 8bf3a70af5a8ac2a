"""In-memory spans around the calls the benchmark makes into trigrade.

A span is [name, start, end, parent, op]: the parent is the index of the
span that was open when this one started, and op is the id of the operation
the span belongs to.  Counters are plain totals added at the same call
boundaries.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    """Records a span around every call made through it."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def add(self, counter: str, value: int):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span in seconds, grouped by span name: its
        duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _parent, _op), inner in zip(self.spans, child):
            out.setdefault(name, []).append(end - start - inner)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"counters": self.counters,
                       "spans": [dict(zip(("name", "start", "end", "parent", "op"), s))
                                 for s in self.spans]}, fh)


class NullTracer:
    """The untraced path: calls go straight through."""

    enabled = False
    op = None

    def call(self, name: str, fn, *args):
        return fn(*args)

    def add(self, counter: str, value: int):
        pass
