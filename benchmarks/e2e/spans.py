"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the span that was open when this one started (-1 at top level) and
``op`` is the workload operation it belongs to, so every span of one
cell / Newton step / request shares an identifier.  Nothing is written
until :meth:`Recorder.dump`; a layer's *self time* is its duration minus
the part its direct children cover.  Counters are recorded at the same
boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


def span(rec: "Recorder | None", name: str):
    """``rec.span(name)``, or nothing when the run is not traced — for
    operations whose traced form is the same call under a span."""
    return rec.span(name) if rec is not None else nullcontext()


class Recorder:
    """Single-threaded nestable span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self.op: str | None = None
        self.enabled = True

    @contextmanager
    def paused(self):
        """Record nothing inside the block (set-up work done through
        the same traced functions as the measured operations)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = [name, perf_counter(), None,
               self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._open.pop()

    def aggregate(self, name: str, seconds: float) -> None:
        """One closed child span standing for many short calls.

        Hot inner calls (one per task) are timed with a bare
        ``perf_counter`` pair and folded in here, so the recorder's own
        cost stays out of the loop it measures.
        """
        if self.enabled:
            end = perf_counter()
            self.spans.append([name, end - seconds, end,
                               self._open[-1] if self._open else -1,
                               self.op])

    def count(self, name: str, n: float = 1) -> None:
        """Add to a counter, at the boundary where the work happens."""
        if self.enabled:
            self.counts[name] += n

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[NAME]] += s[END] - s[START]
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Summed self time (duration minus direct children) per name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s[NAME]] += s[END] - s[START] - c
        return dict(out)

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
