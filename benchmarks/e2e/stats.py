"""Sample summaries shared by the harness, ``compare.py`` and the tests
(stdlib only)."""

from __future__ import annotations

import math
import statistics

#: percentiles a latency report may quote, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a percentile before it is quoted
MIN_BEYOND = 10


def median(samples) -> float:
    return float(statistics.median(samples))


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    s = sorted(samples)
    if not s:
        raise ValueError("percentile of no samples")
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile
    (integer arithmetic in tenths of a percent)."""
    return n * round((100.0 - q) * 10) // 1000


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ``MIN_BEYOND`` of ``n`` samples
    beyond it (the median when even that has fewer)."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(rows: list[tuple]) -> str:
    """Left-aligned text table; the first row is the header."""
    rows = [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths))
                     .rstrip() for r in rows)
