"""Order statistics for the benchmark's reports (stdlib only)."""

from __future__ import annotations

import math
import statistics

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def gmean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[str, float]:
    """``(label, value)``: the highest whole percentile with at least
    :data:`TAIL_BEYOND` samples above it (nearest-rank). Below
    ``2 * TAIL_BEYOND`` samples no percentile above the median qualifies,
    so the maximum is reported and labelled ``max``."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return "max", (ordered[-1] if ordered else 0.0)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return f"p{pct}", ordered[math.ceil(pct * n / 100) - 1]
