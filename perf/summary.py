"""Order statistics shared by the runner, the gate and ``compare.py``.

Percentiles are *nearest-rank* over the raw samples: the value at rank
``ceil(pct/100 * n)``.  They are always an observed sample, never an
interpolation, so a p95 over 600 samples is the 570th-smallest latency
and there are exactly 30 samples beyond it.  The rank is computed in
integers so ``pct * n`` never rounds across a boundary.

Run-to-run spread is the quartile distance as a share of the median,
with quartiles from ``statistics.quantiles(values, n=4)`` (its default
"exclusive" method), the same figure the acceptance rule uses.
"""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

__all__ = ["percentile", "quartiles", "spread"]


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank ``pct``-th percentile (``pct`` an integer in 1..100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 1 <= pct <= 100:
        raise ValueError("pct must be an integer in 1..100, got %r" % (pct,))
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """``(q3 - q1) / median``: the run-to-run spread of one metric."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)
