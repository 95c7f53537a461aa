"""Small numeric helpers shared by the harness and the analyses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

__all__ = ["harmonic_number", "Summary", "summarize", "percentile"]


def harmonic_number(k: int) -> float:
    """``H_k = 1 + 1/2 + … + 1/k`` (0 for k ≤ 0).

    The greedy weighted-set-cover approximation for the Sum cost carries
    an ``H_{|q.ψ|}`` guarantee; the ratio tests use this.
    """
    if k <= 0:
        return 0.0
    return sum(1.0 / i for i in range(1, k + 1))


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rank = min(len(sorted_values) - 1, int(math.ceil(fraction * len(sorted_values))) - 1)
    return sorted_values[max(rank, 0)]


@dataclass(frozen=True, slots=True)
class Summary:
    """Average / min / max / count of a sample.

    The paper reports approximation ratios as (average, minimum, maximum)
    bar charts; this is that triple plus the sample size.
    """

    mean: float
    minimum: float
    maximum: float
    count: int

    def as_row(self) -> dict:
        return {
            "avg": round(self.mean, 6),
            "min": round(self.minimum, 6),
            "max": round(self.maximum, 6),
            "n": self.count,
        }


def summarize(values: Iterable[float]) -> Summary:
    """Summary statistics of a non-empty sample."""
    data: List[float] = list(values)
    if not data:
        raise ValueError("summarize() of an empty sample")
    low = min(data)
    high = max(data)
    # ``sum/n`` can round past the extremes: [0.1] * 3 averages to
    # 0.10000000000000002.
    mean = min(max(sum(data) / len(data), low), high)
    return Summary(mean=mean, minimum=low, maximum=high, count=len(data))
