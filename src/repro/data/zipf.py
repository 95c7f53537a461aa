"""Zipf-distributed sampling over a finite vocabulary.

Real geo-textual corpora (hotel amenity words, geographic feature names,
web vocabularies) have strongly skewed keyword frequencies; the synthetic
datasets reproduce that skew with a Zipf law over keyword ranks, which is
what makes the paper's percentile-based query-keyword sampling meaningful
on generated data.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Samples ranks ``0..n-1`` with ``P(rank k) ∝ 1 / (k+1)^s``.

    Uses an inverse-CDF table, so sampling is ``O(log n)`` and the
    distribution is exact for the finite support (no rejection).
    """

    def __init__(self, n: int, exponent: float = 1.0):
        if n <= 0:
            raise ValueError("support size must be positive")
        if exponent < 0:
            raise ValueError("Zipf exponent must be non-negative")
        self.n = n
        self.exponent = exponent
        weights = [1.0 / ((k + 1) ** exponent) for k in range(n)]
        self._cdf: List[float] = list(itertools.accumulate(weights))
        self._total = self._cdf[-1]

    def sample(self, rng: random.Random) -> int:
        """One rank drawn from the Zipf law."""
        u = rng.random() * self._total
        return bisect.bisect_left(self._cdf, u)

    def sample_distinct(self, rng: random.Random, count: int) -> List[int]:
        """``count`` distinct ranks (count capped at the support size)."""
        count = min(count, self.n)
        seen: set[int] = set()
        # Rejection on duplicates; the tail is long so this terminates
        # quickly except when count approaches n, where we fall back to a
        # full shuffle.
        attempts = 0
        while len(seen) < count and attempts < 50 * count:
            seen.add(self.sample(rng))
            attempts += 1
        if len(seen) < count:
            remaining = [k for k in range(self.n) if k not in seen]
            rng.shuffle(remaining)
            seen.update(remaining[: count - len(seen)])
        return sorted(seen)

    def probability(self, rank: int) -> float:
        """The exact probability mass of ``rank``."""
        if not 0 <= rank < self.n:
            raise ValueError("rank out of range")
        return (1.0 / ((rank + 1) ** self.exponent)) / self._total
