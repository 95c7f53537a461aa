"""Shared float-comparison helpers — the repo's R3 contract.

Distances and costs in this codebase are floats assembled from square
roots and weighted sums, so exact ``==``/``!=`` between them is a bug
magnet: two mathematically equal costs routinely differ in the last ulp
depending on evaluation order.  The static-analysis rule R3 (see
``docs/STATIC_ANALYSIS.md``) bans direct float equality in the distance
and cost layers; these helpers are the sanctioned replacement, so every
tolerance decision lives in one place.
"""

from __future__ import annotations

import math

__all__ = [
    "EPSILON",
    "float_eq",
    "float_leq",
    "float_geq",
    "is_zero",
]

#: Default tolerance, used both relatively and absolutely.  Coordinates
#: live in the unit square, so absolute and relative scales coincide.
EPSILON = 1e-9


def float_eq(a: float, b: float, eps: float = EPSILON) -> bool:
    """Tolerant equality for distances/costs (relative *or* absolute)."""
    return math.isclose(a, b, rel_tol=eps, abs_tol=eps)


def float_leq(a: float, b: float, eps: float = EPSILON) -> bool:
    """``a ≤ b`` up to tolerance (true when the values are ε-equal)."""
    return a <= b or float_eq(a, b, eps)


def float_geq(a: float, b: float, eps: float = EPSILON) -> bool:
    """``a ≥ b`` up to tolerance (true when the values are ε-equal)."""
    return b <= a or float_eq(a, b, eps)


def is_zero(value: float, eps: float = EPSILON) -> bool:
    """Whether a distance-like value is zero up to tolerance."""
    return abs(value) <= eps
