"""Planar points and Euclidean distance primitives.

Everything in the CoSKQ problem is measured with the Euclidean metric on
the plane, so this module is the bottom of the dependency stack: the data
model, the spatial indexes and every algorithm build on it.

Points are plain immutable value objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.kernels import flat as _flat

__all__ = ["Point", "distance", "diameter"]


@dataclass(frozen=True, slots=True, order=True)
class Point:
    """An immutable point in the plane.

    Ordering is lexicographic on ``(x, y)`` which makes points usable as
    deterministic tie-breakers in priority queues.
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance from this point to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (cheaper; monotone in distance)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


#: Below this size the scalar quadratic scan beats packing coordinates
#: first; CoSKQ result sets (≤ |q.ψ| members) usually sit under it.
_PACK_THRESHOLD = 8


def diameter(points: Sequence[Point]) -> float:
    """The maximum pairwise distance of ``points`` (0.0 for fewer than 2).

    Quadratic scan; the CoSKQ result sets this is applied to have at most
    ``|q.psi|`` members, so a convex-hull rotating-calipers pass would be
    slower in practice.  Larger inputs route through the bit-identical
    flat-array kernel (:func:`repro.kernels.flat.pairwise_max`).
    """
    n = len(points)
    if n >= _PACK_THRESHOLD:
        xs, ys = _flat.pack_points(points)
        return _flat.pairwise_max(xs, ys)
    best = 0.0
    for i in range(n):
        pi = points[i]
        for j in range(i + 1, n):
            d = pi.distance_to(points[j])
            if d > best:
                best = d
    return best
