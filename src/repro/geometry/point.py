"""Planar points and Euclidean distance primitives.

Everything in the CoSKQ problem is measured with the Euclidean metric on
the plane, so this module is the bottom of the dependency stack: the data
model, the spatial indexes and every algorithm build on it.

Points are plain immutable value objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Point"]


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
