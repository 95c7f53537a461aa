"""Minimum bounding rectangles (axis-aligned) for the shards."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.geometry.point import Point

__all__ = ["MBR"]


@dataclass(frozen=True, slots=True)
class MBR:
    """An immutable axis-aligned rectangle ``[min_x, max_x] × [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "degenerate MBR: (%r, %r, %r, %r)"
                % (self.min_x, self.min_y, self.max_x, self.max_y)
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_points(points: Iterable[Point]) -> "MBR":
        """The tightest rectangle containing all ``points`` (non-empty)."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("MBR.from_points() of an empty collection") from None
        min_x = max_x = first.x
        min_y = max_y = first.y
        for p in it:
            if p.x < min_x:
                min_x = p.x
            elif p.x > max_x:
                max_x = p.x
            if p.y < min_y:
                min_y = p.y
            elif p.y > max_y:
                max_y = p.y
        return MBR(min_x, min_y, max_x, max_y)

    # -- relations ---------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        return self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y
