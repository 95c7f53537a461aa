"""Closed disks.

The owner-driven algorithms of the paper constrain candidate objects to
``C(q, r)``: everything in a feasible set whose query distance owner is
at distance ``r`` must lie in this disk.  The solvers read the disk as a
prefix of the index's ``(distance, oid)`` stream; :class:`Circle` types
the stream's optional ``within`` restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point

__all__ = ["Circle"]


@dataclass(frozen=True, slots=True)
class Circle:
    """A closed disk with ``center`` and non-negative ``radius``."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("negative radius: %r" % (self.radius,))

    def contains(self, p: Point) -> bool:
        """Whether ``p`` lies inside the closed disk (boundary included).

        Uses the non-squared distance so the test agrees exactly with
        the ``hypot`` rectangle bounds the indexes prune with (squaring
        underflows for denormal coordinates and would make the two
        disagree).
        """
        return self.center.distance_to(p) <= self.radius
