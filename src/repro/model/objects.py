"""The geo-textual object: a location plus a set of keyword ids.

In the paper's notation an object ``o ∈ O`` has a spatial location
``o.λ`` and a keyword set ``o.ψ``; :class:`SpatialObject` carries both
(attributes ``location`` and ``keywords``) plus a stable integer id used
by the indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable

from repro.geometry.point import Point

__all__ = ["SpatialObject"]


@dataclass(frozen=True, slots=True)
class SpatialObject:
    """One geo-textual object.

    ``oid``
        Dense integer id, unique within its dataset.
    ``location``
        The spatial location ``o.λ``.
    ``keywords``
        The keyword-id set ``o.ψ`` (interned through the dataset's
        :class:`~repro.model.vocabulary.Vocabulary`).
    """

    oid: int
    location: Point
    keywords: FrozenSet[int]

    @staticmethod
    def create(oid: int, x: float, y: float, keywords: Iterable[int]) -> "SpatialObject":
        """Convenience constructor from raw coordinates and keyword ids."""
        return SpatialObject(oid, Point(x, y), frozenset(keywords))

    def covered(self, keyword_ids: FrozenSet[int]) -> FrozenSet[int]:
        """The subset of ``keyword_ids`` this object carries."""
        return self.keywords & keyword_ids

    def distance_to(self, other: "SpatialObject") -> float:
        """Euclidean distance between the two object locations."""
        return self.location.distance_to(other.location)

    def __hash__(self) -> int:
        return hash(self.oid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpatialObject):
            return NotImplemented
        return self.oid == other.oid
