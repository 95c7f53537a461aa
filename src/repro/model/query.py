"""The CoSKQ query: a location plus a set of query keyword ids.

A query in the paper is ``q = (q.λ, q.ψ)``.  Queries here always carry
keyword *ids*; use :meth:`Query.from_words` to build one from strings
against a dataset's vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable

from repro.errors import InvalidParameterError
from repro.geometry.point import Point
from repro.model.vocabulary import Vocabulary

__all__ = ["Query"]


@dataclass(frozen=True, slots=True)
class Query:
    """A collective spatial keyword query."""

    location: Point
    keywords: FrozenSet[int]

    def __post_init__(self) -> None:
        if not isinstance(self.keywords, frozenset):
            raise InvalidParameterError(
                "query keywords must be a frozenset of keyword ids, got %r"
                % (self.keywords,)
            )
        if not self.keywords:
            raise InvalidParameterError("a CoSKQ query needs at least one keyword")
        for t in self.keywords:
            if not isinstance(t, int) or isinstance(t, bool) or t < 0:
                raise InvalidParameterError(
                    "query keyword ids must be non-negative ints, got %r" % (t,)
                )
        if not (math.isfinite(self.location.x) and math.isfinite(self.location.y)):
            raise InvalidParameterError(
                "query coordinates must be finite, got (%r, %r)"
                % (self.location.x, self.location.y)
            )

    @staticmethod
    def create(x: float, y: float, keywords: Iterable[int]) -> "Query":
        """Build a query from raw coordinates and keyword ids."""
        return Query(Point(x, y), frozenset(keywords))

    @staticmethod
    def from_words(
        x: float, y: float, words: Iterable[str], vocabulary: Vocabulary
    ) -> "Query":
        """Build a query from keyword strings via ``vocabulary``.

        Raises :class:`~repro.errors.UnknownKeywordError` for words absent
        from the vocabulary — such a query would be trivially infeasible.
        """
        return Query(Point(x, y), vocabulary.ids_of(words))

    @property
    def size(self) -> int:
        """``|q.ψ|`` — the number of query keywords."""
        return len(self.keywords)

    def distance_to(self, p: Point) -> float:
        """Euclidean distance from the query location to ``p``."""
        return self.location.distance_to(p)
