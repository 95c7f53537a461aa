"""Inverted index: keyword id → posting list of object ids.

The baseline and brute-force solvers start from the relevant-object set
``O_q``, which the posting lists supply.  The index also answers the
feasibility pre-check — a query is infeasible iff some query keyword has
an empty posting list.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List

from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Posting lists over a dataset, built once and then read-only."""

    __slots__ = ("_dataset", "_postings")

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        postings: Dict[int, List[int]] = {}
        for obj in dataset:
            for k in obj.keywords:
                postings.setdefault(k, []).append(obj.oid)
        self._postings = postings

    def missing_keywords(self, keyword_ids: Iterable[int]) -> FrozenSet[int]:
        """The subset of ``keyword_ids`` carried by no object at all."""
        postings = self._postings
        return frozenset(k for k in keyword_ids if k not in postings)

    def relevant_objects(self, keyword_ids: FrozenSet[int]) -> List[SpatialObject]:
        """All objects carrying at least one keyword of ``keyword_ids``.

        This is the paper's relevant-object set ``O_q``; each object is
        returned once even if it matches several keywords.
        """
        seen: set[int] = set()
        objects = self._dataset.objects
        out: List[SpatialObject] = []
        for k in keyword_ids:
            for oid in self._postings.get(k, ()):
                if oid not in seen:
                    seen.add(oid)
                    out.append(objects[oid])
        return out
