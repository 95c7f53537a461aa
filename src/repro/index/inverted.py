"""Inverted index: keyword id → posting list of object ids.

The baseline and brute-force solvers start from the relevant-object set
``O_q``, which the posting lists supply.  The index also answers the
feasibility pre-check — a query is infeasible iff some query keyword has
an empty posting list.

Postings live in three flat arrays, the layout :func:`group_by_keyword`
builds and the keyword trees share: the carried keyword ids ascending,
one offset per keyword, and the oids of every posting list back to back.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import chain
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject

__all__ = ["InvertedIndex", "group_by_keyword"]


def group_by_keyword(
    keyword_sets: Sequence[AbstractSet[int]],
) -> Tuple[array, array, array]:
    """Group the positions of ``keyword_sets`` by keyword, by counting sort.

    Returns ``(keywords, offsets, positions)``, all ``array("i")``: the
    ids carried by any set, ascending; and for the keyword at slot ``s``,
    ``positions[offsets[s]:offsets[s + 1]]`` lists, ascending, the
    positions of the sets that carry it.  An id or position past
    ``2**31 - 1`` raises :class:`OverflowError`.
    """
    # Count, then turn each keyword's count into the next free position
    # of its range; the second pass drops every position into place.
    counts: Dict[int, int] = dict(Counter(chain.from_iterable(keyword_sets)))
    ids = array("i", sorted(counts))
    offsets = array("i", [0])
    total = 0
    for k in ids:
        counts[k], total = total, total + counts[k]
        offsets.append(total)
    positions = array("i", [0]) * total
    for pos, keywords in enumerate(keyword_sets):
        for k in keywords:
            at = counts[k]
            positions[at] = pos
            counts[k] = at + 1
    return ids, offsets, positions


class InvertedIndex:
    """Posting lists over a dataset, built once and then read-only."""

    __slots__ = ("_dataset", "_keywords", "_offsets", "_oids")

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        # A dataset's oids are its positions, so the positions are oids.
        self._keywords, self._offsets, self._oids = group_by_keyword(
            [obj.keywords for obj in dataset.objects]
        )

    def _slot(self, k: int) -> int:
        """The slot of keyword ``k``, or -1 when no object carries it."""
        ids = self._keywords
        slot = bisect_left(ids, k)
        return slot if slot < len(ids) and ids[slot] == k else -1

    def missing_keywords(self, keyword_ids: Iterable[int]) -> FrozenSet[int]:
        """The subset of ``keyword_ids`` carried by no object at all."""
        return frozenset(k for k in keyword_ids if self._slot(k) < 0)

    def relevant_objects(self, keyword_ids: FrozenSet[int]) -> List[SpatialObject]:
        """All objects carrying at least one keyword of ``keyword_ids``.

        This is the paper's relevant-object set ``O_q``; each object is
        returned once even if it matches several keywords, in the order
        of ``keyword_ids`` and, per keyword, by ascending oid.
        """
        offsets, oids = self._offsets, self._oids
        seen: set[int] = set()
        objects = self._dataset.objects
        out: List[SpatialObject] = []
        for k in keyword_ids:
            slot = self._slot(k)
            if slot < 0:
                continue
            for oid in oids[offsets[slot] : offsets[slot + 1]]:
                if oid not in seen:
                    seen.add(oid)
                    out.append(objects[oid])
        return out
