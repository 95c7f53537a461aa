"""An R-tree + inverted-index composition of :class:`SpatialTextIndex`.

The IR-tree fuses keyword summaries into the spatial tree; this adapter
keeps the two concerns separate — a plain :class:`~repro.index.rtree.RTree`
for geometry, an :class:`~repro.index.inverted.InvertedIndex` for text,
and per-object keyword bitmasks (:mod:`repro.index.signatures`) to glue
them together at query time.  It exists as the *third* independent
implementation of the index protocol: the parity suite
(``tests/test_index_parity.py``) runs IR-tree, R-tree+inverted and the
linear-scan oracle against each other, so a bug in any one traversal
shows up as a three-way disagreement.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import InfeasibleQueryError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.inverted import InvertedIndex
from repro.index.rtree import DEFAULT_MAX_ENTRIES, RTree
from repro.index.signatures import mask_of, signatures_enabled
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.query import Query

__all__ = ["RTreeTextIndex"]


class RTreeTextIndex:
    """Answers the IR-tree query mix with an R-tree plus posting lists."""

    def __init__(self, dataset: Dataset, max_entries: int = DEFAULT_MAX_ENTRIES):
        self._objects = list(dataset.objects)
        self._masks = {o.oid: mask_of(o.keywords) for o in self._objects}
        self._inverted = InvertedIndex(dataset)
        self._rtree: RTree[SpatialObject] = RTree.bulk_load(
            [(o.location, o) for o in self._objects], max_entries=max_entries
        )

    @classmethod
    def build(
        cls, dataset: Dataset, max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> "RTreeTextIndex":
        """Signature-compatible with :meth:`IRTree.build`."""
        return cls(dataset, max_entries=max_entries)

    def __len__(self) -> int:
        return len(self._objects)

    # -- relevance filter -----------------------------------------------------

    def _relevant(self, obj: SpatialObject, keywords: FrozenSet[int], w_mask: int) -> bool:
        if signatures_enabled():
            return bool(self._masks[obj.oid] & w_mask)
        return not obj.keywords.isdisjoint(keywords)  # repro: noqa(R9) — toggle-off baseline

    # -- queries --------------------------------------------------------------

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, SpatialObject]]:
        """Relevant objects by ascending distance (R-tree best-first)."""
        w_mask = mask_of(keywords) if signatures_enabled() else 0
        for dist, _, obj in self._rtree.nearest_iter(point):
            if not self._relevant(obj, keywords, w_mask):
                continue
            if within is not None and not within.contains(obj.location):
                continue
            yield dist, obj

    def keyword_nn(
        self, point: Point, keyword_id: int
    ) -> Optional[Tuple[float, SpatialObject]]:
        """Nearest object carrying ``keyword_id``."""
        if not self._inverted.posting_list(keyword_id):
            return None
        for hit in self.nearest_relevant_iter(point, frozenset((keyword_id,))):
            return hit
        return None

    def boolean_knn(self, query: Query, k: int) -> List[Tuple[float, SpatialObject]]:
        """The k nearest objects each covering all of ``q.ψ``."""
        out: List[Tuple[float, SpatialObject]] = []
        if k <= 0:
            return out
        use_sig = signatures_enabled()
        q_mask = mask_of(query.keywords) if use_sig else 0
        for dist, obj in self.nearest_relevant_iter(query.location, query.keywords):
            if use_sig:
                if q_mask & ~self._masks[obj.oid]:
                    continue
            elif not query.keywords <= obj.keywords:  # repro: noqa(R9) — toggle-off baseline
                continue
            out.append((dist, obj))
            if len(out) >= k:
                break
        return out

    def nearest_neighbor_set(
        self, query: Query
    ) -> Dict[int, Tuple[float, SpatialObject]]:
        """``N(q)``; raises on uncoverable keywords."""
        out: Dict[int, Tuple[float, SpatialObject]] = {}
        missing: List[int] = []
        for t in query.keywords:
            hit = self.keyword_nn(query.location, t)
            if hit is None:
                missing.append(t)
            else:
                out[t] = hit
        if missing:
            raise InfeasibleQueryError(missing)
        return out

    def relevant_in_circle(
        self, circle: Circle, keywords: FrozenSet[int]
    ) -> List[SpatialObject]:
        """Relevant objects inside the closed disk (R-tree range search)."""
        w_mask = mask_of(keywords) if signatures_enabled() else 0
        return [
            obj
            for obj in self._rtree.range_search(circle)
            if self._relevant(obj, keywords, w_mask)
        ]

    def relevant_in_region(
        self, circles, keywords: FrozenSet[int]
    ) -> List[SpatialObject]:
        """Relevant objects inside the intersection of all ``circles``."""
        w_mask = mask_of(keywords) if signatures_enabled() else 0
        return [
            obj
            for obj in self._objects
            if self._relevant(obj, keywords, w_mask)
            and all(c.contains(obj.location) for c in circles)
        ]

    def objects_in_circle(self, circle: Circle) -> List[SpatialObject]:
        """All objects inside the closed disk."""
        return self._rtree.range_search(circle)
