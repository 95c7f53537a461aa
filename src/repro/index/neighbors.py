"""A linear-scan "index" sharing the IR-tree query interface.

Two uses:

- it is the oracle the property-based tests compare the R-tree/IR-tree
  against (any disagreement is an index bug);
- it is the no-index baseline of the ``ablation_index`` benchmark, showing
  what the IR-tree buys the CoSKQ algorithms.

The scan filters by precomputed keyword masks and serves
``nearest_relevant_iter`` from a lazy ``heapq`` heap, so a consumer that
breaks after the first few neighbours pays O(n + k·log n) instead of
the full O(n·log n) sort.  The pop order is the sorted order because
``(distance, oid)`` is a total order over the hits.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import InfeasibleQueryError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.signatures import mask_of, pack_masks
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.query import Query

__all__ = ["LinearScanIndex"]


class LinearScanIndex:
    """Answers the IR-tree query mix by scanning the whole dataset."""

    def __init__(self, dataset: Dataset):
        self._objects = list(dataset.objects)
        #: Keyword bitmasks parallel to ``_objects``.
        self._masks = pack_masks(self._objects)

    @classmethod
    def build(cls, dataset: Dataset, max_entries: int | None = None) -> "LinearScanIndex":
        """Signature-compatible with :meth:`IRTree.build`."""
        return cls(dataset)

    def __len__(self) -> int:
        return len(self._objects)

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, SpatialObject]]:
        """Relevant objects by ascending ``(distance, oid)``."""
        w_mask = mask_of(keywords)
        masks = self._masks
        heap = [
            (point.distance_to(o.location), o.oid, o)
            for i, o in enumerate(self._objects)
            if masks[i] & w_mask
            and (within is None or within.contains(o.location))
        ]
        heapq.heapify(heap)
        while heap:
            dist, _, obj = heapq.heappop(heap)
            yield dist, obj

    def keyword_nn(
        self, point: Point, keyword_id: int
    ) -> Optional[Tuple[float, SpatialObject]]:
        """Nearest object carrying ``keyword_id`` (ties by object id)."""
        bit = 1 << keyword_id
        masks = self._masks
        best: Optional[Tuple[float, int, SpatialObject]] = None
        for i, obj in enumerate(self._objects):
            if not masks[i] & bit:
                continue
            d = point.distance_to(obj.location)
            key = (d, obj.oid, obj)
            if best is None or key[:2] < best[:2]:
                best = key
        if best is None:
            return None
        return best[0], best[2]

    def nearest_neighbor_set(
        self, query: Query
    ) -> Dict[int, Tuple[float, SpatialObject]]:
        """``N(q)`` by linear scan; raises on uncoverable keywords."""
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
        """Relevant objects inside the closed disk."""
        w_mask = mask_of(keywords)
        masks = self._masks
        return [
            o
            for i, o in enumerate(self._objects)
            if masks[i] & w_mask and circle.contains(o.location)
        ]

    def objects_in_circle(self, circle: Circle) -> List[SpatialObject]:
        """All objects inside the closed disk."""
        return [o for o in self._objects if circle.contains(o.location)]
