"""A linear-scan "index" sharing the IR-tree query interface.

Two uses:

- it is the oracle the property-based tests compare the IR-tree and the
  sharded facade against (any disagreement is an index bug);
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
from typing import FrozenSet, Iterator, Tuple

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.signatures import mask_of, pack_masks
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject

__all__ = ["LinearScanIndex"]


class LinearScanIndex:
    """Answers the IR-tree's stream query by scanning the whole dataset."""

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
