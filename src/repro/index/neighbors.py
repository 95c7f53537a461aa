"""A linear-scan "index" sharing the keyword-tree index's query interface.

Two uses:

- it is the oracle the property-based tests compare the keyword-tree
  index and the sharded facade against (any disagreement is an index bug);
- it is the no-index baseline of the ``ablation_index`` benchmark, showing
  what the keyword trees buy the CoSKQ algorithms.

The scan filters by precomputed keyword masks, computes each hit's
query-keyword mask (:func:`~repro.index.signatures.query_bits`), and serves
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
from repro.index.signatures import mask_of, query_bits
from repro.model.dataset import Dataset

__all__ = ["LinearScanIndex"]


class LinearScanIndex:
    """Answers the index stream query by scanning the whole dataset."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        #: Keyword bitmasks, by oid.
        self._masks = [mask_of(dataset.keywords_of(oid)) for oid in range(len(dataset))]

    @classmethod
    def build(cls, dataset: Dataset, max_entries: int | None = None) -> "LinearScanIndex":
        """Signature-compatible with :meth:`KeywordTreeIndex.build`."""
        return cls(dataset)

    def __len__(self) -> int:
        return len(self._masks)

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, int, int]]:
        """Relevant objects as ``(distance, oid, mask)``, by ascending ``(distance, oid)``."""
        w_mask = mask_of(keywords)
        bits = query_bits(keywords)
        dataset = self._dataset
        xs, ys = dataset.xs, dataset.ys
        heap = []
        for oid, mask in enumerate(self._masks):
            if not mask & w_mask:
                continue
            location = Point(xs[oid], ys[oid])
            if within is None or within.contains(location):
                hit = 0
                for k in dataset.keywords_of(oid):
                    hit |= bits.get(k, 0)
                heap.append((point.distance_to(location), oid, hit))
        heapq.heapify(heap)
        while heap:
            yield heapq.heappop(heap)
