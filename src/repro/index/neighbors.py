"""A linear-scan "index" sharing the keyword-tree index's query interface.

Two uses:

- it is the oracle the property-based tests compare the keyword-tree
  index and the sharded facade against (any disagreement is an index bug);
- it is the no-index baseline of the ``ablation_index`` benchmark, showing
  what the keyword trees buy the CoSKQ algorithms.

The scan has no spatial structure and keeps nothing per object.  Per
query it reads the relevant objects from the dataset's postings (the
carriers of each query keyword, built once when the dataset is), ORs
each carrier's query-keyword bits (:func:`~repro.index.signatures.query_bits`)
into its mask, and computes every relevant object's distance.  It serves
``nearest_relevant_iter`` from a lazy ``heapq`` heap, so a consumer that
breaks after the first few neighbours pays O(r + k·log r) for r relevant
objects instead of the full O(r·log r) sort.  The pop order is the sorted
order because ``(distance, oid)`` is a total order over the hits.
"""

from __future__ import annotations

import heapq
from typing import FrozenSet, Iterator, Tuple

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.signatures import query_bits
from repro.model.dataset import Dataset

__all__ = ["LinearScanIndex"]


class LinearScanIndex:
    """Answers the index stream query by scanning every relevant object."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    @classmethod
    def build(cls, dataset: Dataset) -> "LinearScanIndex":
        """Index every object of ``dataset`` (nothing to build)."""
        return cls(dataset)

    def __len__(self) -> int:
        return len(self._dataset)

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, int, int]]:
        """Relevant objects as ``(distance, oid, mask)``, by ascending ``(distance, oid)``."""
        dataset = self._dataset
        postings = dataset.postings
        offsets, oids = postings.offsets, postings.oids
        hits = {}
        for k, bit in query_bits(keywords).items():
            slot = postings.slot(k)
            if slot >= 0:
                for oid in oids[offsets[slot] : offsets[slot + 1]]:
                    hits[oid] = hits.get(oid, 0) | bit
        xs, ys = dataset.xs, dataset.ys
        heap = []
        for oid, hit in hits.items():
            location = Point(xs[oid], ys[oid])
            if within is None or within.contains(location):
                heap.append((point.distance_to(location), oid, hit))
        heapq.heapify(heap)
        while heap:
            yield heapq.heappop(heap)
