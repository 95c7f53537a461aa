"""Inverted index: keyword id → posting list of object ids.

The exact algorithms enumerate candidate covers keyword by keyword; the
inverted index supplies, for each keyword, the objects carrying it
(optionally restricted to a region through the caller's filters).  It also
answers the feasibility pre-check — a query is infeasible iff some query
keyword has an empty posting list.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence

from repro.index.signatures import keywords_of, mask_of
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Posting lists over a dataset, built once and then read-only."""

    __slots__ = ("_dataset", "_postings", "_present_mask")

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        postings: Dict[int, List[int]] = {}
        present_mask = 0
        for obj in dataset:
            for k in obj.keywords:
                postings.setdefault(k, []).append(obj.oid)
            present_mask |= mask_of(obj.keywords)
        self._postings = postings
        #: Bitmask of every keyword carried by at least one object.
        self._present_mask = present_mask

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    def posting_list(self, keyword_id: int) -> Sequence[int]:
        """Object ids carrying ``keyword_id`` (ascending; possibly empty)."""
        return self._postings.get(keyword_id, ())

    def objects_with(self, keyword_id: int) -> List[SpatialObject]:
        """Objects carrying ``keyword_id``."""
        objects = self._dataset.objects
        return [objects[oid] for oid in self.posting_list(keyword_id)]

    def document_frequency(self, keyword_id: int) -> int:
        """Number of objects carrying ``keyword_id``."""
        return len(self._postings.get(keyword_id, ()))

    def missing_keywords(self, keyword_ids: Iterable[int]) -> FrozenSet[int]:
        """The subset of ``keyword_ids`` carried by no object at all."""
        return keywords_of(mask_of(keyword_ids) & ~self._present_mask)

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

    def rarest_keyword(self, keyword_ids: Iterable[int]) -> int:
        """The keyword of ``keyword_ids`` with the fewest postings.

        Exact cover enumeration branches on it first to keep the search
        tree narrow.  Ties broken by keyword id for determinism.
        """
        best_k = None
        best = None
        for k in keyword_ids:
            df = self.document_frequency(k)
            key = (df, k)
            if best is None or key < best:
                best = key
                best_k = k
        if best_k is None:
            raise ValueError("rarest_keyword() of an empty keyword collection")
        return best_k
