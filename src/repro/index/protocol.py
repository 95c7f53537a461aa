"""The structural interface every spatial-textual index implements.

:class:`SearchContext` accepts any index of this shape — the
:class:`~repro.index.keyword_trees.KeywordTreeIndex`, the
:class:`~repro.index.neighbors.LinearScanIndex` oracle used by the
ablation benchmarks, the sharded facade or a wrapper around any of
them.  :class:`SpatialTextIndex` pins that contract down as a
:class:`typing.Protocol`, so new backends are checked structurally
instead of by inheritance.

The contract is one query: the relevant objects around a point as a
``(distance, oid)``-ordered stream of ``(distance, oid, mask)`` items.
Bit ``i`` of ``mask`` is set when the object carries the ``i``-th
smallest query keyword (:func:`repro.index.signatures.query_bits`), so a
consumer learns which query keywords an entry covers without reading
its keyword set, and builds a
:class:`~repro.model.objects.SpatialObject` (``dataset[oid]``) only for
the objects it returns.  Every solver reads the index through it.
``N(q)`` is the stream's first carrier of each query keyword
(:meth:`repro.algorithms.base.NNSet.from_stream`), ``NN(p, t)`` the
first entry of a single-keyword stream, and the disk ``C(q, r)`` the
stream's prefix up to ``r``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Protocol, Tuple, runtime_checkable

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.model.dataset import Dataset

__all__ = ["SpatialTextIndex"]


@runtime_checkable
class SpatialTextIndex(Protocol):
    """The one query the CoSKQ algorithms need from an index.

    See :mod:`repro.index.keyword_trees` for the production index and
    :mod:`repro.index.neighbors` for the linear-scan oracle.
    """

    @classmethod
    def build(cls, dataset: Dataset) -> "SpatialTextIndex":
        """Construct the index over every object of ``dataset``."""
        ...

    def __len__(self) -> int:
        """Number of indexed objects."""
        ...

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, int, int]]:
        """``(distance, oid, mask)`` of the carriers of ``keywords``, in ``(distance, oid)`` order.

        Each object comes once; ``mask`` holds the stream bits
        (:func:`~repro.index.signatures.query_bits`) of the query
        keywords it carries.  ``within``, when given, keeps only objects
        in that closed disk.
        """
        ...
