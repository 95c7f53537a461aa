"""The structural interface every spatial-textual index implements.

:class:`SearchContext` accepts any "IR-tree-shaped" index — the real
:class:`~repro.index.irtree.IRTree`, the
:class:`~repro.index.neighbors.LinearScanIndex` oracle used by the
ablation benchmarks, the sharded facade or a wrapper around any of
them.  :class:`SpatialTextIndex` pins that contract down as a
:class:`typing.Protocol`, so new backends are checked structurally
instead of by inheritance.

The contract is one query: the relevant objects around a point as a
``(distance, oid)``-ordered stream.  Every solver reads the index
through it.  ``N(q)`` is the stream's first carrier of each query
keyword (:meth:`repro.algorithms.base.NNSet.from_stream`), ``NN(p, t)``
the first entry of a single-keyword stream, and the disk ``C(q, r)``
the stream's prefix up to ``r``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Protocol, Tuple, runtime_checkable

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject

__all__ = ["SpatialTextIndex"]


@runtime_checkable
class SpatialTextIndex(Protocol):
    """The one query the CoSKQ algorithms need from an index.

    See :mod:`repro.index.irtree` for the reference implementation and
    :mod:`repro.index.neighbors` for the linear-scan oracle.
    """

    @classmethod
    def build(cls, dataset: Dataset, max_entries: int = ...) -> "SpatialTextIndex":
        """Construct the index over every object of ``dataset``."""
        ...

    def __len__(self) -> int:
        """Number of indexed objects."""
        ...

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, SpatialObject]]:
        """Objects carrying a keyword of ``keywords``, in ``(distance, oid)`` order.

        ``within``, when given, keeps only objects in that closed disk.
        """
        ...
