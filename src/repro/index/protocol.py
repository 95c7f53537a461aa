"""The structural interface every spatial-textual index implements.

:class:`SearchContext` accepts any "IR-tree-shaped" index — the real
:class:`~repro.index.irtree.IRTree` or the
:class:`~repro.index.neighbors.LinearScanIndex` oracle used by the
ablation benchmarks.  Until now that contract lived only in prose
("drop-in replacement"); :class:`SpatialTextIndex` pins it down as a
:class:`typing.Protocol` so the annotation on ``SearchContext.index_cls``
actually says what is required, and new backends (quadtrees, grid files,
sharded remotes) can be checked structurally instead of by inheritance.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.query import Query

__all__ = ["SpatialTextIndex"]


@runtime_checkable
class SpatialTextIndex(Protocol):
    """The query mix the CoSKQ algorithms need from an index.

    Every method mirrors the IR-tree's documented semantics; see
    :mod:`repro.index.irtree` for the reference implementation and
    :mod:`repro.index.neighbors` for the linear-scan oracle.
    """

    @classmethod
    def build(cls, dataset: Dataset, max_entries: int = ...) -> "SpatialTextIndex":
        """Construct the index over every object of ``dataset``."""
        ...

    def __len__(self) -> int:
        """Number of indexed objects."""
        ...

    def keyword_nn(
        self, point: Point, keyword_id: int
    ) -> Tuple[float, SpatialObject] | None:
        """``NN(point, t)`` — nearest object carrying the keyword, or None."""
        ...

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, SpatialObject]]:
        """Relevant objects by ascending distance, optionally disk-bounded."""
        ...

    def nearest_neighbor_set(self, query: Query) -> Dict[int, Tuple[float, SpatialObject]]:
        """The paper's ``N(q)``: keyword id → ``(distance, NN(q, t))``."""
        ...

    def relevant_in_circle(
        self, circle: Circle, keywords: FrozenSet[int]
    ) -> List[SpatialObject]:
        """Objects in the closed disk carrying any keyword of ``keywords``."""
        ...

    def objects_in_circle(self, circle: Circle) -> List[SpatialObject]:
        """All objects in the closed disk, regardless of keywords."""
        ...
