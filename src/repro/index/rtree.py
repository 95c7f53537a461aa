"""A point R-tree with quadratic-split insertion and STR bulk loading.

This is the plain spatial index underneath the IR-tree.  It stores
``(Point, payload)`` entries and answers:

- circle range queries (payloads within a disk),
- best-first incremental nearest-neighbor iteration,
- k-nearest-neighbor queries.

The implementation follows Guttman's R-tree for dynamic insertion
(quadratic split) and the Sort-Tile-Recursive (STR) recipe for bulk
loading, which is how the benchmark datasets are indexed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from typing import Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.geometry.circle import Circle
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.kernels import cap_bands

__all__ = ["RTree", "RTreeNode", "DEFAULT_MAX_ENTRIES"]

T = TypeVar("T")

DEFAULT_MAX_ENTRIES = 16


class RTreeNode(Generic[T]):
    """One R-tree node.

    Leaf nodes keep parallel lists ``points``/``payloads``; internal nodes
    keep ``children``.  ``mbr`` always tightly bounds the subtree.

    Leaves additionally mirror entry coordinates into packed double
    arrays ``xs``/``ys`` (struct-of-arrays) so leaf distance scans read
    contiguous doubles instead of chasing ``Point`` attributes.  The
    columns hold exactly the same doubles as ``points`` — every distance
    computed from them is bit-identical to ``Point.distance_to``.
    """

    __slots__ = ("is_leaf", "points", "payloads", "children", "mbr", "xs", "ys")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.points: List[Point] = []
        self.payloads: List[T] = []
        self.children: List["RTreeNode[T]"] = []
        self.mbr: Optional[MBR] = None
        self.xs: array = array("d")
        self.ys: array = array("d")

    def entry_count(self) -> int:
        return len(self.points) if self.is_leaf else len(self.children)

    def recompute_mbr(self) -> None:
        if self.is_leaf:
            self.mbr = MBR.from_points(self.points) if self.points else None
            self.xs = array("d", (p.x for p in self.points))
            self.ys = array("d", (p.y for p in self.points))
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
            self.mbr = MBR.union_all(rects) if rects else None

    def extend_mbr(self, rect: MBR) -> None:
        self.mbr = rect if self.mbr is None else self.mbr.union(rect)


class RTree(Generic[T]):
    """A dynamic R-tree over point entries."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 3)
        self.root: RTreeNode[T] = RTreeNode(is_leaf=True)
        self._size = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        entries: Sequence[Tuple[Point, T]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "RTree[T]":
        """Build a packed tree with Sort-Tile-Recursive loading."""
        tree = cls(max_entries=max_entries)
        if not entries:
            return tree
        leaves: List[RTreeNode[T]] = []
        for chunk in _str_tiles(entries, max_entries):
            leaf: RTreeNode[T] = RTreeNode(is_leaf=True)
            for point, payload in chunk:
                leaf.points.append(point)
                leaf.payloads.append(payload)
            leaf.recompute_mbr()
            leaves.append(leaf)
        tree.root = _pack_upward(leaves, max_entries)
        tree._size = len(entries)
        return tree

    def insert(self, point: Point, payload: T) -> None:
        """Insert one entry (Guttman ChooseLeaf + quadratic split)."""
        split = self._insert_into(self.root, point, payload)
        if split is not None:
            old_root = self.root
            new_root: RTreeNode[T] = RTreeNode(is_leaf=False)
            new_root.children = [old_root, split]
            new_root.recompute_mbr()
            self.root = new_root
        self._size += 1

    def _insert_into(
        self, node: RTreeNode[T], point: Point, payload: T
    ) -> Optional[RTreeNode[T]]:
        point_rect = MBR.from_point(point)
        if node.is_leaf:
            node.points.append(point)
            node.payloads.append(payload)
            # extend_mbr below skips the full recompute, so the packed
            # columns must be appended in lockstep here.
            node.xs.append(point.x)
            node.ys.append(point.y)
            node.extend_mbr(point_rect)
            if len(node.points) > self.max_entries:
                return self._split_leaf(node)
            return None
        child = _choose_subtree(node.children, point_rect)
        split = self._insert_into(child, point, payload)
        if split is not None:
            node.children.append(split)
            if len(node.children) > self.max_entries:
                overflow = self._split_internal(node)
                return overflow
        node.recompute_mbr()
        return None

    def _split_leaf(self, node: RTreeNode[T]) -> RTreeNode[T]:
        rects = [MBR.from_point(p) for p in node.points]
        group_a, group_b = _quadratic_split(rects, self.min_entries)
        points, payloads = node.points, node.payloads
        new_node: RTreeNode[T] = RTreeNode(is_leaf=True)
        node.points = [points[i] for i in group_a]
        node.payloads = [payloads[i] for i in group_a]
        new_node.points = [points[i] for i in group_b]
        new_node.payloads = [payloads[i] for i in group_b]
        node.recompute_mbr()
        new_node.recompute_mbr()
        return new_node

    def _split_internal(self, node: RTreeNode[T]) -> RTreeNode[T]:
        rects = [c.mbr for c in node.children]  # children of a parent have MBRs
        group_a, group_b = _quadratic_split(rects, self.min_entries)
        children = node.children
        new_node: RTreeNode[T] = RTreeNode(is_leaf=False)
        node.children = [children[i] for i in group_a]
        new_node.children = [children[i] for i in group_b]
        node.recompute_mbr()
        new_node.recompute_mbr()
        return new_node

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def range_search(self, circle: Circle) -> List[T]:
        """Payloads of all entries inside the closed disk ``circle``."""
        out: List[T] = []
        if self.root.mbr is None:
            return out
        stack = [self.root]
        radius = circle.radius
        cx, cy = circle.center.x, circle.center.y
        lo2, hi2, fast = cap_bands(radius)
        while stack:
            node = stack.pop()
            if node.mbr is None or not circle.intersects_mbr(node.mbr):
                continue
            if node.is_leaf:
                # Packed-column scan: squared distance classifies
                # conclusively outside the guard band; the ambiguous
                # sliver falls back to the exact hypot test.
                xs, ys, payloads = node.xs, node.ys, node.payloads
                for i in range(len(xs)):
                    dx = cx - xs[i]
                    dy = cy - ys[i]
                    sq = dx * dx + dy * dy
                    if fast:
                        if sq < lo2:
                            out.append(payloads[i])
                            continue
                        if sq > hi2:
                            continue
                    if math.hypot(dx, dy) <= radius:
                        out.append(payloads[i])
            else:
                stack.extend(node.children)
        return out

    def nearest_iter(self, point: Point) -> Iterator[Tuple[float, Point, T]]:
        """Yield entries in ascending distance from ``point`` (best-first).

        The classic incremental nearest-neighbor traversal: a single heap
        mixes nodes (keyed by MBR min-distance) and entries (keyed by
        exact distance); popping an entry before any node proves it is the
        next nearest.
        """
        if self.root.mbr is None:
            return
        counter = itertools.count()
        # Heap entries are either unopened nodes or materialized entries.
        heap: List[
            Tuple[float, int, bool, Union["RTreeNode[T]", Tuple[Point, T]]]
        ] = []
        heapq.heappush(
            heap, (self.root.mbr.min_distance(point), next(counter), False, self.root)
        )
        while heap:
            dist, _, is_entry, item = heapq.heappop(heap)
            if is_entry:
                entry_point, payload = item
                yield dist, entry_point, payload
                continue
            node: RTreeNode[T] = item
            if node.is_leaf:
                px, py = point.x, point.y
                xs, ys = node.xs, node.ys
                points, payloads = node.points, node.payloads
                for i in range(len(xs)):
                    d = math.hypot(px - xs[i], py - ys[i])
                    heapq.heappush(
                        heap, (d, next(counter), True, (points[i], payloads[i]))
                    )
            else:
                for child in node.children:
                    if child.mbr is not None:
                        heapq.heappush(
                            heap,
                            (child.mbr.min_distance(point), next(counter), False, child),
                        )

    def nearest(self, point: Point, k: int = 1) -> List[Tuple[float, T]]:
        """The ``k`` nearest payloads with their distances."""
        out: List[Tuple[float, T]] = []
        for dist, _, payload in self.nearest_iter(point):
            out.append((dist, payload))
            if len(out) >= k:
                break
        return out

    # -- introspection (used by tests) ----------------------------------------

    def height(self) -> int:
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated."""
        count = _check_node(self.root, self.max_entries, is_root=True)
        assert count == self._size, "entry count %d != size %d" % (count, self._size)

    def all_entries(self) -> Iterator[Tuple[Point, T]]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from zip(node.points, node.payloads)
            else:
                stack.extend(node.children)


# -- helpers ------------------------------------------------------------------


def _choose_subtree(children: Sequence[RTreeNode[T]], rect: MBR) -> RTreeNode[T]:
    """Guttman ChooseLeaf: least enlargement, ties by area."""
    best = children[0]
    best_key = (math.inf, math.inf)
    for child in children:
        if child.mbr is None:
            return child
        key = (child.mbr.enlargement(rect), child.mbr.area())
        if key < best_key:
            best_key = key
            best = child
    return best


def _quadratic_split(
    rects: Sequence[MBR], min_entries: int
) -> Tuple[List[int], List[int]]:
    """Guttman quadratic split over entry rectangles, returning index groups."""
    n = len(rects)
    # PickSeeds: the pair wasting the most area together.
    seed_a, seed_b, worst = 0, 1, -math.inf
    for i in range(n):
        for j in range(i + 1, n):
            waste = rects[i].union(rects[j]).area() - rects[i].area() - rects[j].area()
            if waste > worst:
                worst = waste
                seed_a, seed_b = i, j
    group_a, group_b = [seed_a], [seed_b]
    mbr_a, mbr_b = rects[seed_a], rects[seed_b]
    remaining = [i for i in range(n) if i != seed_a and i != seed_b]
    while remaining:
        # Force-assign when one group must take everything left.
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break
        # PickNext: entry with the largest preference for one group.
        best_i = -1
        best_diff = -math.inf
        for idx, i in enumerate(remaining):
            d_a = mbr_a.enlargement(rects[i])
            d_b = mbr_b.enlargement(rects[i])
            diff = abs(d_a - d_b)
            if diff > best_diff:
                best_diff = diff
                best_i = idx
        i = remaining.pop(best_i)
        d_a = mbr_a.enlargement(rects[i])
        d_b = mbr_b.enlargement(rects[i])
        if (d_a, mbr_a.area(), len(group_a)) <= (d_b, mbr_b.area(), len(group_b)):
            group_a.append(i)
            mbr_a = mbr_a.union(rects[i])
        else:
            group_b.append(i)
            mbr_b = mbr_b.union(rects[i])
    return group_a, group_b


def _str_tiles(
    entries: Sequence[Tuple[Point, T]], capacity: int
) -> Iterator[List[Tuple[Point, T]]]:
    """Partition entries into leaf-sized tiles with the STR recipe."""
    n = len(entries)
    leaf_count = math.ceil(n / capacity)
    slice_count = math.ceil(math.sqrt(leaf_count))
    by_x = sorted(entries, key=lambda e: (e[0].x, e[0].y))
    slice_size = math.ceil(n / slice_count)
    for start in range(0, n, slice_size):
        vertical = sorted(
            by_x[start : start + slice_size], key=lambda e: (e[0].y, e[0].x)
        )
        for leaf_start in range(0, len(vertical), capacity):
            yield vertical[leaf_start : leaf_start + capacity]


def _pack_upward(nodes: List[RTreeNode[T]], capacity: int) -> RTreeNode[T]:
    """Stack node levels until a single root remains."""
    if not nodes:
        return RTreeNode(is_leaf=True)
    while len(nodes) > 1:
        parents: List[RTreeNode[T]] = []
        nodes.sort(
            key=lambda nd: (nd.mbr.center().x, nd.mbr.center().y)
            if nd.mbr is not None
            else (0.0, 0.0)
        )
        for start in range(0, len(nodes), capacity):
            parent: RTreeNode[T] = RTreeNode(is_leaf=False)
            parent.children = nodes[start : start + capacity]
            parent.recompute_mbr()
            parents.append(parent)
        nodes = parents
    return nodes[0]


def _check_node(node: RTreeNode[T], max_entries: int, is_root: bool) -> int:
    assert node.entry_count() <= max_entries, "node overflow"
    if not is_root:
        assert node.entry_count() >= 1, "empty non-root node"
    if node.is_leaf:
        if node.points:
            rect = MBR.from_points(node.points)
            assert node.mbr is not None and node.mbr.contains(rect), "loose leaf MBR"
        assert len(node.xs) == len(node.points), "stale leaf x column"
        assert len(node.ys) == len(node.points), "stale leaf y column"
        for i, p in enumerate(node.points):
            assert node.xs[i] == p.x and node.ys[i] == p.y, (
                "leaf coordinate column diverges from points"
            )
        return len(node.points)
    total = 0
    for child in node.children:
        assert child.mbr is not None, "internal child without MBR"
        assert node.mbr is not None and node.mbr.contains(child.mbr), "loose MBR"
        total += _check_node(child, max_entries, is_root=False)
    return total
