"""The IR-tree: an R-tree whose nodes carry per-subtree keyword summaries.

The IR-tree (Cong et al., VLDB 2009) is the index the CoSKQ paper runs
on.  Each node stores, besides its MBR, the union of the keyword sets in
its subtree as a keyword bitmask (``kw_mask``, :mod:`repro.index.signatures`;
a compact stand-in for the node's inverted file — sufficient for the
keyword tests CoSKQ needs).  It answers one query,
``nearest_relevant_iter(p, W)``: incremental iteration, in total
``(distance, oid)`` order, over objects carrying at least one keyword of
``W``.  The solvers read everything from it: ``N(q)`` is its first
carrier of each query keyword, ``NN(p, t)`` the first entry of a
single-keyword stream, and ``C(q, r)`` a prefix of the stream.

The tree is bulk-loaded with STR (Sort-Tile-Recursive) over the dataset
and is read-only afterwards.  Leaves additionally keep per-entry keyword
masks (``obj_masks``) beside their packed coordinate columns, so every
keyword test in the traversals is ``mask & w_mask`` — decision-identical
to ``isdisjoint`` because the mask↔set mapping is a bijection.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.geometry.circle import Circle
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.index.signatures import mask_of, pack_masks
from repro.kernels import cap_bands
from repro.utils.floatcmp import EPSILON as _ZERO_EPS
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject

__all__ = ["IRTree", "IRTreeNode", "DEFAULT_MAX_ENTRIES"]

DEFAULT_MAX_ENTRIES = 16


class IRTreeNode:
    """One IR-tree node: MBR + subtree keyword union (as a bitmask).

    Leaf nodes store objects directly; internal nodes store children.
    Leaves additionally keep their entry coordinates packed into
    parallel ``array('d')`` columns (``xs``/``ys``, rebuilt alongside
    the other summaries) so nearest scans run on flat doubles instead of
    chasing ``obj.location`` per entry — see ``docs/PERFORMANCE.md``.
    """

    __slots__ = (
        "is_leaf",
        "objects",
        "children",
        "mbr",
        "kw_mask",
        "obj_masks",
        "xs",
        "ys",
    )

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.objects: List[SpatialObject] = []
        self.children: List["IRTreeNode"] = []
        self.mbr: Optional[MBR] = None
        #: Union of the subtree's keyword sets (``repro.index.signatures``).
        self.kw_mask: int = 0
        #: Leaf-only: per-entry keyword masks, parallel to ``objects``.
        self.obj_masks: List[int] = []
        self.xs: array = array("d")
        self.ys: array = array("d")

    def entry_count(self) -> int:
        return len(self.objects) if self.is_leaf else len(self.children)

    def recompute_summaries(self) -> None:
        """Build this node's MBR, keyword summaries and coordinate columns."""
        self.kw_mask = 0
        if self.is_leaf:
            self.mbr = (
                MBR.from_points(o.location for o in self.objects)
                if self.objects
                else None
            )
            self.obj_masks = pack_masks(self.objects)
            for mask in self.obj_masks:
                self.kw_mask |= mask
            self.xs = array("d", (o.location.x for o in self.objects))
            self.ys = array("d", (o.location.y for o in self.objects))
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
            self.mbr = MBR.union_all(rects) if rects else None
            for child in self.children:
                self.kw_mask |= child.kw_mask


class IRTree:
    """An STR bulk-loaded IR-tree over a dataset."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.root = IRTreeNode(is_leaf=True)
        self._size = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, dataset: Dataset, max_entries: int = DEFAULT_MAX_ENTRIES) -> "IRTree":
        """STR bulk-load an IR-tree over all objects of ``dataset``."""
        tree = cls(max_entries=max_entries)
        objects = list(dataset)
        if not objects:
            return tree
        leaves: List[IRTreeNode] = []
        for chunk in _str_tiles(objects, max_entries):
            leaf = IRTreeNode(is_leaf=True)
            leaf.objects = chunk
            leaf.recompute_summaries()
            leaves.append(leaf)
        tree.root = _pack_ir_upward(leaves, max_entries)
        tree._size = len(objects)
        return tree

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, SpatialObject]]:
        """Objects carrying any keyword of ``keywords``, by ascending distance.

        Single best-first heap over (mindist, node/object) entries; all
        keyword pruning happens at *push* time, so subtrees whose
        keyword summary is disjoint from ``keywords`` are never opened
        and irrelevant objects never enter the heap.  ``within``
        additionally restricts results (and the traversal) to a closed
        disk; no solver passes it.  The keyword tests run on node/entry
        bitmasks (decision-identical to the set algebra).

        Equal distances come out by ascending oid: a node sorts before an
        object at the same key, so every object at that distance is in
        the heap before the first of them pops.  The order is therefore
        the total ``(distance, oid)`` order, whatever the tree's shape.
        """
        if self.root.mbr is None:
            return
        w_mask = mask_of(keywords)
        counter = itertools.count()
        # Heap entries are unopened nodes ``(key, 0, counter, node)`` or
        # materialized objects ``(distance, 1, oid, object)``.
        heap: List[Tuple[float, int, int, Union[IRTreeNode, SpatialObject]]] = []
        if self.root.kw_mask & w_mask:
            heapq.heappush(
                heap,
                (self.root.mbr.min_distance(point), 0, next(counter), self.root),
            )
        w_center = within.center if within is not None else None
        w_radius = within.radius if within is not None else 0.0
        px = point.x
        py = point.y
        if w_center is not None:
            wx = w_center.x
            wy = w_center.y
            w_lo2, w_hi2, w_fast = cap_bands(w_radius)
        while heap:
            dist, is_object, _, item = heapq.heappop(heap)
            if is_object:
                yield dist, item  # type: ignore[misc]
                continue
            node: IRTreeNode = item  # type: ignore[assignment]
            if node.is_leaf:
                # Packed-column scan: the window test decides most
                # entries from the squared distance alone, and the heap
                # key is the exact hypot ``distance_to`` computes — just
                # without the attribute chasing.
                xs = node.xs
                ys = node.ys
                masks = node.obj_masks
                for i, obj in enumerate(node.objects):
                    if not masks[i] & w_mask:
                        continue
                    if w_center is not None:
                        dx = wx - xs[i]
                        dy = wy - ys[i]
                        sq = dx * dx + dy * dy
                        if w_fast and sq > w_hi2:
                            continue
                        if (not w_fast or sq >= w_lo2) and math.hypot(
                            dx, dy
                        ) > w_radius:
                            continue
                    d = math.hypot(px - xs[i], py - ys[i])
                    heapq.heappush(heap, (d, 1, obj.oid, obj))
            else:
                for child in node.children:
                    if child.mbr is None:
                        continue
                    if not child.kw_mask & w_mask:
                        continue
                    # Inlined min_distance: same clamped-offset branch
                    # structure as MBR.min_distance (offsets are
                    # non-negative, so ``<= _ZERO_EPS`` is exactly
                    # floatcmp.is_zero()).  The window test is
                    # decision-guarded; the heap key is the exact
                    # min_distance value.
                    mbr = child.mbr
                    if w_center is not None:
                        dx = 0.0
                        if wx < mbr.min_x:
                            dx = mbr.min_x - wx
                        elif wx > mbr.max_x:
                            dx = wx - mbr.max_x
                        dy = 0.0
                        if wy < mbr.min_y:
                            dy = mbr.min_y - wy
                        elif wy > mbr.max_y:
                            dy = wy - mbr.max_y
                        if dx <= _ZERO_EPS:
                            if dy > w_radius:
                                continue
                        elif dy <= _ZERO_EPS:
                            if dx > w_radius:
                                continue
                        else:
                            sq = dx * dx + dy * dy
                            if w_fast and sq > w_hi2:
                                continue
                            if (not w_fast or sq >= w_lo2) and math.hypot(
                                dx, dy
                            ) > w_radius:
                                continue
                    dx = 0.0
                    if px < mbr.min_x:
                        dx = mbr.min_x - px
                    elif px > mbr.max_x:
                        dx = px - mbr.max_x
                    dy = 0.0
                    if py < mbr.min_y:
                        dy = mbr.min_y - py
                    elif py > mbr.max_y:
                        dy = py - mbr.max_y
                    if dx <= _ZERO_EPS:
                        key = dy
                    elif dy <= _ZERO_EPS:
                        key = dx
                    else:
                        key = math.hypot(dx, dy)
                    heapq.heappush(heap, (key, 0, next(counter), child))

    # -- introspection ---------------------------------------------------------

    def height(self) -> int:
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def check_invariants(self) -> None:
        """Raise AssertionError on any structural or summary violation."""
        count, _ = _check_ir_node(self.root, self.max_entries, is_root=True)
        assert count == self._size, "entry count %d != size %d" % (count, self._size)

    def all_objects(self) -> Iterator[SpatialObject]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.objects
            else:
                stack.extend(node.children)


# -- helpers ------------------------------------------------------------------


def _str_tiles(
    objects: Sequence[SpatialObject], capacity: int
) -> Iterator[List[SpatialObject]]:
    """Partition objects into leaf-sized tiles with the STR recipe."""
    n = len(objects)
    leaf_count = math.ceil(n / capacity)
    slice_count = math.ceil(math.sqrt(leaf_count))
    by_x = sorted(objects, key=lambda o: (o.location.x, o.location.y))
    slice_size = math.ceil(n / slice_count)
    for start in range(0, n, slice_size):
        vertical = sorted(
            by_x[start : start + slice_size],
            key=lambda o: (o.location.y, o.location.x),
        )
        for leaf_start in range(0, len(vertical), capacity):
            yield vertical[leaf_start : leaf_start + capacity]


def _pack_ir_upward(nodes: List[IRTreeNode], capacity: int) -> IRTreeNode:
    """Stack IR-node levels until a single root remains."""
    if not nodes:
        return IRTreeNode(is_leaf=True)
    while len(nodes) > 1:
        parents: List[IRTreeNode] = []
        nodes.sort(
            key=lambda nd: (nd.mbr.center().x, nd.mbr.center().y)
            if nd.mbr is not None
            else (0.0, 0.0)
        )
        for start in range(0, len(nodes), capacity):
            parent = IRTreeNode(is_leaf=False)
            parent.children = nodes[start : start + capacity]
            parent.recompute_summaries()
            parents.append(parent)
        nodes = parents
    return nodes[0]


def _check_ir_node(
    node: IRTreeNode, max_entries: int, is_root: bool
) -> Tuple[int, Set[int]]:
    """Check ``node``'s subtree; return its entry count and keyword union."""
    assert node.entry_count() <= max_entries, "node overflow"
    if not is_root:
        assert node.entry_count() >= 1, "empty non-root node"
    expected: Set[int] = set()
    if node.is_leaf:
        assert len(node.xs) == len(node.objects), "stale leaf x column"
        assert len(node.ys) == len(node.objects), "stale leaf y column"
        assert len(node.obj_masks) == len(node.objects), "stale leaf mask column"
        for i, obj in enumerate(node.objects):
            expected.update(obj.keywords)
            assert node.mbr is not None and node.mbr.contains_point(obj.location)
            # Exact mirror check: the packed columns must hold the very
            # same doubles as the object locations.
            assert node.xs[i] == obj.location.x and node.ys[i] == obj.location.y, (
                "leaf coordinate column diverges from object locations"
            )
            assert node.obj_masks[i] == mask_of(obj.keywords), (
                "leaf mask column diverges from object keywords"
            )
        assert node.kw_mask == mask_of(expected), "stale leaf keyword mask"
        return len(node.objects), expected
    total = 0
    for child in node.children:
        assert child.mbr is not None and node.mbr is not None
        assert node.mbr.contains(child.mbr), "loose internal MBR"
        count, keywords = _check_ir_node(child, max_entries, is_root=False)
        total += count
        expected |= keywords
    assert node.kw_mask == mask_of(expected), "stale internal keyword mask"
    return total, expected
