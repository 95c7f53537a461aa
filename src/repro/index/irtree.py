"""The IR-tree: an R-tree whose nodes carry per-subtree keyword summaries.

The IR-tree (Cong et al., VLDB 2009) is the index the CoSKQ paper runs
on.  Each node stores, besides its MBR, the union of the keyword sets in
its subtree as a keyword bitmask (``kw_mask``, :mod:`repro.index.signatures`;
a compact stand-in for the node's inverted file — sufficient for the
boolean keyword containment tests CoSKQ needs).  This enables:

- ``keyword_nn(p, t)`` — the nearest object to ``p`` carrying keyword
  ``t`` (the paper's ``NN(p, t)``), via best-first traversal that skips
  subtrees whose keyword summary misses ``t``;
- ``nearest_relevant_iter(p, W)`` — incremental distance-ordered
  iteration over objects carrying at least one keyword of ``W``;
- ``relevant_in_circle(c, W)`` — keyword-filtered circle range queries;
- ``nearest_neighbor_set(q)`` — the paper's ``N(q)``, one ``NN(q, t)``
  per query keyword.

The tree is bulk-loaded with STR over the dataset; dynamic insertion is
supported as well so incremental workloads can be modeled.

Leaves additionally keep per-entry keyword masks (``obj_masks``) beside
their packed coordinate columns, so every keyword test in the
traversals is ``mask & w_mask`` — decision-identical to ``isdisjoint``
because the mask↔set mapping is a bijection.  Summaries are maintained
*incrementally* on insert (union with the new entry) and rebuilt from
scratch only when a node splits.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import InfeasibleQueryError
from repro.geometry.circle import Circle
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.index.rtree import DEFAULT_MAX_ENTRIES, _pack_upward, _str_tiles  # noqa: F401
from repro.index.signatures import mask_of, pack_masks
from repro.kernels import cap_bands
from repro.utils.floatcmp import EPSILON as _ZERO_EPS
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.query import Query

__all__ = ["IRTree", "IRTreeNode"]


class IRTreeNode:
    """One IR-tree node: MBR + subtree keyword union (as a bitmask).

    Leaf nodes store objects directly; internal nodes store children.
    Leaves additionally keep their entry coordinates packed into
    parallel ``array('d')`` columns (``xs``/``ys``, rebuilt alongside
    the other summaries) so range and nearest scans run on flat doubles
    with a guarded squared-distance early exit instead of chasing
    ``obj.location`` per entry — see ``docs/PERFORMANCE.md``.
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
        """Rebuild this node's MBR, keyword summaries and coordinate columns.

        Called on bulk load and after splits; ordinary inserts maintain
        every summary incrementally instead (see ``_insert_into``).
        """
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
    """A bulk-loaded (or incrementally built) IR-tree over a dataset."""

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
        entries = [(obj.location, obj) for obj in dataset]
        if not entries:
            return tree
        leaves: List[IRTreeNode] = []
        for chunk in _str_tiles(entries, max_entries):
            leaf = IRTreeNode(is_leaf=True)
            leaf.objects = [obj for _, obj in chunk]
            leaf.recompute_summaries()
            leaves.append(leaf)
        tree.root = _pack_ir_upward(leaves, max_entries)
        tree._size = len(entries)
        return tree

    def insert(self, obj: SpatialObject) -> None:
        """Insert one object, keeping MBRs and keyword summaries tight."""
        split = self._insert_into(self.root, obj)
        if split is not None:
            old_root = self.root
            new_root = IRTreeNode(is_leaf=False)
            new_root.children = [old_root, split]
            new_root.recompute_summaries()
            self.root = new_root
        self._size += 1

    def _insert_into(self, node: IRTreeNode, obj: SpatialObject) -> Optional[IRTreeNode]:
        """Insert ``obj`` below ``node``, maintaining summaries incrementally.

        The non-split path unions the new entry into each summary along
        the insertion path (min/max and bit unions are associative,
        so the result equals a from-scratch rebuild); only a split — the
        one event that *removes* entries from a node — rebuilds, inside
        ``_split_leaf``/``_split_internal``.
        """
        (obj_mask,) = pack_masks((obj,))
        point_rect = MBR.from_point(obj.location)
        if node.is_leaf:
            node.objects.append(obj)
            if len(node.objects) > self.max_entries:
                return self._split_leaf(node)
            node.kw_mask |= obj_mask
            node.obj_masks.append(obj_mask)
            node.xs.append(obj.location.x)
            node.ys.append(obj.location.y)
            node.mbr = point_rect if node.mbr is None else node.mbr.union(point_rect)
            return None
        child = _choose_ir_subtree(node.children, obj.location)
        split = self._insert_into(child, obj)
        if split is not None:
            node.children.append(split)
            if len(node.children) > self.max_entries:
                return self._split_internal(node)
            node.recompute_summaries()
            return None
        node.kw_mask |= obj_mask
        node.mbr = point_rect if node.mbr is None else node.mbr.union(point_rect)
        return None

    def _split_leaf(self, node: IRTreeNode) -> IRTreeNode:
        objects = sorted(node.objects, key=_sort_key)
        half = len(objects) // 2
        new_node = IRTreeNode(is_leaf=True)
        node.objects = objects[:half]
        new_node.objects = objects[half:]
        node.recompute_summaries()
        new_node.recompute_summaries()
        return new_node

    def _split_internal(self, node: IRTreeNode) -> IRTreeNode:
        children = sorted(
            node.children,
            key=lambda c: (c.mbr.center().x, c.mbr.center().y)
            if c.mbr is not None
            else (0.0, 0.0),
        )
        half = len(children) // 2
        new_node = IRTreeNode(is_leaf=False)
        node.children = children[:half]
        new_node.children = children[half:]
        node.recompute_summaries()
        new_node.recompute_summaries()
        return new_node

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
        disk — the owner-driven algorithms search ``C(q, r)`` anchored
        elsewhere, and pruning the disk inside the traversal is what
        makes that cheap.  The keyword tests run on node/entry bitmasks
        (decision-identical to the set algebra).

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

    def keyword_nn(
        self, point: Point, keyword_id: int
    ) -> Optional[Tuple[float, SpatialObject]]:
        """The paper's ``NN(point, t)``: nearest object carrying ``t``.

        Returns ``(distance, object)`` or None when no object carries the
        keyword.  Ties on distance go to the lowest object id (the
        stream's ``(distance, oid)`` order).
        """
        target = frozenset((keyword_id,))
        for dist, obj in self.nearest_relevant_iter(point, target):
            return dist, obj
        return None

    def boolean_knn(self, query: Query, k: int) -> List[Tuple[float, SpatialObject]]:
        """Boolean kNN: the k nearest objects covering *all* query keywords.

        The single-object spatial keyword query from the related work
        (Felipe et al., ICDE 2008): each result object individually
        carries every keyword of ``q.ψ``; results ascend by distance.
        Returns fewer than k when fewer qualifying objects exist (an
        empty list when no single object covers the whole query — the
        situation CoSKQ exists to solve).

        A dedicated best-first traversal with the *covering* prune
        ``q_mask & ~kw_mask != 0``: a subtree whose keyword union does
        not cover ``q.ψ`` cannot contain a covering object, so whole
        relevant-but-insufficient subtrees are skipped.  Covering objects
        come out in ascending ``(distance, oid)`` order (see
        :meth:`nearest_relevant_iter`).
        """
        out: List[Tuple[float, SpatialObject]] = []
        if k <= 0 or self.root.mbr is None:
            return out
        q_mask = mask_of(query.keywords)
        if q_mask & ~self.root.kw_mask:
            return out
        point = query.location
        counter = itertools.count()
        heap: List[Tuple[float, int, int, Union[IRTreeNode, SpatialObject]]] = [
            (self.root.mbr.min_distance(point), 0, next(counter), self.root)
        ]
        while heap:
            dist, is_object, _, item = heapq.heappop(heap)
            if is_object:
                out.append((dist, item))  # type: ignore[arg-type]
                if len(out) >= k:
                    break
                continue
            node: IRTreeNode = item  # type: ignore[assignment]
            if node.is_leaf:
                masks = node.obj_masks
                for i, obj in enumerate(node.objects):
                    if q_mask & ~masks[i]:
                        continue
                    d = point.distance_to(obj.location)
                    heapq.heappush(heap, (d, 1, obj.oid, obj))
            else:
                for child in node.children:
                    if child.mbr is None or q_mask & ~child.kw_mask:
                        continue
                    heapq.heappush(
                        heap,
                        (child.mbr.min_distance(point), 0, next(counter), child),
                    )
        return out

    def nearest_neighbor_set(self, query: Query) -> Dict[int, Tuple[float, SpatialObject]]:
        """The paper's ``N(q)``: for each ``t ∈ q.ψ`` the object ``NN(q, t)``.

        Returns a map keyword id → (distance, object).  Raises
        :class:`InfeasibleQueryError` when some query keyword is carried
        by no object — then no feasible set exists at all.
        """
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
        """Objects in the closed disk carrying any keyword of ``keywords``."""
        out: List[SpatialObject] = []
        if self.root.mbr is None:
            return out
        radius = circle.radius
        w_mask = mask_of(keywords)
        cx = circle.center.x
        cy = circle.center.y
        lo2, hi2, fast = cap_bands(radius)
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.mbr is None:
                continue
            if not node.kw_mask & w_mask:
                continue
            if _mbr_beyond(node.mbr, cx, cy, radius, lo2, hi2, fast):
                continue
            if node.is_leaf:
                masks = node.obj_masks
                # Guarded squared-distance scan over the packed columns;
                # only band-ambiguous entries pay a hypot.
                xs = node.xs
                ys = node.ys
                for i, obj in enumerate(node.objects):
                    if not masks[i] & w_mask:
                        continue
                    dx = cx - xs[i]
                    dy = cy - ys[i]
                    sq = dx * dx + dy * dy
                    if fast:
                        if sq < lo2:
                            out.append(obj)
                            continue
                        if sq > hi2:
                            continue
                    if math.hypot(dx, dy) <= radius:
                        out.append(obj)
            else:
                stack.extend(node.children)
        return out

    def objects_in_circle(self, circle: Circle) -> List[SpatialObject]:
        """All objects in the closed disk, regardless of keywords."""
        out: List[SpatialObject] = []
        if self.root.mbr is None:
            return out
        radius = circle.radius
        cx = circle.center.x
        cy = circle.center.y
        lo2, hi2, fast = cap_bands(radius)
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.mbr is None:
                continue
            if _mbr_beyond(node.mbr, cx, cy, radius, lo2, hi2, fast):
                continue
            if node.is_leaf:
                xs = node.xs
                ys = node.ys
                for i, obj in enumerate(node.objects):
                    dx = cx - xs[i]
                    dy = cy - ys[i]
                    sq = dx * dx + dy * dy
                    if fast:
                        if sq < lo2:
                            out.append(obj)
                            continue
                        if sq > hi2:
                            continue
                    if math.hypot(dx, dy) <= radius:
                        out.append(obj)
            else:
                stack.extend(node.children)
        return out

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


def _mbr_beyond(
    mbr: MBR,
    cx: float,
    cy: float,
    radius: float,
    lo2: float,
    hi2: float,
    fast: bool,
) -> bool:
    """Decision-identical to ``mbr.min_distance(Point(cx, cy)) > radius``.

    One call instead of the ``intersects_mbr`` → ``min_distance`` →
    ``is_zero`` chain: the clamped offsets are non-negative, so
    ``<= _ZERO_EPS`` reproduces :func:`repro.utils.floatcmp.is_zero`
    exactly, and the hypot branch is decided from the squared distance
    wherever the guard band (``lo2``/``hi2`` from :func:`cap_bands`)
    makes that conclusive.
    """
    dx = 0.0
    if cx < mbr.min_x:
        dx = mbr.min_x - cx
    elif cx > mbr.max_x:
        dx = cx - mbr.max_x
    dy = 0.0
    if cy < mbr.min_y:
        dy = mbr.min_y - cy
    elif cy > mbr.max_y:
        dy = cy - mbr.max_y
    if dx <= _ZERO_EPS:
        return dy > radius
    if dy <= _ZERO_EPS:
        return dx > radius
    sq = dx * dx + dy * dy
    if fast:
        if sq < lo2:
            return False
        if sq > hi2:
            return True
    return math.hypot(dx, dy) > radius


def _sort_key(obj: SpatialObject) -> Tuple[float, float, int]:
    return (obj.location.x, obj.location.y, obj.oid)


def _choose_ir_subtree(children: Sequence[IRTreeNode], point: Point) -> IRTreeNode:
    """Least enlargement, ties by area (Guttman ChooseLeaf)."""
    rect = MBR.from_point(point)
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
