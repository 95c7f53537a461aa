"""The keyword-partitioned index: one packed spatial tree per keyword.

The CoSKQ paper runs its solvers on the IR-tree of Cong et al. (VLDB
2009), one R-tree whose nodes summarise the keywords below them.  The
solvers ask one thing of an index: the objects carrying a query keyword,
in ascending distance from a point.  In the IR-tree a leaf whose keyword
summary matches the query still holds mostly objects that carry no query
keyword, and the stream scans them all.  This index is keyword-first
instead, like the inverted linear quadtree of QQESPM: each keyword's
carriers are STR-packed into a tree of their own, so a query reads only
the carriers of its keywords and no index holds a vocabulary-wide
keyword summary.

Every tree lives in flat arrays shared by the whole index:

- the objects sorted by ``(x, y, oid)``, so the layout is a function
  of the object set alone; an object's position in that order is its
  *rank*, and the ``x``/``y``/``oid`` columns are indexed by rank, so
  each object's doubles are stored once however many keywords it
  carries;
- per keyword (a *slot*, keyword ids ascending), a range of the entry
  array, which lists the ranks of the keyword's carriers in leaf order;
- per node, its MBR and one child range: leaves (node ids below
  ``_leaves``) range over the entry array, internal nodes over a
  child-id array.

Coordinates and MBRs are ``array("d")``; every id column (ranks, oids,
entries, ranges, child ids, roots, keyword slots and offsets) is a
4-byte ``array("i")``, which raises :class:`OverflowError` on an id
past ``2**31 - 1`` instead of wrapping.  The slots, offsets and entries
are the posting layout of :func:`~repro.index.inverted.group_by_keyword`
over the ranks.

A keyword with at most ``max_entries`` carriers has no node at all: its
entry range is its single leaf.  The index is built once and read-only
afterwards.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from operator import attrgetter
from typing import FrozenSet, Iterable, Iterator, List, Tuple

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.inverted import group_by_keyword
from repro.model.objects import SpatialObject

__all__ = ["DEFAULT_MAX_ENTRIES", "KeywordTreeIndex"]

DEFAULT_MAX_ENTRIES = 16


class KeywordTreeIndex:
    """STR-packed per-keyword trees over one set of objects."""

    __slots__ = (
        "max_entries",
        "_objects",
        "_xs",
        "_ys",
        "_oids",
        "_keywords",
        "_offsets",
        "_roots",
        "_entries",
        "_leaves",
        "_x0",
        "_y0",
        "_x1",
        "_y1",
        "_lo",
        "_hi",
        "_kids",
    )

    def __init__(self, objects: Iterable[SpatialObject], max_entries: int):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        # The (x, y, oid) order from three stable sorts, last key first:
        # no key tuple per object.  Coordinates are finite, so this is
        # the tuple order, with -0.0 and 0.0 tying.
        ranked = list(objects)
        ranked.sort(key=attrgetter("oid"))
        ranked.sort(key=attrgetter("location.y"))
        ranked.sort(key=attrgetter("location.x"))
        self._objects: List[SpatialObject] = ranked
        xs = self._xs = array("d", [o.location.x for o in ranked])
        ys = self._ys = array("d", [o.location.y for o in ranked])
        self._oids = array("i", [o.oid for o in ranked])
        # Each keyword's carriers by ascending rank, so by x, as STR
        # needs them; a multi-leaf keyword's range is then rewritten in
        # place into its leaf order.
        keywords, offsets, entries = group_by_keyword([o.keywords for o in ranked])
        self._keywords, self._offsets, self._entries = keywords, offsets, entries
        # -1 marks a single leaf; a multi-leaf keyword's root is set once
        # the levels above its leaves are stacked.
        roots = self._roots = array("i", [-1]) * len(keywords)
        self._x0 = array("d")
        self._y0 = array("d")
        self._x1 = array("d")
        self._y1 = array("d")
        self._lo = array("i")
        self._hi = array("i")
        self._kids = array("i")
        # Leaves first, for every keyword, so that ``id < _leaves`` tells
        # a leaf; the levels above are stacked once all leaves exist.
        stacked: List[Tuple[int, int, int]] = []
        x_of = xs.__getitem__
        y_of = ys.__getitem__
        for slot in range(len(keywords)):
            at, end = offsets[slot], offsets[slot + 1]
            if end - at <= max_entries:
                continue
            first = len(self._lo)
            for leaf in _str_tiles(entries[at:end], max_entries, y_of):
                lo = at
                at += len(leaf)
                entries[lo:at] = array("i", leaf)
                # A tile is a run of a y-sorted slice.
                self._add_node(
                    min(map(x_of, leaf)),
                    ys[leaf[0]],
                    max(map(x_of, leaf)),
                    ys[leaf[-1]],
                    lo,
                    at,
                )
            stacked.append((slot, first, len(self._lo)))
        self._leaves = len(self._lo)
        for slot, first, end in stacked:
            roots[slot] = self._stack_levels(list(range(first, end)))

    @classmethod
    def build(
        cls, dataset: Iterable[SpatialObject], max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> "KeywordTreeIndex":
        """Index every object of ``dataset`` (a ``Dataset`` or any object list)."""
        return cls(dataset, max_entries)

    # -- construction helpers -------------------------------------------------

    def _add_node(
        self, x0: float, y0: float, x1: float, y1: float, lo: int, hi: int
    ) -> None:
        self._x0.append(x0)
        self._y0.append(y0)
        self._x1.append(x1)
        self._y1.append(y1)
        self._lo.append(lo)
        self._hi.append(hi)

    def _stack_levels(self, level: List[int]) -> int:
        """STR-pack the nodes ``level`` into parents, level by level, to one root."""
        x0, y0, x1, y1 = self._x0, self._y0, self._x1, self._y1
        kids = self._kids

        # Twice the box centre: the same order, one operation less.
        def x_mid(node: int) -> float:
            return x0[node] + x1[node]

        def y_mid(node: int) -> float:
            return y0[node] + y1[node]

        while len(level) > 1:
            parents = []
            for group in _str_tiles(sorted(level, key=x_mid), self.max_entries, y_mid):
                lo = len(kids)
                kids.extend(group)
                parents.append(len(self._lo))
                self._add_node(
                    min(map(x0.__getitem__, group)),
                    min(map(y0.__getitem__, group)),
                    max(map(x1.__getitem__, group)),
                    max(map(y1.__getitem__, group)),
                    lo,
                    len(kids),
                )
            level = parents
        return level[0]

    # -- the stream -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._objects)

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, SpatialObject]]:
        """Objects carrying any keyword of ``keywords``, by ascending distance.

        One best-first heap over the roots of the query keywords' trees.
        Entries are keyed ``(hypot(px - x, py - y), 1, oid, rank)`` and
        nodes ``(mindist, 0, node, 0)`` (a root enters at 0.0): a node's
        key is a lower bound of its entries' distances and sorts before
        an entry at the same distance, so every entry at a distance is in the heap before the
        first of them pops and the stream has the total ``(distance,
        oid)`` order.  An object carrying several query keywords is an
        entry of each of their trees under bit-identical keys (its
        doubles are stored once), so its copies pop back to back and
        only the first is yielded.  ``within`` keeps only the objects in
        that closed disk; no solver passes it.
        """
        px = point.x
        py = point.y
        hypot = math.hypot
        heappush = heapq.heappush
        heappop = heapq.heappop
        xs, ys, oids, entries = self._xs, self._ys, self._oids, self._entries
        x0, y0, x1, y1 = self._x0, self._y0, self._x1, self._y1
        lo, hi, leaves, kids = self._lo, self._hi, self._leaves, self._kids
        ids, offsets, roots = self._keywords, self._offsets, self._roots
        heap: List[Tuple[float, int, int, int]] = []
        for k in keywords:
            slot = bisect_left(ids, k)
            if slot == len(ids) or ids[slot] != k:
                continue
            root = roots[slot]
            if root < 0:
                for r in entries[offsets[slot] : offsets[slot + 1]]:
                    heap.append((hypot(px - xs[r], py - ys[r]), 1, oids[r], r))
            else:
                heap.append((0.0, 0, root, 0))
        heapq.heapify(heap)
        objects = self._objects
        last = None
        while heap:
            dist, is_entry, tag, r = heappop(heap)
            if is_entry:
                if tag == last:
                    continue
                last = tag
                obj = objects[r]
                if within is None or within.contains(obj.location):
                    yield dist, obj
            elif tag < leaves:
                for r in entries[lo[tag] : hi[tag]]:
                    heappush(heap, (hypot(px - xs[r], py - ys[r]), 1, oids[r], r))
            else:
                for c in kids[lo[tag] : hi[tag]]:
                    # The clamped offsets from the point to the child's box.
                    dx = 0.0
                    if px < x0[c]:
                        dx = x0[c] - px
                    elif px > x1[c]:
                        dx = px - x1[c]
                    dy = 0.0
                    if py < y0[c]:
                        dy = y0[c] - py
                    elif py > y1[c]:
                        dy = py - y1[c]
                    heappush(heap, (hypot(dx, dy), 0, c, 0))

    # -- introspection ------------------------------------------------------------

    def height(self) -> int:
        """Levels of the tallest keyword tree (1 when every one is a leaf)."""
        tallest = 1
        for node in self._roots:
            h = 1
            while node >= self._leaves:
                node = self._kids[self._lo[node]]
                h += 1
            tallest = max(tallest, h)
        return tallest

    def all_objects(self) -> Iterator[SpatialObject]:
        return iter(self._objects)

    def check_invariants(self) -> None:
        """Raise AssertionError on any structural or summary violation."""
        objects = self._objects
        for rank, obj in enumerate(objects):
            # Exact mirror check: the columns hold the objects' own doubles.
            assert self._xs[rank] == obj.location.x, "x column diverges"
            assert self._ys[rank] == obj.location.y, "y column diverges"
            assert self._oids[rank] == obj.oid, "oid column diverges"
        expected: dict = {}
        for rank, obj in enumerate(objects):
            for k in obj.keywords:
                expected.setdefault(k, []).append(rank)
        assert list(self._keywords) == sorted(expected), "keyword slots drifted"
        assert len(self._offsets) == len(self._keywords) + 1
        for slot, k in enumerate(self._keywords):
            lo, hi = self._offsets[slot], self._offsets[slot + 1]
            held = sorted(self._entries[lo:hi])
            assert held == expected[k], "keyword %d's tree holds other objects" % k
            root = self._roots[slot]
            if root < 0:
                assert hi - lo <= self.max_entries, "oversized single leaf"
                continue
            assert root >= self._leaves, "a multi-leaf keyword's root is a leaf"
            # The root's leaves tile the keyword's entry range, once each.
            at = lo
            for leaf_lo, leaf_hi in sorted(self._leaf_ranges(root)):
                assert leaf_lo == at, "tree misses or repeats entries"
                at = leaf_hi
            assert at == hi, "tree misses entries"

    def _leaf_ranges(self, node: int) -> List[Tuple[int, int]]:
        """Check ``node``'s subtree; return its leaves' entry ranges."""
        lo, hi = self._lo[node], self._hi[node]
        assert 1 <= hi - lo <= self.max_entries, "node fanout out of range"
        box = (self._x0[node], self._y0[node], self._x1[node], self._y1[node])
        if node < self._leaves:
            for r in self._entries[lo:hi]:
                x, y = self._xs[r], self._ys[r]
                assert box[0] <= x <= box[2] and box[1] <= y <= box[3], (
                    "leaf MBR misses an entry"
                )
            return [(lo, hi)]
        ranges: List[Tuple[int, int]] = []
        for child in self._kids[lo:hi]:
            # Parents are made after their children, so the walk ends.
            assert child < node, "child id not below its parent"
            assert (
                box[0] <= self._x0[child]
                and box[1] <= self._y0[child]
                and self._x1[child] <= box[2]
                and self._y1[child] <= box[3]
            ), "loose internal MBR"
            ranges.extend(self._leaf_ranges(child))
        return ranges


def _str_tiles(items: List[int], cap: int, y_key) -> Iterator[List[int]]:
    """Cut ``items``, sorted by x, into STR tiles of at most ``cap``.

    Sort-Tile-Recursive: near-equal vertical slices of whole tiles, each
    sorted by ``y_key`` and cut into runs of ``cap``.
    """
    n = len(items)
    tiles = -(-n // cap)
    size = cap * -(-tiles // math.ceil(math.sqrt(tiles)))
    for start in range(0, n, size):
        band = sorted(items[start : start + size], key=y_key)
        for run in range(0, len(band), cap):
            yield band[run : run + cap]
