"""The sharded spatial-textual index: N keyword-tree indexes behind one facade.

:class:`ShardedIndex` STR-partitions a dataset (:mod:`repro.shard.partition`)
and builds one :class:`~repro.index.keyword_trees.KeywordTreeIndex` per
tile.  The facade conforms to :class:`~repro.index.protocol.SpatialTextIndex`,
so every registered solver runs over it unchanged; the differential
matrix's facade cells (``tests/test_differential_shard.py``) assert the
answers are bit-identical to a single index over the same data.

The index protocol is one stream, and the facade keeps its single-tree
contract with one merge discipline: ``nearest_relevant_iter`` is a lazy
k-way merge in which each shard enters the heap as a *stub* keyed by its
MBR lower bound and is only expanded — its tree traversal started — when
that bound reaches the front.  A shard the query never gets close to is
never touched, and the merged stream keeps the shards' total
``(distance, oid)`` order, so ``N(q)`` and every ``NN(p, t)`` read from
it tie-break exactly as on one tree.

Thread safety: the shards, trees and summaries are immutable after
``build`` and shared read-only across request threads; the only mutable
state is the observability counter block, guarded by one ``RLock`` and
excluded from pickling (forked workers start with fresh counters).
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.keyword_trees import DEFAULT_MAX_ENTRIES, KeywordTreeIndex
from repro.index.signatures import mask_of
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.shard.partition import ShardSummary, str_partition, summarize

__all__ = ["DEFAULT_NUM_SHARDS", "Shard", "ShardedIndex", "ShardedIndexFactory"]

#: Default shard count for ``--shards`` flags that take a bare toggle.
DEFAULT_NUM_SHARDS = 8


class Shard:
    """One tile: its index and its read-only pruning summary."""

    __slots__ = ("shard_id", "tree", "summary", "probe")

    def __init__(self, shard_id: int, tree: KeywordTreeIndex, summary: ShardSummary):
        self.shard_id = shard_id
        self.tree = tree
        self.summary = summary
        # The stream's setup row: MBR corners, keyword mask, id and tree
        # unpacked once, so neither the setup loop nor a restricted view
        # does attribute chasing.
        mbr = summary.mbr
        self.probe: Tuple[float, float, float, float, int, int, KeywordTreeIndex] = (
            mbr.min_x,
            mbr.min_y,
            mbr.max_x,
            mbr.max_y,
            summary.kw_mask,
            shard_id,
            tree,
        )

    def __repr__(self) -> str:
        return "Shard(%d, %d objects)" % (self.shard_id, self.summary.count)


class _ShardStats:
    """RLock-guarded observability counters (the facade's only mutable state)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counts: Dict[str, int] = {}

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[counter] = self._counts.get(counter, 0) + amount

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __getstate__(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __setstate__(self, state: Dict[str, int]) -> None:
        self._lock = threading.RLock()
        self._counts = dict(state)


class ShardedIndex:
    """A :class:`SpatialTextIndex` facade over STR-partitioned indexes."""

    def __init__(self, shards: Sequence[Shard], num_shards_requested: int):
        self._shards: Tuple[Shard, ...] = tuple(shards)
        self.num_shards_requested = num_shards_requested
        self._size = sum(shard.summary.count for shard in self._shards)
        self.stats = _ShardStats()
        self._probe = tuple(shard.probe for shard in self._shards)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        num_shards: int = DEFAULT_NUM_SHARDS,
    ) -> "ShardedIndex":
        """STR-partition ``dataset`` and index each tile's member oids."""
        tiles = str_partition(dataset, num_shards)
        shards = [
            Shard(
                shard_id,
                KeywordTreeIndex(dataset, max_entries, members),
                summarize(shard_id, dataset, members),
            )
            for shard_id, members in enumerate(tiles)
        ]
        return cls(shards, num_shards_requested=num_shards)

    def restricted(self, shard_ids: Sequence[int]) -> "ShardedIndex":
        """A facade over a subset of shards (trees and summaries shared).

        The restricted view gets its own stats block; the shard objects
        themselves are the originals — no data is copied.
        """
        keep = frozenset(shard_ids)
        unknown = keep - {shard.shard_id for shard in self._shards}
        if unknown:
            raise InvalidParameterError(
                "unknown shard ids %s" % sorted(unknown)
            )
        view = ShardedIndex(
            [shard for shard in self._shards if shard.shard_id in keep],
            num_shards_requested=self.num_shards_requested,
        )
        return view

    # -- shard surface (read by the scatter-gather engine) -------------------

    @property
    def shards(self) -> Tuple[Shard, ...]:
        return self._shards

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def summaries(self) -> List[ShardSummary]:
        return [shard.summary for shard in self._shards]

    # -- SpatialTextIndex protocol -------------------------------------------

    def __len__(self) -> int:
        return self._size

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, int, int]]:
        """Ascending-distance merge of the shards' ``(distance, oid, mask)`` streams.

        Heap entries are ``(key, kind, tiebreak, payload)`` where a stub
        (``kind=0``, tiebreak ``shard_id``) holds the un-started shard
        traversal and an entry (``kind=1``, tiebreak the item's ``oid``)
        holds one pulled item, passed through unchanged, plus its
        generator.  Shard ids and oids are unique,
        so the first three fields are always a unique sort key and the
        payloads are never compared.  A popped object's key is a lower
        bound for every remaining heap element, and a stub sorts before
        an entry at the same key, so the merged stream has the shards'
        own ``(distance, oid)`` order.

        The setup loop is kept lean: shard bounds are exact
        point-to-rectangle distances via inlined clamped-offset ``hypot``
        (admissible — every shard object is at least that far from the
        anchor), a shard whose keyword union misses ``keywords`` or whose
        rectangle lies strictly outside the closed ``within`` disk is
        skipped (its objects would all fail the traversal's tests), and
        when exactly one shard survives the merge is the identity, so the
        traversal is handed over wholesale with no heap at all.
        """
        q_mask = mask_of(keywords)
        px = point.x
        py = point.y
        hypot = math.hypot
        if within is not None:
            wx = within.center.x
            wy = within.center.y
            w_radius = within.radius
        live: List[Tuple[float, int, KeywordTreeIndex]] = []
        for min_x, min_y, max_x, max_y, kw_mask, shard_id, tree in self._probe:
            if not kw_mask & q_mask:
                continue
            if within is not None:
                dx = min_x - wx if wx < min_x else (wx - max_x if wx > max_x else 0.0)
                dy = min_y - wy if wy < min_y else (wy - max_y if wy > max_y else 0.0)
                if hypot(dx, dy) > w_radius:  # repro: noqa(R8) — exact rectangle-vs-disk test matching the tree's strict membership
                    continue
            dx = min_x - px if px < min_x else (px - max_x if px > max_x else 0.0)
            dy = min_y - py if py < min_y else (py - max_y if py > max_y else 0.0)
            live.append((hypot(dx, dy), shard_id, tree))  # repro: noqa(R8) — inlined exact rectangle bound (hot path, see docstring)
        stats = self.stats
        stats.bump("relevant_iter_calls")
        if not live:
            return
        if len(live) == 1:
            stats.bump("relevant_iter_shards_expanded")
            yield from live[0][2].nearest_relevant_iter(point, keywords, within=within)
            return
        heap: List[Tuple[float, int, int, object]] = [
            (bound, 0, shard_id, tree) for bound, shard_id, tree in live
        ]
        heapq.heapify(heap)
        while heap:  # repro: noqa(R11) — bounded k-way merge; budget hooks live in the consuming solver
            key, kind, _, payload = heapq.heappop(heap)
            if kind == 0:
                stats.bump("relevant_iter_shards_expanded")
                stream = payload.nearest_relevant_iter(  # type: ignore[union-attr]
                    point, keywords, within=within
                )
                first = next(stream, None)
                if first is not None:
                    heapq.heappush(heap, (first[0], 1, first[1], (first, stream)))
                continue
            (item, stream) = payload  # type: ignore[misc]
            yield item
            after = next(stream, None)
            if after is not None:
                heapq.heappush(heap, (after[0], 1, after[1], (after, stream)))

    # -- diagnostics ---------------------------------------------------------

    def height(self) -> int:
        return max((shard.tree.height() for shard in self._shards), default=1)

    def all_objects(self) -> Iterator[SpatialObject]:
        for shard in self._shards:
            yield from shard.tree.all_objects()

    def check_invariants(self) -> None:
        """Per-shard tree invariants plus the partition invariants."""
        seen: Dict[int, int] = {}
        for shard in self._shards:
            shard.tree.check_invariants()
            summary = shard.summary
            assert summary.count == len(shard.tree), "summary count drifted"
            keywords: set = set()
            for obj in shard.tree.all_objects():
                assert summary.mbr.contains_point(obj.location), (
                    "object %d escapes its shard MBR" % obj.oid
                )
                assert obj.oid not in seen, (
                    "object %d appears in shards %d and %d"
                    % (obj.oid, seen[obj.oid], shard.shard_id)
                )
                seen[obj.oid] = shard.shard_id
                keywords.update(obj.keywords)
            assert mask_of(keywords) == summary.kw_mask, "summary mask drifted"
        assert len(seen) == self._size, "facade size drifted"

    def __repr__(self) -> str:
        return "ShardedIndex(%d shards, %d objects)" % (
            len(self._shards),
            self._size,
        )


class ShardedIndexFactory:
    """An ``index_cls`` stand-in binding a shard count.

    :class:`~repro.algorithms.base.SearchContext` builds its index via
    ``index_cls.build(dataset)``; an instance of this class slots into
    that call while carrying ``num_shards``, so the sharded backend needs
    no SearchContext changes.  Instances are tiny and picklable — they
    ride inside :class:`~repro.parallel.spec.WorkerEnv` derived state
    into pool workers.
    """

    def __init__(self, num_shards: int = DEFAULT_NUM_SHARDS):
        if num_shards < 1:
            raise InvalidParameterError("num_shards must be >= 1")
        self.num_shards = num_shards

    def build(self, dataset: Dataset) -> ShardedIndex:
        return ShardedIndex.build(dataset, num_shards=self.num_shards)

    def __repr__(self) -> str:
        return "ShardedIndexFactory(num_shards=%d)" % self.num_shards
