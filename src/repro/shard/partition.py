"""STR spatial partitioning into keyword-summarized shards.

The sharded index (:mod:`repro.shard.index`) splits a dataset into a
grid of spatial tiles with the Sort-Tile-Recursive discipline the
keyword trees are packed with (:mod:`repro.index.keyword_trees`, applied
once at shard granularity instead of leaf granularity): sort by ``x``
into near-equal vertical slices, then sort each slice by ``y`` and cut
it into near-equal tiles.  Every object lands in exactly one tile, and
tiles are spatially compact — which is what makes the per-shard MBR a
useful pruning bound.

Each shard carries a :class:`ShardSummary`: its MBR, its keyword union
(as a signature mask) and its object count.  The summary is the *only*
thing the query engine reads before deciding to touch a shard, so it is
deliberately tiny and immutable — safe to share read-only across
request threads (docs/SHARDING.md).

Partition invariants (property-tested in ``tests/test_differential_shard.py``):

- every object is in exactly one shard;
- the realized shard count is exactly ``min(num_shards, len(objects))``
  and no shard is empty;
- each shard's MBR contains its members, and the union of shard MBRs
  equals the dataset extent;
- each summary's keyword union equals the OR of its member masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

from repro.errors import InvalidParameterError
from repro.geometry.mbr import MBR
from repro.index.signatures import mask_of
from repro.model.objects import SpatialObject

__all__ = ["ShardSummary", "str_partition", "summarize"]


@dataclass(frozen=True)
class ShardSummary:
    """The read-only pruning surface of one shard."""

    shard_id: int
    mbr: MBR
    kw_mask: int
    count: int


def _near_equal_cuts(total: int, parts: int) -> List[int]:
    """Sizes of ``parts`` contiguous chunks of ``total`` items.

    The remainder is spread over the *leading* chunks, so the split is
    monotone in ``total``: chunk ``i`` of a larger total is never
    smaller than chunk ``i`` of a smaller total with the same ``parts``
    — which is what guarantees below that every tile of every slice is
    non-empty whenever ``total >= parts``.
    """
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def str_partition(
    objects: Sequence[SpatialObject], num_shards: int
) -> List[List[SpatialObject]]:
    """Split ``objects`` into ``min(num_shards, len(objects))`` STR tiles.

    Ties in coordinates are broken by ``oid`` so the partition is a pure
    function of the object set (no dependence on input order).
    """
    if num_shards < 1:
        raise InvalidParameterError("num_shards must be >= 1")
    pool = list(objects)
    if not pool:
        return []
    shards_wanted = min(num_shards, len(pool))
    slices = max(1, round(math.sqrt(shards_wanted)))  # repro: noqa(R8) — tile-grid arithmetic, not a distance
    by_x = sorted(pool, key=lambda o: (o.location.x, o.location.y, o.oid))
    slice_sizes = _near_equal_cuts(len(pool), slices)
    tile_counts = _near_equal_cuts(shards_wanted, slices)
    shards: List[List[SpatialObject]] = []
    start = 0
    for slice_size, tiles in zip(slice_sizes, tile_counts):
        band = sorted(
            by_x[start : start + slice_size],
            key=lambda o: (o.location.y, o.location.x, o.oid),
        )
        start += slice_size
        if tiles == 0:
            continue
        cut = 0
        for tile_size in _near_equal_cuts(len(band), tiles):
            shards.append(band[cut : cut + tile_size])
            cut += tile_size
    return shards


def summarize(shard_id: int, members: Sequence[SpatialObject]) -> ShardSummary:
    """The pruning summary of one shard (non-empty member list)."""
    if not members:
        raise InvalidParameterError("cannot summarize an empty shard")
    keywords: FrozenSet[int] = frozenset().union(*(o.keywords for o in members))
    return ShardSummary(
        shard_id=shard_id,
        mbr=MBR.from_points(o.location for o in members),
        kw_mask=mask_of(keywords),
        count=len(members),
    )
