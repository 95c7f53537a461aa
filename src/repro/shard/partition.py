"""STR spatial partitioning into keyword-summarized shards.

The sharded index (:mod:`repro.shard.index`) splits a dataset into a
grid of spatial tiles with the Sort-Tile-Recursive discipline the
keyword trees are packed with (:mod:`repro.index.keyword_trees`, applied
once at shard granularity instead of leaf granularity): sort by ``x``
into near-equal vertical slices, then sort each slice by ``y`` and cut
it into near-equal tiles.  Every object lands in exactly one tile, and
tiles are spatially compact — which is what makes the per-shard MBR a
useful pruning bound.

Tiles are lists of oids, cut from the dataset's coordinate columns, so
no per-object Python object is built.  Each shard carries a
:class:`ShardSummary`: its MBR, its keyword union
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
from typing import List, Sequence, Set

from repro.errors import InvalidParameterError
from repro.geometry.mbr import MBR
from repro.index.signatures import mask_of
from repro.model.dataset import Dataset

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


def str_partition(dataset: Dataset, num_shards: int) -> List[List[int]]:
    """Split the oids of ``dataset`` into ``min(num_shards, len(dataset))`` STR tiles.

    Slices are cut in ``(x, y, oid)`` order and tiles in ``(y, x, oid)``
    order, each from stable sorts over the coordinate columns, so ties
    in coordinates are broken by oid and the partition is a pure
    function of the object set.
    """
    if num_shards < 1:
        raise InvalidParameterError("num_shards must be >= 1")
    n = len(dataset)
    if not n:
        return []
    x_of = dataset.xs.__getitem__
    y_of = dataset.ys.__getitem__
    shards_wanted = min(num_shards, n)
    slices = max(1, round(math.sqrt(shards_wanted)))  # repro: noqa(R8) — tile-grid arithmetic, not a distance
    # Stable sorts, last key first.
    by_x = list(range(n))
    by_x.sort(key=y_of)
    by_x.sort(key=x_of)
    slice_sizes = _near_equal_cuts(n, slices)
    tile_counts = _near_equal_cuts(shards_wanted, slices)
    shards: List[List[int]] = []
    start = 0
    for slice_size, tiles in zip(slice_sizes, tile_counts):
        band = sorted(by_x[start : start + slice_size])
        band.sort(key=x_of)
        band.sort(key=y_of)
        start += slice_size
        if tiles == 0:
            continue
        cut = 0
        for tile_size in _near_equal_cuts(len(band), tiles):
            shards.append(band[cut : cut + tile_size])
            cut += tile_size
    return shards


def summarize(shard_id: int, dataset: Dataset, members: Sequence[int]) -> ShardSummary:
    """The pruning summary of one shard (a non-empty list of member oids)."""
    if not members:
        raise InvalidParameterError("cannot summarize an empty shard")
    xs = [dataset.xs[oid] for oid in members]
    ys = [dataset.ys[oid] for oid in members]
    keywords: Set[int] = set()
    for oid in members:
        keywords.update(dataset.keywords_of(oid))
    return ShardSummary(
        shard_id=shard_id,
        mbr=MBR(min(xs), min(ys), max(xs), max(ys)),
        kw_mask=mask_of(keywords),
        count=len(members),
    )
