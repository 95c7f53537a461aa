"""Spatial sharding: STR-partitioned indexes + mask-restricted scatter-gather.

Public surface (docs/SHARDING.md):

- :func:`~repro.shard.partition.str_partition` /
  :class:`~repro.shard.partition.ShardSummary` — the partitioner and the
  per-shard pruning summary;
- :class:`~repro.shard.index.ShardedIndex` — a
  :class:`~repro.index.protocol.SpatialTextIndex`-conforming facade over
  the shards, so every registered solver runs unchanged;
- :class:`~repro.shard.index.ShardedIndexFactory` — an ``index_cls``
  stand-in for :class:`~repro.algorithms.base.SearchContext` binding a
  shard count;
- :class:`~repro.shard.engine.ScatterGather` — the query engine that
  drops shards whose keyword union misses the query and runs the inner
  solver over the rest, bit-identical to the single-index baseline.
"""

from repro.shard.engine import ScatterGather
from repro.shard.index import (
    DEFAULT_NUM_SHARDS,
    Shard,
    ShardedIndex,
    ShardedIndexFactory,
)
from repro.shard.partition import ShardSummary, str_partition, summarize

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "ScatterGather",
    "Shard",
    "ShardedIndex",
    "ShardedIndexFactory",
    "ShardSummary",
    "str_partition",
    "summarize",
]
