"""Mask-restricted scatter-gather over a :class:`ShardedIndex`.

:class:`ScatterGather` wraps any registry solver.  Per query it drops
every shard whose keyword union misses all query keywords (the *mask
rule*) and runs a fresh instance of the solver over a restricted facade
of the rest.  Solvers only ever retrieve *relevant* objects from the
spatial index, so the restriction is invisible to them and the answer is
bit-identical to the single-index baseline.

Distance pruning is the facade's own: its stream is a lazy merge that
expands a shard only when the shard's MBR bound reaches the front of the
heap, and an owner-driven solver stops reading at its incumbent cost, so
shards beyond the incumbent are never expanded (docs/SHARDING.md).
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import CoSKQAlgorithm, SearchContext
from repro.algorithms.registry import make_algorithm
from repro.cost.base import CostFunction
from repro.errors import InvalidParameterError
from repro.index.signatures import mask_of, overlaps
from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.shard.index import ShardedIndex

__all__ = ["ScatterGather"]


class ScatterGather(CoSKQAlgorithm):  # repro: noqa(R1) — wrapper, not a registry solver; exact/name mirror the wrapped solver's in __init__
    """Run a registry solver over the mask-relevant shards of a sharded index."""

    def __init__(
        self,
        context: SearchContext,
        algorithm: str,
        cost: Optional[CostFunction] = None,
    ):
        if not isinstance(context.index, ShardedIndex):
            raise InvalidParameterError(
                "ScatterGather needs a SearchContext over a ShardedIndex; "
                "got %r" % type(context.index).__name__
            )
        # Instantiated once to resolve the effective cost and exactness
        # (registry defaults included); per-query solves use a fresh
        # instance over the restricted facade.
        probe = make_algorithm(algorithm, context, cost)
        super().__init__(context, probe.cost)
        self.algorithm = algorithm
        self.exact = probe.exact
        self.ratio = probe.ratio
        self.ratio_cost = probe.ratio_cost
        self.name = probe.name

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        index: ShardedIndex = self.context.index  # type: ignore[assignment]
        shards = index.shards
        q_mask = mask_of(query.keywords)
        relevant = [
            shard.shard_id
            for shard in shards
            if overlaps(q_mask, shard.summary.kw_mask)
        ]
        self._bump("shards_total", len(shards))
        self._bump("shards_pruned_mask", len(shards) - len(relevant))
        self._bump("shards_scanned", len(relevant))

        inner = make_algorithm(
            self.algorithm,
            self.context.with_index(index.restricted(relevant)),
            self.cost,
        )
        inner.budget = self.budget
        result = inner.solve(query)
        merged = dict(result.counters)
        for counter, amount in self.counters.items():
            merged[counter] = merged.get(counter, 0) + amount
        return CoSKQResult.of(
            result.objects, result.cost, result.algorithm, counters=merged
        )
