"""Unified-E: one exact entry point for every unified-cost setting.

Extension module (DESIGN.md §6).  Dispatches each cost to the strongest
exact machinery available for its structure:

- MAX query aggregate (maxsum, dia, max) → the distance owner-driven
  engine of the core paper;
- pure Sum (additive, pairwise-free)      → the keyword-mask Dijkstra;
- everything else (summax, minmax, …)     → generic best-first
  branch-and-bound.

This mirrors how a unified system would serve arbitrary cost settings
while the structurally special ones keep their fast paths.
"""

from __future__ import annotations

from repro.algorithms.base import CoSKQAlgorithm, SearchContext
from repro.algorithms.cao_exact import BranchBoundExact
from repro.algorithms.owner_exact import OwnerDrivenExact
from repro.algorithms.sum_algorithms import SumExact
from repro.cost.base import CostFunction, QueryAggregate
from repro.cost.functions import SumCost
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["UnifiedExact", "make_exact_solver"]


def make_exact_solver(context: SearchContext, cost: CostFunction) -> CoSKQAlgorithm:
    """The strongest exact solver for this cost's structure."""
    if cost.query_aggregate is QueryAggregate.MAX:
        return OwnerDrivenExact(context, cost)
    if isinstance(cost, SumCost):
        return SumExact(context, cost)
    return BranchBoundExact(context, cost)


class UnifiedExact(CoSKQAlgorithm):
    """Structure-dispatching exact solver for any library cost."""

    name = "unified-exact"
    exact = True

    def __init__(self, context: SearchContext, cost: CostFunction):
        super().__init__(context, cost)
        self._delegate = make_exact_solver(context, cost)

    @property
    def delegate(self) -> CoSKQAlgorithm:
        """The solver this cost was dispatched to (for introspection)."""
        return self._delegate

    def solve(self, query: Query) -> CoSKQResult:  # repro: noqa(R5) — delegate resets
        inner = self._delegate.solve(query)
        self.counters = dict(self._delegate.counters)
        return CoSKQResult.of(
            inner.objects, inner.cost, self.name, counters=dict(self.counters)
        )
