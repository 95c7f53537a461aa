"""Algorithms for the Sum cost (extension; Cao et al.'s third cost).

The Sum cost ``Σ_{o∈S} d(o, q)`` is additive over objects, which changes
the complexity landscape completely:

- :class:`SumExact` is a Dijkstra-style dynamic program over keyword
  bitmasks: a state is the set of covered query keywords, transitions add
  one relevant object, and the additive cost makes the first settlement
  of the full mask optimal.  Exponential in ``|q.ψ|`` only through the
  2^|q.ψ| mask space — polynomial in the dataset.
- :class:`SumGreedy` is the classical weighted-set-cover greedy (pick the
  object minimizing distance per newly covered keyword), carrying the
  ``H_{|q.ψ|}`` approximation guarantee.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Tuple

from repro.algorithms.base import CoSKQAlgorithm, SearchContext
from repro.cost.functions import SumCost
from repro.index.signatures import mask_of
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["SumExact", "SumGreedy"]


class _SumBase(CoSKQAlgorithm):
    """Shared setup: default cost and per-query candidate preparation."""

    def __init__(self, context: SearchContext, cost: SumCost | None = None):
        super().__init__(context, cost if cost is not None else SumCost())

    def _prepared(self, query: Query) -> List[Tuple[SpatialObject, float, int]]:
        """Relevant objects with their query distance and keyword mask.

        Objects whose relevant-keyword trace is dominated by a strictly
        cheaper object with a superset trace can never appear in an
        optimal Sum solution; deduplicating identical traces to the
        cheapest carrier is the cheap version of that pruning applied
        here.
        """
        self.context.check_feasible(query)
        # Global signature masks (repro.index.signatures): the trace key
        # is the object's keyword mask restricted to the query mask — a
        # bijective relabeling of the old per-query bit compilation, so
        # the same traces collapse to the same cheapest carrier.
        q_mask = mask_of(query.keywords)
        best_by_trace: Dict[int, Tuple[float, SpatialObject]] = {}
        for obj in self.context.dataset.relevant_objects(query.keywords):
            mask = mask_of(obj.keywords) & q_mask
            dist = query.location.distance_to(obj.location)
            cur = best_by_trace.get(mask)
            if cur is None or (dist, obj.oid) < (cur[0], cur[1].oid):
                best_by_trace[mask] = (dist, obj)
        return [(obj, dist, mask) for mask, (dist, obj) in best_by_trace.items()]


class SumExact(_SumBase):
    """Exact Sum-cost CoSKQ via Dijkstra over keyword masks."""

    name = "sum-exact"
    exact = True

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        candidates = self._prepared(query)
        full_mask = mask_of(query.keywords)
        counter = itertools.count()
        best_cost: Dict[int, float] = {0: 0.0}
        heap: List[Tuple[float, int, int, Tuple[SpatialObject, ...]]] = [
            (0.0, next(counter), 0, ())
        ]
        while heap:
            self._checkpoint()
            cost_so_far, _, mask, chosen = heapq.heappop(heap)
            if cost_so_far > best_cost.get(mask, float("inf")):
                continue  # stale entry
            self._bump("states_settled")
            if mask == full_mask:
                return self._result(list(chosen), cost_so_far)
            for obj, dist, obj_mask in candidates:
                new_mask = mask | obj_mask
                if new_mask == mask:
                    continue
                new_cost = cost_so_far + dist
                if new_cost < best_cost.get(new_mask, float("inf")):
                    best_cost[new_mask] = new_cost
                    heapq.heappush(
                        heap, (new_cost, next(counter), new_mask, chosen + (obj,))
                    )
        raise AssertionError("feasible query must settle the full mask")


class SumGreedy(_SumBase):
    """``H_{|q.ψ|}``-approximate Sum-cost CoSKQ (weighted set cover)."""

    name = "sum-greedy"
    exact = False

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        candidates = self._prepared(query)
        full_mask = mask_of(query.keywords)
        mask = 0
        chosen: List[SpatialObject] = []
        total = 0.0
        while mask != full_mask:
            best = None
            best_key = None
            for obj, dist, obj_mask in candidates:
                gained = (obj_mask | mask) & ~mask
                if not gained:
                    continue
                key = (dist / gained.bit_count(), obj.oid)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (obj, dist, obj_mask)
            assert best is not None, "feasible query must keep making progress"
            obj, dist, obj_mask = best
            self._bump("greedy_picks")
            chosen.append(obj)
            total += dist
            mask |= obj_mask
        return self._result(chosen, total)
