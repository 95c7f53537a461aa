"""Unified-A: one approximate algorithm for every unified-cost setting.

Extension module (DESIGN.md §6).  The follow-up literature observes that
the owner-driven approximation generalizes: iterate candidates for the
*key query-object distance contributor* (the object whose query distance
decides the query component — the farthest member for MAX and SUM
aggregates, the nearest for MIN), and complete each candidate into a
feasible set with a per-aggregate greedy:

- MAX / MIN aggregates: add the candidate nearest *to the contributor*
  covering an uncovered keyword — keeps the diameter term small;
- SUM aggregate: add the candidate with the best distance-per-new-keyword
  ratio inside the contributor's disk — the weighted-set-cover greedy
  that keeps the sum term small.

Contributors come from the query's one index stream
(:class:`~repro.algorithms.owner_appro.OwnerStream`), which also yields
``N(q)`` and, as its prefix, each contributor's disk ``C(q, d)``.  Both
greedies order their picks by a ``(distance, oid)`` key, so the answer
does not depend on the order the candidates arrive in.

Proven ratios per instantiation are exported as
:data:`UNIFIED_APPRO_RATIO_BOUNDS` (the property tests check them
empirically against exact solvers):

========  =========
cost      ratio
========  =========
maxsum    1.375
dia       sqrt(3)
sum       H(|q.ψ|)
summax    H(|q.ψ|)
minmax    2
minmax2   2
max       1 (exact)
min       1 (exact)
========  =========
"""

from __future__ import annotations

import math
from typing import List

from repro.algorithms.base import CoSKQAlgorithm, NNSet
from repro.algorithms.owner_appro import OwnerStream, greedy_completion_near
from repro.cost.base import QueryAggregate
from repro.index.signatures import shared_keywords
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.utils.stats import harmonic_number

__all__ = ["UnifiedAppro", "UNIFIED_APPRO_RATIO_BOUNDS", "ratio_bound_for"]

UNIFIED_APPRO_RATIO_BOUNDS = {
    "maxsum": 1.375,
    "dia": math.sqrt(3.0),
    "minmax": 2.0,
    "minmax2": 2.0,
    "max": 1.0,
    "min": 1.0,
}


def ratio_bound_for(cost_name: str, query_size: int) -> float:
    """The proven Unified-A ratio for a cost name and query size."""
    if cost_name in ("sum", "summax"):
        return max(1.0, harmonic_number(query_size))
    return UNIFIED_APPRO_RATIO_BOUNDS.get(cost_name, math.inf)


class UnifiedAppro(CoSKQAlgorithm):
    """Key-contributor iteration + per-aggregate greedy completion."""

    name = "unified-appro"
    exact = False

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        stream = OwnerStream(self.context, query, self._checkpoint)
        nn = NNSet.from_stream(query, stream)
        best: List[SpatialObject] = list(nn.objects)
        best_cost = self._evaluate(query, best)
        aggregate = self.cost.query_aggregate
        # MIN contributors may sit arbitrarily close to the query; for
        # MAX/SUM the farthest member can never be inside C(q, d_f).
        min_contributor_dist = 0.0 if aggregate is QueryAggregate.MIN else nn.d_f
        for dist, contributor in stream:
            if dist < min_contributor_dist:
                continue
            if self.cost.combine(dist, 0.0) >= best_cost:
                break
            self._bump("contributors_tried")
            candidate = self._complete(query, stream, contributor, dist, aggregate)
            if candidate is None:
                continue
            cost_value = self._evaluate(query, candidate)
            if cost_value < best_cost:
                best_cost = cost_value
                best = candidate
        return self._result(best, best_cost)

    # -- completions -----------------------------------------------------------

    def _complete(
        self,
        query: Query,
        stream: OwnerStream,
        contributor: SpatialObject,
        dist: float,
        aggregate: QueryAggregate,
    ) -> List[SpatialObject] | None:
        uncovered = query.keywords - contributor.keywords
        if not uncovered:
            return [contributor]
        if aggregate is QueryAggregate.MIN:
            # Keep the contributor nearest: completion anywhere, chosen
            # close to the contributor to control the diameter.
            candidates = self.context.inverted.relevant_objects(uncovered)
        else:
            candidates = stream.in_disk(dist, stream.mask_of(uncovered))
        self._bump("candidates_scanned", len(candidates))
        if aggregate is QueryAggregate.SUM:
            completion = self._ratio_greedy(query, uncovered, candidates)
        else:
            completion = greedy_completion_near(contributor, uncovered, candidates)
        if completion is None:
            return None
        return [contributor] + completion

    def _ratio_greedy(
        self,
        query: Query,
        uncovered: frozenset,
        candidates: List[SpatialObject],
    ) -> List[SpatialObject] | None:
        """Weighted-set-cover greedy: cheapest distance per new keyword."""
        remaining = set(uncovered)
        chosen: List[SpatialObject] = []
        chosen_ids: set[int] = set()
        while remaining:
            self._checkpoint()
            best = None
            best_key = None
            for obj in candidates:
                if obj.oid in chosen_ids:
                    continue
                gained = shared_keywords(obj.keywords, remaining)
                if not gained:
                    continue
                key = (
                    query.location.distance_to(obj.location) / len(gained),
                    obj.oid,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = obj
            if best is None:
                return None
            chosen.append(best)
            chosen_ids.add(best.oid)
            remaining -= best.keywords
        return chosen
