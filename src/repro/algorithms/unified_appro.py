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
from typing import List, Tuple

from repro.algorithms.base import CoSKQAlgorithm, NNSet
from repro.algorithms.owner_appro import OwnerStream, greedy_completion_near
from repro.cost.base import QueryAggregate
from repro.geometry.point import Point
from repro.index.signatures import query_bits
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
        nn = NNSet.from_stream(query, stream, self.context.dataset)
        best: List[SpatialObject] = list(nn.objects)
        best_cost = self._evaluate(query, best)
        aggregate = self.cost.query_aggregate
        # MIN contributors may sit arbitrarily close to the query; for
        # MAX/SUM the farthest member can never be inside C(q, d_f).
        min_contributor_dist = 0.0 if aggregate is QueryAggregate.MIN else nn.d_f
        for contributor, (dist, _, _) in enumerate(stream):
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
        contributor: int,
        dist: float,
        aggregate: QueryAggregate,
    ) -> List[SpatialObject] | None:
        """The contributor's set: stream entry ``contributor`` plus its completion."""
        dataset = self.context.dataset
        full = (1 << len(query.keywords)) - 1
        uncovered = full & ~stream.masks[contributor]
        if not uncovered:
            return stream.objects((contributor,))
        if aggregate is QueryAggregate.MIN:
            # Keep the contributor nearest: completion anywhere, chosen
            # close to the contributor to control the diameter.
            bits = query_bits(query.keywords)
            wanted = [t for t, bit in bits.items() if bit & uncovered]
            candidates = []
            for oid in dataset.relevant_oids(wanted):
                mask = 0
                for k in dataset.keywords_of(oid):
                    mask |= bits.get(k, 0)
                candidates.append((dataset.xs[oid], dataset.ys[oid], oid, mask))
        else:
            xs, ys, oids, masks = stream.xs, stream.ys, stream.oids, stream.masks
            candidates = [
                (xs[i], ys[i], oids[i], masks[i]) for i in stream.in_disk(dist, uncovered)
            ]
        self._bump("candidates_scanned", len(candidates))
        if aggregate is QueryAggregate.SUM:
            completion = self._ratio_greedy(query, uncovered, candidates)
        else:
            completion = greedy_completion_near(
                stream.xs[contributor], stream.ys[contributor], uncovered, candidates
            )
        if completion is None:
            return None
        return stream.objects((contributor,)) + [dataset[oid] for oid in completion]

    def _ratio_greedy(
        self,
        query: Query,
        remaining: int,
        candidates: List[Tuple[float, float, int, int]],
    ) -> List[int] | None:
        """Weighted-set-cover greedy: cheapest distance per new keyword.

        ``candidates`` are ``(x, y, oid, mask)`` rows; returns the chosen
        oids, or None when they cannot cover ``remaining``.
        """
        location = query.location
        chosen: List[int] = []
        while remaining:
            self._checkpoint()
            best = None
            best_key = None
            for x, y, oid, mask in candidates:
                gained = mask & remaining
                if not gained:
                    continue
                key = (location.distance_to(Point(x, y)) / gained.bit_count(), oid)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (oid, mask)
            if best is None:
                return None
            chosen.append(best[0])
            remaining &= ~best[1]
        return chosen
