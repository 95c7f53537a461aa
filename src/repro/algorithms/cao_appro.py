"""The baseline approximate algorithms of Cao et al. (SIGMOD 2011).

- :class:`CaoAppro1` returns the nearest-neighbor set ``N(q)`` — a
  3-approximation for the MaxSum cost: every member is within ``d_f`` of
  the query, so cost ≤ d_f + 2·d_f, while the optimum is at least d_f.
- :class:`CaoAppro2` refines it: let ``t_f`` be the keyword whose nearest
  carrier is farthest (the keyword forcing ``d_f``).  Some carrier of
  ``t_f`` belongs to every feasible set, so the algorithm iterates the
  carriers ``o`` of ``t_f`` in ascending ``d(o, q)`` and completes each
  with the per-keyword nearest neighbors ``NN(o, t)`` — each the first
  entry of a single-keyword stream from ``o`` — keeping the best: a
  2-approximation for MaxSum.

Both are cost-generic in implementation (they build feasible sets and
score them with whatever cost they are given), matching how the paper
adapts them as comparators for the Dia cost.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms.base import CoSKQAlgorithm
from repro.algorithms.nnset import NNSetAlgorithm
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["CaoAppro1", "CaoAppro2"]


class CaoAppro1(NNSetAlgorithm):
    """Cao et al.'s first approximation: ``N(q)`` (3-approx for MaxSum)."""

    name = "cao-appro1"
    ratio = 3.0
    ratio_cost = "maxsum"


class CaoAppro2(CoSKQAlgorithm):
    """Cao et al.'s second approximation (2-approx for MaxSum)."""

    name = "cao-appro2"
    exact = False
    ratio = 2.0
    ratio_cost = "maxsum"

    def solve(
        self, query: Query, initial_upper_bound: Optional[float] = None
    ) -> CoSKQResult:
        # ``initial_upper_bound`` is accepted for interface uniformity
        # and ignored: the 2-approximation argument is about this
        # search's own incumbent, not an external one.
        self._reset_counters()
        nn = self.context.nn_set(query)
        best: List[SpatialObject] = list(nn.objects)
        best_cost = self._evaluate(query, best)

        # The keyword whose nearest carrier is farthest (realizes d_f).
        t_f = max(query.keywords, key=lambda t: (nn.by_keyword[t][0], t))
        index = self.context.index
        for dist, owner in index.nearest_relevant_iter(
            query.location, frozenset((t_f,))
        ):
            if self.cost.combine(dist, 0.0) >= best_cost:
                break
            self._bump("carriers_tried")
            candidate = self._complete_with_keyword_nns(query, owner)
            if candidate is None:
                continue
            cost_value = self._evaluate(query, candidate)
            if cost_value < best_cost:
                best_cost = cost_value
                best = candidate
        return self._result(best, best_cost)

    def _complete_with_keyword_nns(
        self, query: Query, owner: SpatialObject
    ) -> List[SpatialObject] | None:
        """``{owner} ∪ { NN(owner, t) : t uncovered }`` (unrestricted NNs).

        ``NN(owner, t)`` is the first entry of the single-keyword stream
        from the owner, so ties go to the lowest oid.
        """
        chosen: List[SpatialObject] = [owner]
        uncovered = set(query.keywords - owner.keywords)
        index = self.context.index
        while uncovered:
            t = min(uncovered)
            hit = next(
                index.nearest_relevant_iter(owner.location, frozenset((t,))), None
            )
            if hit is None:
                return None
            _, obj = hit
            self._bump("nn_lookups")
            chosen.append(obj)
            uncovered -= obj.keywords
        return chosen
