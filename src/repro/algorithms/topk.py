"""Top-k CoSKQ: the k cheapest feasible sets (extension).

Cao et al. (TODS 2015) study a top-k variation of CoSKQ — instead of one
optimal set, report the ``k`` best distinct sets so a user can choose
among near-optimal alternatives.  This module provides it for every
*monotone* cost (SUM/MAX query aggregates) on top of the best-first
branch-and-bound machinery:

- partial covers are expanded in admissible-lower-bound order;
- for monotone costs a completed cover's bound *is* its true cost, so
  completed covers pop from the frontier in true cost order;
- the first ``k`` distinct completed covers popped are therefore exactly
  the top-k among irredundant covers (sets where every member contributed
  a new keyword when added — supersets padded with useless objects are
  not enumerated, matching what a user would want listed).

MIN-aggregate costs are rejected: their bound is not the partial cost and
the "one extra close object" trick used for the single-best search does
not give a total order over completions.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Tuple

from repro.algorithms.base import CoSKQAlgorithm, SearchContext
from repro.cost.base import CostFunction, QueryAggregate
from repro.errors import BudgetExceededError, InvalidParameterError
from repro.index.signatures import bits_of, mask_of
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["TopKCoSKQ"]


class TopKCoSKQ(CoSKQAlgorithm):
    """Enumerate the k cheapest distinct feasible sets in cost order."""

    name = "topk"
    exact = True

    #: Frontier-size safety valve.
    max_expansions = 2_000_000

    def __init__(self, context: SearchContext, cost: CostFunction, k: int = 3):
        if cost.query_aggregate is QueryAggregate.MIN:
            raise InvalidParameterError(
                "top-k CoSKQ supports monotone costs only (SUM/MAX aggregates)"
            )
        if k < 1:
            raise InvalidParameterError("k must be at least 1")
        super().__init__(context, cost)
        self.k = k

    def solve(self, query: Query) -> CoSKQResult:  # repro: noqa(R5) — solve_topk resets
        """The best set; use :meth:`solve_topk` for the full ranking."""
        return self.solve_topk(query)[0]

    def solve_topk(self, query: Query) -> List[CoSKQResult]:
        """The k cheapest distinct feasible sets, ascending by cost.

        Returns fewer than k results when fewer distinct irredundant
        covers exist.
        """
        self._reset_counters()
        self.context.check_feasible(query)
        relevant = self.context.dataset.relevant_objects(query.keywords)
        qdist = {o.oid: query.location.distance_to(o.location) for o in relevant}
        # Keyword bookkeeping runs on signature bitmasks throughout: the
        # mask↔set bijection makes every cover test, branch choice and
        # uncovered-set update identical to the frozenset algebra this
        # replaces, and heap states carry a machine int instead of a
        # frozenset (the unique tiebreak counter means the covered field
        # is never compared).
        q_mask = mask_of(query.keywords)
        omask = {o.oid: mask_of(o.keywords) for o in relevant}
        by_keyword: Dict[int, List] = {t: [] for t in query.keywords}
        for obj in relevant:
            for t in bits_of(omask[obj.oid] & q_mask):
                by_keyword[t].append(obj)
        for lst in by_keyword.values():
            lst.sort(key=lambda o: (qdist[o.oid], o.oid))
        nn_dist = {t: qdist[by_keyword[t][0].oid] for t in query.keywords}

        counter = itertools.count()
        # state: (lb, tiebreak, chosen tuple, covered mask, qsum, qmax, diam)
        heap: List[Tuple[float, int, tuple, int, float, float, float]] = [
            (0.0, next(counter), (), 0, 0.0, 0.0, 0.0)
        ]
        found: List[CoSKQResult] = []
        seen: set = set()
        expansions = 0
        while heap and len(found) < self.k:
            self._checkpoint()
            lb, _, chosen, covered, qsum, qmax, diam = heapq.heappop(heap)
            if not q_mask & ~covered:
                key = frozenset(o.oid for o in chosen)
                if key in seen:
                    continue
                seen.add(key)
                self._bump("sets_emitted")
                found.append(
                    CoSKQResult.of(chosen, lb, self.name, counters=dict(self.counters))
                )
                continue
            expansions += 1
            self._bump("states_expanded")
            if expansions > self.max_expansions:
                raise BudgetExceededError(
                    "states_expanded",
                    self.max_expansions,
                    expansions,
                    counters=self.counters,
                )
            pending_rest = q_mask & ~covered
            branch = min(
                bits_of(pending_rest), key=lambda t: (len(by_keyword[t]), t)
            )
            chosen_ids = {o.oid for o in chosen}
            for obj in by_keyword[branch]:
                if obj.oid in chosen_ids:
                    continue
                d = qdist[obj.oid]
                new_diam = diam
                for member in chosen:
                    pair = obj.location.distance_to(member.location)
                    if pair > new_diam:
                        new_diam = pair
                new_qsum = qsum + d
                new_qmax = max(qmax, d)
                new_covered = covered | (omask[obj.oid] & q_mask)
                uncovered = pending_rest & ~omask[obj.oid]
                pending = max((nn_dist[t] for t in bits_of(uncovered)), default=0.0)
                if self.cost.query_aggregate is QueryAggregate.SUM:
                    q_bound = new_qsum + (pending if uncovered else 0.0)
                else:
                    q_bound = max(new_qmax, pending)
                child_lb = self.cost.combine(q_bound, new_diam)
                if math.isfinite(child_lb):
                    heapq.heappush(
                        heap,
                        (
                            child_lb,
                            next(counter),
                            chosen + (obj,),
                            new_covered,
                            new_qsum,
                            new_qmax,
                            new_diam,
                        ),
                    )
        if not found:
            raise AssertionError("feasible query must yield at least one set")
        return found
