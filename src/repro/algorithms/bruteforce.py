"""Brute-force exact CoSKQ solver — the testing oracle.

Enumerates every irredundant cover of the query keywords over the
relevant objects and scores it with the configured cost function.  For
MIN-aggregate costs it additionally tries extending each cover by one
extra relevant object strictly nearer the query than the cover's nearest
member, since such a redundant-but-close object can lower the query
component there (at most one extra can ever help: only the closest
chosen object contributes, and further extras merely inflate the
diameter; an extra no nearer leaves the query component as it was and
can only grow the diameter, so it never lowers the cost).

Exponential; only usable on the small instances the property tests build,
which is its entire purpose.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms.base import CoSKQAlgorithm
from repro.algorithms.cover import iter_covers
from repro.cost.base import QueryAggregate
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["BruteForceExact"]


class BruteForceExact(CoSKQAlgorithm):
    """Exhaustive search over irredundant covers (plus MIN-cost extras)."""

    name = "bruteforce"
    exact = True

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        self.context.check_feasible(query)
        relevant = self.context.dataset.relevant_objects(query.keywords)
        best: Optional[List] = None
        best_cost = float("inf")
        handles_min = self.cost.query_aggregate is QueryAggregate.MIN
        for cover in iter_covers(query.keywords, relevant):
            self._bump("covers_enumerated")
            cost_value = self._evaluate(query, cover)
            if cost_value < best_cost:
                best_cost = cost_value
                best = list(cover)
            if handles_min:
                # d(o, q) as the cost's query component computes it.
                here = query.location
                nearest = min(here.distance_to(o.location) for o in cover)
                for extra in relevant:
                    # A cover member is never strictly nearer than itself.
                    if not here.distance_to(extra.location) < nearest:
                        continue
                    extended = cover + [extra]
                    cost_value = self._evaluate(query, extended)
                    if cost_value < best_cost:
                        best_cost = cost_value
                        best = extended
        assert best is not None, "feasible query must yield at least one cover"
        return self._result(best, best_cost)
