"""The baseline exact algorithm: best-first branch-and-bound over sets.

Cao et al. (SIGMOD 2011) solve CoSKQ with the MaxSum cost by exhaustive
search over candidate object sets with cost-bound pruning.  This module
implements that style of baseline — the comparator the paper's
owner-driven MaxSum-Exact is evaluated against:

- a priority queue of partial sets ordered by an admissible cost lower
  bound (the true partial cost for monotone costs, plus a per-keyword
  completion bound),
- expansion branches on the rarest uncovered keyword,
- the incumbent starts from the ``N(q)`` approximation and prunes states
  whose bound already meets it.

The search space is the set space — exponential in ``|q.ψ|`` — which is
precisely why the owner-driven algorithm wins in the paper's running-time
figures.  It is generic over every cost in the library (for MIN-aggregate
costs a completed cover may additionally be extended by one extra close
object; see :mod:`repro.algorithms.bruteforce` for why one suffices).
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.algorithms.base import CoSKQAlgorithm
from repro.cost.base import QueryAggregate
from repro.errors import BudgetExceededError
from repro.index.signatures import covers_all, shared_keywords
from repro.kernels import max_distance_from
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["BranchBoundExact", "CaoExact"]


class _State:
    """A partial set on the branch-and-bound frontier.

    ``xs``/``ys`` mirror the chosen objects' coordinates as packed
    arrays so the incremental diameter in :meth:`extend` runs on flat
    doubles; the kernel tracks the same exact hypot maximum as a scalar
    loop over ``chosen``.
    """

    __slots__ = ("chosen", "covered", "qdist_sum", "qdist_max", "qdist_min", "diam", "xs", "ys")

    def __init__(self, chosen, covered, qdist_sum, qdist_max, qdist_min, diam, xs, ys):
        self.chosen: Tuple[SpatialObject, ...] = chosen
        self.covered: FrozenSet[int] = covered
        self.qdist_sum = qdist_sum
        self.qdist_max = qdist_max
        self.qdist_min = qdist_min
        self.diam = diam
        self.xs: array = xs
        self.ys: array = ys

    def extend(self, obj: SpatialObject, qdist: float, query_keywords: FrozenSet[int]) -> "_State":
        loc = obj.location
        new_diam = self.diam
        if len(self.xs):
            d = max_distance_from(loc.x, loc.y, self.xs, self.ys)
            if d > new_diam:
                new_diam = d
        new_xs = array("d", self.xs)
        new_xs.append(loc.x)
        new_ys = array("d", self.ys)
        new_ys.append(loc.y)
        return _State(
            chosen=self.chosen + (obj,),
            covered=self.covered | shared_keywords(obj.keywords, query_keywords),
            qdist_sum=self.qdist_sum + qdist,
            qdist_max=max(self.qdist_max, qdist),
            qdist_min=min(self.qdist_min, qdist),
            diam=new_diam,
            xs=new_xs,
            ys=new_ys,
        )


class BranchBoundExact(CoSKQAlgorithm):
    """Exact CoSKQ by best-first search over partial covers."""

    name = "bnb-exact"
    exact = True

    #: Safety valve for pathological instances; the benchmark harness
    #: lowers it so a blown-up baseline registers as DNF instead of
    #: stalling a whole sweep (the paper reports the same as ">10 hours").
    DEFAULT_MAX_EXPANSIONS = 5_000_000

    def __init__(self, context, cost, max_expansions: int | None = None):
        super().__init__(context, cost)
        self.max_expansions = (
            max_expansions if max_expansions is not None else self.DEFAULT_MAX_EXPANSIONS
        )
        # The frontier can grow by hundreds of children per expansion
        # (every carrier of the branch keyword), so memory — not time —
        # is what actually dies first on weakly-bounded costs like Dia.
        # Cap pushed states proportionally and fail loudly past it.
        self.max_pushes = 8 * self.max_expansions

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        nn = self.context.nn_set(query)
        incumbent: List[SpatialObject] = list(nn.objects)
        incumbent_cost = self._evaluate(query, incumbent)

        relevant = self.context.dataset.relevant_objects(query.keywords)
        qdist: Dict[int, float] = {
            o.oid: query.location.distance_to(o.location) for o in relevant
        }
        by_keyword: Dict[int, List[SpatialObject]] = {t: [] for t in query.keywords}
        for obj in relevant:
            for t in shared_keywords(obj.keywords, query.keywords):
                by_keyword[t].append(obj)
        for lst in by_keyword.values():
            lst.sort(key=lambda o: (qdist[o.oid], o.oid))
        # Cheapest possible query distance per keyword (= d(NN(q,t), q)).
        nn_dist = {t: qdist[by_keyword[t][0].oid] for t in query.keywords}
        global_min_qdist = min(qdist.values())

        aggregate = self.cost.query_aggregate
        counter = itertools.count()
        root = _State((), frozenset(), 0.0, 0.0, math.inf, 0.0, array("d"), array("d"))
        heap: List[Tuple[float, int, _State]] = [(0.0, next(counter), root)]
        expansions = 0
        pushes = 0
        while heap:
            lb, _, state = heapq.heappop(heap)
            if lb >= incumbent_cost:
                break  # best-first: nothing later can beat the incumbent
            if covers_all(query.keywords, state.covered):
                candidate = list(state.chosen)
                cost_value = self._evaluate(query, candidate)
                if cost_value < incumbent_cost:
                    incumbent_cost = cost_value
                    incumbent = candidate
                if aggregate is QueryAggregate.MIN:
                    extended = self._try_min_extras(query, candidate, relevant, qdist)
                    if extended is not None and extended[1] < incumbent_cost:
                        incumbent, incumbent_cost = list(extended[0]), extended[1]
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
            branch_keyword = min(
                query.keywords - state.covered,
                key=lambda t: (len(by_keyword[t]), t),
            )
            chosen_ids = {o.oid for o in state.chosen}
            for obj in by_keyword[branch_keyword]:
                if obj.oid in chosen_ids:
                    continue
                child = state.extend(obj, qdist[obj.oid], query.keywords)
                child_lb = self._lower_bound(
                    child, query, nn_dist, global_min_qdist
                )
                if child_lb < incumbent_cost:
                    pushes += 1
                    self._bump("states_pushed")
                    if pushes > self.max_pushes:
                        raise BudgetExceededError(
                            "states_pushed",
                            self.max_pushes,
                            pushes,
                            counters=self.counters,
                        )
                    heapq.heappush(heap, (child_lb, next(counter), child))
        return self._result(incumbent, incumbent_cost)

    # -- bounding ---------------------------------------------------------------

    def _lower_bound(
        self,
        state: _State,
        query: Query,
        nn_dist: Dict[int, float],
        global_min_qdist: float,
    ) -> float:
        """An admissible bound on the cost of any completion of ``state``."""
        uncovered = query.keywords - state.covered
        # Any completion must add, for each uncovered keyword, an object no
        # closer to q than that keyword's nearest carrier.
        pending = max((nn_dist[t] for t in uncovered), default=0.0)
        aggregate = self.cost.query_aggregate
        if aggregate is QueryAggregate.SUM:
            q_bound = state.qdist_sum + pending
        elif aggregate is QueryAggregate.MAX:
            q_bound = max(state.qdist_max, pending)
        else:  # MIN: more objects can only pull the minimum down
            current = state.qdist_min if state.chosen else math.inf
            q_bound = min(current, global_min_qdist)
        return self.cost.combine(q_bound, state.diam)

    def _try_min_extras(
        self,
        query: Query,
        cover: List[SpatialObject],
        relevant: List[SpatialObject],
        qdist: Dict[int, float],
    ) -> Optional[Tuple[List[SpatialObject], float]]:
        """Best single-object extension of a cover (MIN-aggregate costs)."""
        chosen_ids = {o.oid for o in cover}
        current_min = min(qdist[o.oid] for o in cover)
        best: Optional[Tuple[List[SpatialObject], float]] = None
        for extra in relevant:
            if extra.oid in chosen_ids or qdist[extra.oid] >= current_min:
                continue
            extended = cover + [extra]
            cost_value = self._evaluate(query, extended)
            if best is None or cost_value < best[1]:
                best = (extended, cost_value)
        return best


class CaoExact(BranchBoundExact):
    """Alias matching the paper's baseline naming (Cao-Exact)."""

    name = "cao-exact"
