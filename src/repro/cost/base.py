"""Cost-function framework for CoSKQ.

Every cost in this literature is assembled from two distance components:

- the *query-object component* ``D_q(S)`` — an aggregate (sum, max or
  min) of the distances ``d(o, q)`` for ``o ∈ S``;
- the *object-object component* ``D_p(S)`` — the maximum pairwise
  distance within ``S`` (the set diameter).

A :class:`CostFunction` declares which query aggregate it uses and how the
two components combine (a weighted addition or maximum), and evaluates
sets.  The algorithms interrogate these declarations to choose pruning
rules, so the same algorithm code serves several costs.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.kernels import flat as _flat
from repro.model.objects import SpatialObject
from repro.model.query import Query

__all__ = [
    "QueryAggregate",
    "Combiner",
    "CostFunction",
    "pairwise_max_distance",
    "query_distances",
]


class QueryAggregate(enum.Enum):
    """How the query-object component aggregates ``d(o, q)`` over ``S``."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"

    def apply(self, values: Sequence[float]) -> float:
        if not values:
            raise ValueError("aggregate of an empty set")
        if self is QueryAggregate.SUM:
            return sum(values)
        if self is QueryAggregate.MAX:
            return max(values)
        return min(values)


class Combiner(enum.Enum):
    """How the two components combine into the final cost."""

    ADD = "add"
    MAX = "max"


#: Below this set size the quadratic scan beats packing coordinates into
#: arrays first; CoSKQ result sets (≤ |q.ψ| members) usually sit under it.
_PACK_THRESHOLD = 8


def pairwise_max_distance(objects: Sequence[SpatialObject]) -> float:
    """The diameter ``max_{o1,o2∈S} d(o1, o2)`` (0 for singleton sets).

    Large sets route through :func:`repro.kernels.flat.pairwise_max`,
    which is bit-identical to this scan (guarded squared-distance skip;
    every returned value is a plain ``math.hypot``).
    """
    n = len(objects)
    if n >= _PACK_THRESHOLD:
        xs, ys = _flat.pack_objects(objects)
        return _flat.pairwise_max(xs, ys)
    best = 0.0
    for i in range(n):
        loc_i = objects[i].location
        for j in range(i + 1, n):
            d = loc_i.distance_to(objects[j].location)
            if d > best:
                best = d
    return best


def query_distances(location: Point, objects: Iterable[SpatialObject]) -> List[float]:
    """The distances ``d(o, q)`` for each object."""
    return [location.distance_to(o.location) for o in objects]


class CostFunction:
    """A CoSKQ set cost.

    Subclasses define :attr:`name` and the structural declarations: the
    :attr:`query_aggregate`, and how the two components combine — the
    :attr:`combiner` applied to ``query_weight · D_q`` and
    ``pairwise_weight · D_p``.  Every cost in the library is such a
    weighted ADD or MAX (the unified cost family, PAPER.md §6), so
    :meth:`combine`, its two inversions and ``evaluate`` are derived
    here from those declarations.
    """

    #: Short identifier used in result provenance and benchmark reports.
    name: str = "cost"

    #: Which aggregate the query-object component uses.
    query_aggregate: QueryAggregate = QueryAggregate.MAX

    #: How the two weighted components combine.
    combiner: Combiner = Combiner.ADD

    #: Weight of the query-object component.
    query_weight: float = 1.0

    #: Weight of the object-object component, or None for a cost that
    #: ignores it (the unified family's α = 1 settings).  None rather
    #: than 0.0, because the inversions divide by this weight.
    pairwise_weight: Optional[float] = 1.0

    def __init__(self) -> None:
        #: ``combine(query_component, pairwise_component)``: the final
        #: cost given the two evaluated components, nondecreasing in
        #: both.  Specialized to the declarations once, here, so a call
        #: runs no branch.
        self.combine = _combine_for(
            self.combiner, self.query_weight, self.pairwise_weight
        )

    # -- inversions ------------------------------------------------------------

    def pairwise_budget(self, query_component: float, bound: float) -> float:
        """The pairwise component at which the cost reaches ``bound``.

        -1.0 when ``combine(query_component, 0) >= bound`` already, and
        ``inf`` when the cost ignores the pairwise component.  Otherwise
        a ``c > 0`` with ``combine(query_component, c) >= bound`` — so
        every diameter of at least ``c`` prices a set out, which makes
        ``c`` a sound pruning radius — within a few steps of the
        smallest such value.  A step is the larger of ``ulp(c)`` and
        ``ulp(bound) / pairwise_weight``: near ``bound`` an ADD cost
        moves only in ulps of ``bound``, however small ``c`` is.
        """
        combine = self.combine
        if combine(query_component, 0.0) >= bound:
            return -1.0
        weight = self.pairwise_weight
        if weight is None:
            return math.inf
        if self.combiner is Combiner.ADD:
            budget = (bound - self.query_weight * query_component) / weight
        else:
            budget = bound / weight
        # The closed form may round below the threshold.  Each step moves
        # the cost by about one ulp of ``bound``; doubling it keeps the
        # fix-up short whatever the rounding did (at most two steps on
        # the library's costs).
        step = max(math.ulp(bound) / weight, math.ulp(budget))
        while combine(query_component, budget) < bound:
            budget += step
            step *= 2.0
        return budget

    def indifferent_cap(self, query_component: float, pairwise_lb: float) -> float:
        """The largest pairwise component costing no more than ``pairwise_lb``.

        Returns a ``cap >= pairwise_lb`` with ``combine(query_component,
        cap) <= combine(query_component, pairwise_lb)``: ``inf`` for a
        cost that ignores the pairwise component, ``pairwise_lb`` itself
        for ADD costs, and for MAX costs the component at which the
        pairwise term overtakes the larger weighted term — for Dia
        ``max(query_component, pairwise_lb)``, every diameter up to the
        owner's query distance being free.
        """
        weight = self.pairwise_weight
        if weight is None:
            return math.inf
        if self.combiner is Combiner.ADD:
            # Rounding can leave a few larger components at the same
            # cost, but finding them would step ulp by ulp.
            return pairwise_lb
        combine = self.combine
        base = combine(query_component, pairwise_lb)
        cap = base / weight
        # ``weight * cap`` rounds to within two ulps of ``base``, so this
        # steps down at most a few times.
        while cap > pairwise_lb and combine(query_component, cap) > base:
            cap = math.nextafter(cap, pairwise_lb)
        return cap if cap > pairwise_lb else pairwise_lb

    # -- evaluation ----------------------------------------------------------

    def components(
        self, query: Query, objects: Sequence[SpatialObject]
    ) -> Tuple[float, float]:
        """``(D_q(S), D_p(S))`` for the set."""
        dists = query_distances(query.location, objects)
        return self.query_aggregate.apply(dists), pairwise_max_distance(objects)

    def evaluate(self, query: Query, objects: Sequence[SpatialObject]) -> float:
        """The cost of a non-empty object set for ``query``."""
        if not objects:
            raise ValueError("cost of an empty set is undefined")
        query_component, pairwise_component = self.components(query, objects)
        return self.combine(query_component, pairwise_component)

    def __repr__(self) -> str:
        return "%s(name=%r)" % (type(self).__name__, self.name)


def _combine_for(
    combiner: Combiner, query_weight: float, pairwise_weight: Optional[float]
) -> Callable[[float, float], float]:
    """``combine`` for one declaration; callers pass the two components.

    The weights are bound as parameter defaults, the cheapest lookup a
    call can make.
    """
    if pairwise_weight is None:
        return lambda q, p, wq=query_weight: wq * q
    if combiner is Combiner.ADD:
        return lambda q, p, wq=query_weight, wp=pairwise_weight: wq * q + wp * p

    def combine_max(q, p, wq=query_weight, wp=pairwise_weight):
        q = wq * q
        p = wp * p
        # ``max(q, p)`` without the builtin call: the same float.
        return p if p > q else q

    return combine_max
