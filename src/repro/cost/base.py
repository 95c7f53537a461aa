"""Cost-function framework for CoSKQ.

Every cost in this literature is assembled from two distance components:

- the *query-object component* ``D_q(S)`` — an aggregate (sum, max or
  min) of the distances ``d(o, q)`` for ``o ∈ S``;
- the *object-object component* ``D_p(S)`` — the maximum pairwise
  distance within ``S`` (the set diameter).

A :class:`CostFunction` declares which query aggregate it uses and how the
two components combine (addition or maximum), and evaluates sets.  The
algorithms interrogate these declarations to choose pruning rules, so the
same algorithm code serves several costs.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Iterable, List, Sequence, Tuple

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

    def apply(self, query_component: float, pairwise_component: float) -> float:
        if self is Combiner.ADD:
            return query_component + pairwise_component
        return max(query_component, pairwise_component)


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


class CostFunction(ABC):
    """A CoSKQ set cost.

    Subclasses define :attr:`name`, the structural declarations
    (:attr:`query_aggregate`, :attr:`combiner`) and :meth:`combine`.
    ``evaluate`` derives the full set cost from those pieces.
    """

    #: Short identifier used in result provenance and benchmark reports.
    name: str = "cost"

    #: Which aggregate the query-object component uses.
    query_aggregate: QueryAggregate = QueryAggregate.MAX

    #: How the two components combine.
    combiner: Combiner = Combiner.ADD

    @abstractmethod
    def combine(self, query_component: float, pairwise_component: float) -> float:
        """The final cost given the two evaluated components."""

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

    # -- structural properties the algorithms rely on --------------------------

    @property
    def is_monotone(self) -> bool:
        """Whether adding an object can never decrease the cost.

        True for SUM and MAX query aggregates (both components are
        monotone under insertion); false for MIN (a new closer object
        shrinks the query component).  Branch-and-bound uses the current
        partial cost as an admissible bound only when this holds.
        """
        return self.query_aggregate is not QueryAggregate.MIN

    def lower_bound(self, query_component_bound: float, pairwise_bound: float) -> float:
        """An admissible cost bound from component lower bounds."""
        return self.combine(query_component_bound, pairwise_bound)

    def __repr__(self) -> str:
        return "%s(name=%r)" % (type(self).__name__, self.name)
