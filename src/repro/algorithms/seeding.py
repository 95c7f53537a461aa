"""Appro seeding: a cheap feasible cost that bounds an exact search.

:func:`make_seeder` picks the approximation by *cost structure*, so a
caller that holds only the cost function (the sharded scatter-gather
engine) gets the right seeder; :func:`compute_seed` runs it once.

Soundness is inherited from the ``initial_upper_bound`` contract
(:meth:`repro.algorithms.base.CoSKQAlgorithm.solve`): every seeder
returned here builds a *feasible* set for the query and reports its true
cost under the target cost function, so its cost is a valid upper bound
on the optimum and the seeded exact search returns a bit-identical cost.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import CoSKQAlgorithm, SearchContext
from repro.algorithms.owner_appro import OwnerRingApproximation
from repro.algorithms.sum_algorithms import SumGreedy
from repro.cost.base import CostFunction, QueryAggregate
from repro.cost.functions import SumCost
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["compute_seed", "make_seeder"]


def make_seeder(
    context: SearchContext, cost: CostFunction
) -> Optional[CoSKQAlgorithm]:
    """A cheap approximation suited to seeding an exact search of ``cost``.

    Dispatch is structural, mirroring :func:`make_exact_solver`:

    - pure Sum cost → the weighted-set-cover greedy;
    - any other non-MIN aggregate → the owner-ring approximation (its
      owner-distance stopping rule needs the query component of a set
      containing the owner to be at least the owner's distance, true for
      both MAX and SUM aggregates);
    - MIN aggregates → ``None``: no cheap pass with a monotone owner
      bound exists, so those searches run unseeded.
    """
    if cost.query_aggregate is QueryAggregate.MIN:
        return None
    if isinstance(cost, SumCost):
        return SumGreedy(context, cost)
    return OwnerRingApproximation(context, cost)


def compute_seed(
    context: SearchContext,
    cost: CostFunction,
    query: Query,
    budget=None,
) -> Optional[CoSKQResult]:
    """The structural seeder's answer; ``None`` when no seeder applies.

    Its ``cost`` is the value to pass as ``initial_upper_bound``.
    ``budget`` (duck-typed to :class:`repro.exec.Budget`) is attached to
    the seeder so a deadline covers the seeding pass too.
    """
    seeder = make_seeder(context, cost)
    if seeder is None:
        return None
    seeder.budget = budget
    return seeder.solve(query)
