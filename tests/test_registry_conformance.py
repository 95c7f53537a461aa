"""Registry-wide conformance: every registered algorithm actually works.

For each name in ``ALGORITHM_NAMES``, build the algorithm through the
registry factory (paper-default cost), solve a tiny shared instance and
check the result against the brute-force oracle *under the algorithm's
own cost*:

- ``exact = True``  → cost equals the optimum;
- ``exact = False`` → cost is ≥ the optimum and, when the algorithm
  declares a ratio for its default cost, ≤ ratio × optimum.

This is the static linter's R1 made dynamic: registration implies the
algorithm is runnable and honest about its exactness claim.
"""

from __future__ import annotations

import pytest

from conftest import make_extreme_instance, make_near_tie_instance, make_tie_instance
from repro.algorithms.base import SearchContext
from repro.algorithms.bruteforce import BruteForceExact
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.data.generators import uniform_dataset
from repro.data.queries import generate_queries
from repro.utils.floatcmp import float_geq, float_leq

TOLERANCE = 1e-6

#: Sum-family costs depend only on per-object query distances, so the
#: minimal-subset convention differs; they are checked for optimality
#: under their own cost like everything else.


@pytest.fixture(scope="module")
def instance():
    # Vocab must be >= 8: the query generator samples 3-keyword queries
    # from a percentile band that is too narrow on smaller vocabularies.
    dataset = uniform_dataset(36, 8, mean_keywords=2.0, seed=7, name="conform")
    context = SearchContext(dataset)
    queries = generate_queries(dataset, 3, 3, seed=9)
    return dataset, context, queries


@pytest.fixture(scope="module")
def instances(instance):
    """The shared instance plus the tie-laden one (colocated objects,
    owners tied with other stream entries, a query on an object), the
    extreme one (one object carrying every keyword, single-keyword
    queries, squared distances overflowing to ``inf``) and the near-tie
    one (two completions whose diameters differ by a relative 2e-10)."""
    return [instance, make_tie_instance(), make_extreme_instance(), make_near_tie_instance()]


def oracle_cost(context, query, cost):
    return BruteForceExact(context, cost).solve(query).cost


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_registered_algorithm_solves(name, instance):
    _, context, queries = instance
    algorithm = make_algorithm(name, context)
    for query in queries:
        result = algorithm.solve(query)
        assert result.objects, name
        covered = frozenset().union(*(o.keywords for o in result.objects))
        assert query.keywords <= covered, "%s returned infeasible set" % name
        recomputed = algorithm.cost.evaluate(query, result.objects)
        assert abs(recomputed - result.cost) <= TOLERANCE, name


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_exactness_claims_hold(name, instances):
    for _, context, queries in instances:
        algorithm = make_algorithm(name, context)
        for query in queries:
            result = algorithm.solve(query)
            optimum = oracle_cost(context, query, algorithm.cost)
            if algorithm.exact:
                assert abs(result.cost - optimum) <= TOLERANCE, (
                    "%s claims exact but %.9f != optimum %.9f"
                    % (name, result.cost, optimum)
                )
            else:
                assert float_geq(result.cost, optimum, TOLERANCE), (
                    "%s beat the oracle: %.9f < %.9f" % (name, result.cost, optimum)
                )


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_declared_ratios_respected(name, instances):
    for _, context, queries in instances:
        algorithm = make_algorithm(name, context)
        ratio = getattr(algorithm, "ratio", None)
        if ratio is None:
            pytest.skip("%s declares no approximation ratio" % name)
        if algorithm.ratio_cost != algorithm.cost.name:
            pytest.skip("%s ratio applies to %s cost" % (name, algorithm.ratio_cost))
        for query in queries:
            result = algorithm.solve(query)
            optimum = oracle_cost(context, query, algorithm.cost)
            assert float_leq(result.cost, ratio * optimum, TOLERANCE), (
                "%s exceeded its %.3f bound: %.9f > %.9f"
                % (name, ratio, result.cost, ratio * optimum)
            )


def test_every_registered_name_is_stable(instance):
    _, context, _ = instance
    # Names round-trip: the instance's declared name matches its key,
    # so benchmark CSVs and the CLI agree on identity.
    for name in ALGORITHM_NAMES:
        algorithm = make_algorithm(name, context)
        assert algorithm.name == name, (name, algorithm.name)
