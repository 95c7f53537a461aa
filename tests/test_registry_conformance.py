"""Registry-wide conformance: the differential matrix's plain cell
against the oracle.

For each name in ``ALGORITHM_NAMES``, build the algorithm through the
registry factory (paper-default cost), take its plain-cell answers on
the matrix's fixed inputs (the small conformance instance and every
golden instance: the tie-laden, extreme and near-tie ones among them)
and check them against the brute-force oracle *under the algorithm's
own cost*:

- every answer covers its query and costs what its objects cost;
- ``exact = True``  → cost equals the optimum;
- ``exact = False`` → cost is ≥ the optimum and, when the algorithm
  declares a ratio for its default cost, ≤ ratio × optimum.

This is the static linter's R1 made dynamic: registration implies the
algorithm is runnable and honest about its exactness claim.
"""

from __future__ import annotations

import pytest

from conftest import (
    MATRIX_INSTANCES,
    check_covers_and_prices,
    check_exactness,
    check_ratio,
    declared_ratio,
    matrix_instance,
    plain,
)
from repro.algorithms.base import SearchContext
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm


def plain_cells(name):
    """``(solver, queries, answers)`` of ``name`` on every fixed input."""
    for instance_id in MATRIX_INSTANCES:
        dataset, queries = matrix_instance(instance_id)
        solver = make_algorithm(name, SearchContext(dataset))
        yield solver, queries, plain(instance_id, name)


def ratio_names():
    """The solvers that declare a ratio for their own default cost."""
    dataset, _ = matrix_instance("conform")
    context = SearchContext(dataset)
    return [
        name
        for name in ALGORITHM_NAMES
        if declared_ratio(make_algorithm(name, context)) is not None
    ]


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_registered_algorithm_solves(name):
    for solver, queries, answered in plain_cells(name):
        check_covers_and_prices(solver.context.dataset, queries, solver, answered)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_exactness_claims_hold(name):
    for solver, queries, answered in plain_cells(name):
        check_exactness(queries, solver, answered)


@pytest.mark.parametrize("name", ratio_names())
def test_declared_ratios_respected(name):
    for solver, queries, answered in plain_cells(name):
        check_ratio(queries, solver, answered)


def test_every_registered_name_is_stable():
    dataset, _ = matrix_instance("conform")
    context = SearchContext(dataset)
    # Names round-trip: the instance's declared name matches its key,
    # so benchmark CSVs and the CLI agree on identity.
    for name in ALGORITHM_NAMES:
        algorithm = make_algorithm(name, context)
        assert algorithm.name == name, (name, algorithm.name)
