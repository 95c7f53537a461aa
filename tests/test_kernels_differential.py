"""The differential matrix's plain cell, over the keyword-tree index.

The flat kernels (repro.kernels) claim exact float equality with the
naive ``math.hypot`` code — not agreement up to a tolerance.  So the
gate is strict: for every registered solver and every golden instance,
the differential matrix's plain cell (``conftest.plain_cell``) must return the
recorded cost float and object set of ``tests/fixtures/golden_answers.json``
bit for bit, and so must a run through a chaos-wrapped index.  The
recording was made with the kernels and the keyword bitmasks each on and
off, all four settings agreeing.  The recorded costs of the exact MaxSum
solvers must equal ``bruteforce``'s, so no recording can pin a wrong
optimum.
"""

from __future__ import annotations

import pytest

from conftest import (
    GOLDEN_ANSWERS,
    GOLDEN_INSTANCES,
    answers,
    assert_matches_plain,
    matrix_instance,
    optimum,
    plain,
)
from repro.algorithms.base import SearchContext
from repro.algorithms.owner_exact import OwnerDrivenExact
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.cost.functions import cost_by_name
from repro.exec.chaos import ChaosIndex, FaultPlan, chaos_context
from repro.index.keyword_trees import KeywordTreeIndex


@pytest.fixture(scope="module", params=list(GOLDEN_INSTANCES))
def instance_id(request):
    return request.param


#: The exact solvers whose default cost is ``bruteforce``'s (MaxSum).
MAXSUM_EXACTS = ("maxsum-exact", "unified-exact", "cao-exact", "bnb-exact")


def test_recorded_exact_costs_equal_bruteforce(instance_id):
    golden = GOLDEN_ANSWERS[str(instance_id)]
    optimum_costs = [cost for cost, _ in golden["bruteforce"]]
    for name in MAXSUM_EXACTS:
        assert [cost for cost, _ in golden[name]] == optimum_costs, name


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_solver_is_bit_identical(instance_id, name):
    # exact: same cost floats, same object sets
    assert_matches_plain(instance_id, name, plain(instance_id, name))


def test_chaos_wrapped_index_stays_identical(instance_id):
    """The kernels path must survive (and use) a decorated index."""
    dataset, queries = matrix_instance(instance_id)
    wrapped = chaos_context(SearchContext(dataset, index_cls=KeywordTreeIndex), FaultPlan())
    got = answers(make_algorithm("maxsum-exact", wrapped).solve, queries)
    assert_matches_plain(instance_id, "maxsum-exact", got)
    chaos = wrapped.index
    assert isinstance(chaos, ChaosIndex)
    # The owner stream goes through the decorator, not around it.
    assert any(method == "nearest_relevant_iter" for method, _ in chaos.call_log)


def test_whole_disk_lens_is_exact(instance_id):
    """Without the lens filter, or under a cost with no pairwise term
    (``max``), an owner's lens is its whole disk; the search stays exact."""
    dataset, queries = matrix_instance(instance_id)
    context = SearchContext(dataset)
    for cost_name, kwargs in (
        ("maxsum", {"filter_candidates": False}),
        ("dia", {"filter_candidates": False}),
        ("max", {}),
    ):
        cost = cost_by_name(cost_name)
        solver = OwnerDrivenExact(context, cost, **kwargs)
        for query in queries[:-1]:
            assert solver.solve(query).cost == optimum(context, query, cost).cost, cost_name
