"""Golden gate for the flat distance kernels, over the IR-tree.

The flat kernels (repro.kernels) claim exact float equality with the
naive ``math.hypot`` code — not agreement up to a tolerance.  So the
gate is strict: for every registered solver and every differential
instance, a run over the IR-tree must return the recorded cost float
and object set of ``tests/fixtures/golden_answers.json`` bit for bit,
and so must a run through a chaos-wrapped index.  The recording was
made with the kernels and the keyword bitmasks each on and off, all
four settings agreeing.  The recorded costs of the exact MaxSum solvers
must equal ``bruteforce``'s, so no recording can pin a wrong optimum.
"""

from __future__ import annotations

import pytest

from conftest import GOLDEN_INSTANCES, load_golden_answers, solve_all
from repro.algorithms.base import SearchContext
from repro.algorithms.bruteforce import BruteForceExact
from repro.algorithms.owner_exact import OwnerDrivenExact
from repro.algorithms.registry import ALGORITHM_NAMES
from repro.cost.functions import cost_by_name
from repro.exec.chaos import ChaosIndex, FaultPlan, chaos_context
from repro.index.irtree import IRTree

GOLDEN = load_golden_answers()


@pytest.fixture(scope="module", params=list(GOLDEN_INSTANCES))
def instance(request):
    dataset, _, queries = GOLDEN_INSTANCES[request.param]()
    return GOLDEN[str(request.param)], SearchContext(dataset, index_cls=IRTree), queries


#: The exact solvers whose default cost is ``bruteforce``'s (MaxSum).
MAXSUM_EXACTS = ("maxsum-exact", "unified-exact", "cao-exact", "bnb-exact")


@pytest.mark.parametrize("instance_id", list(GOLDEN_INSTANCES))
def test_recorded_exact_costs_equal_bruteforce(instance_id):
    golden = GOLDEN[str(instance_id)]
    optimum = [cost for cost, _ in golden["bruteforce"]]
    for name in MAXSUM_EXACTS:
        assert [cost for cost, _ in golden[name]] == optimum, name


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_solver_is_bit_identical(instance, name):
    golden, context, queries = instance
    # exact: same cost floats, same object sets
    assert solve_all(context, name, queries) == golden[name]


def test_chaos_wrapped_index_stays_identical(instance):
    """The kernels path must survive (and use) a decorated index."""
    golden, context, queries = instance
    wrapped = chaos_context(context, FaultPlan())
    assert solve_all(wrapped, "maxsum-exact", queries) == golden["maxsum-exact"]
    chaos = wrapped.index
    assert isinstance(chaos, ChaosIndex)
    # The owner stream goes through the decorator, not around it.
    assert any(method == "nearest_relevant_iter" for method, _ in chaos.call_log)


def test_whole_disk_lens_is_exact(instance):
    """Without the lens filter, or under a cost with no pairwise term
    (``max``), an owner's lens is its whole disk; the search stays exact."""
    _, context, queries = instance
    for cost_name, kwargs in (
        ("maxsum", {"filter_candidates": False}),
        ("dia", {"filter_candidates": False}),
        ("max", {}),
    ):
        cost = cost_by_name(cost_name)
        solver = OwnerDrivenExact(context, cost, **kwargs)
        oracle = BruteForceExact(context, cost)
        for query in queries:
            assert solver.solve(query).cost == oracle.solve(query).cost, cost_name
