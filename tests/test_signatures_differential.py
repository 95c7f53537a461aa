"""Golden gate for the keyword bitmasks, over ``LinearScanIndex``.

The signature layer (repro.index.signatures) claims that frozenset
keyword algebra and integer bitmasks decide everything alike — costs,
chosen objects and the pruning decisions feeding either.  The gate
mirrors the kernels differential on the other index backend: for every
registered solver and every differential instance, a run over the
linear-scan oracle index must return the recorded cost float and object
set of ``tests/fixtures/golden_answers.json`` bit for bit, and so must
a run through a chaos-wrapped index.
"""

from __future__ import annotations

import pytest

from conftest import GOLDEN_INSTANCES, load_golden_answers, solve_all
from repro.algorithms.base import SearchContext
from repro.algorithms.registry import ALGORITHM_NAMES
from repro.exec.chaos import ChaosIndex, FaultPlan, chaos_context
from repro.index.neighbors import LinearScanIndex

GOLDEN = load_golden_answers()


@pytest.fixture(scope="module", params=list(GOLDEN_INSTANCES))
def instance(request):
    dataset, _, queries = GOLDEN_INSTANCES[request.param]()
    context = SearchContext(dataset, index_cls=LinearScanIndex)
    return GOLDEN[str(request.param)], context, queries


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_solver_is_bit_identical(instance, name):
    golden, context, queries = instance
    # exact: same cost floats, same object sets
    assert solve_all(context, name, queries) == golden[name]


def test_chaos_wrapped_index_stays_identical(instance):
    """The signature path must survive (and use) a decorated index."""
    golden, context, queries = instance
    wrapped = chaos_context(context, FaultPlan())
    assert solve_all(wrapped, "maxsum-exact", queries) == golden["maxsum-exact"]
    chaos = wrapped.index
    assert isinstance(chaos, ChaosIndex)
    assert isinstance(chaos.inner, LinearScanIndex)
    assert any(method == "nearest_relevant_iter" for method, _ in chaos.call_log)
