"""The differential matrix's ``LinearScanIndex`` cell.

The signature layer (repro.index.signatures) claims that keyword
bitmasks decide everything the way keyword sets would — costs, chosen
objects and the pruning decisions feeding either.  The gate mirrors the
plain cell on the other index backend: for every registered solver and
every golden instance, a run over the linear-scan index must return the
plain cell's answers and the recorded cost float and object set of
``tests/fixtures/golden_answers.json`` bit for bit, and so must a run
through a chaos-wrapped index.  The oracle reads the dataset, never
the index, so its case holds the plain cell's answers to the golden
record.
"""

from __future__ import annotations

import pytest

from conftest import (
    GOLDEN_INSTANCES,
    answers,
    assert_matches_plain,
    axis_answers,
    matrix_instance,
)
from repro.algorithms.base import SearchContext
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.exec.chaos import ChaosIndex, FaultPlan, chaos_context
from repro.index.neighbors import LinearScanIndex


@pytest.fixture(scope="module", params=list(GOLDEN_INSTANCES))
def instance_id(request):
    return request.param


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_solver_is_bit_identical(instance_id, name):
    # exact: same cost floats, same object sets
    got = axis_answers("linear-scan", instance_id, name)
    assert_matches_plain(instance_id, name, got)


def test_chaos_wrapped_index_stays_identical(instance_id):
    """The signature path must survive (and use) a decorated index."""
    dataset, queries = matrix_instance(instance_id)
    wrapped = chaos_context(SearchContext(dataset, index_cls=LinearScanIndex), FaultPlan())
    got = answers(make_algorithm("maxsum-exact", wrapped).solve, queries)
    assert_matches_plain(instance_id, "maxsum-exact", got)
    chaos = wrapped.index
    assert isinstance(chaos, ChaosIndex)
    assert isinstance(chaos.inner, LinearScanIndex)
    assert any(method == "nearest_relevant_iter" for method, _ in chaos.call_log)
