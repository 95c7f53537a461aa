"""The differential matrix on drawn instances.

The fixed inputs (the golden instances and the small conformance
instance) run through the matrix's cells in the suites of each layer;
the cells themselves are in ``conftest.py``.  This suite draws its
inputs: a dozen objects or fewer on a 6×6 integer grid, where exact
distance ties and colocated objects are common, two queries, and one
more that asks for a keyword nothing carries.  Per example:

- every registry solver, and the cost-generic solvers under a drawn
  cost (MIN aggregates included), run in the plain cell and meet the
  oracle: covering answers at their objects' cost, exact solvers at the
  optimum, approximations never below it and within their declared
  ratio, and ``InfeasibleQueryError`` for the last query;
- one drawn in-process axis (the linear scan, the shard facade or the
  scatter-gather engine at 1, 4 or 9 shards) returns the plain cell's
  cost floats and oid sets bit for bit.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    AXES,
    COST_SOLVERS,
    ORACLE,
    check_against_oracle,
    plain_cell,
    with_infeasible_query,
)
from repro.algorithms.registry import ALGORITHM_NAMES
from repro.cost.functions import ALL_COSTS
from repro.model.dataset import Dataset
from repro.model.query import Query

GRID = st.integers(min_value=0, max_value=5)
WORDS = "abcd"


@st.composite
def grid_instances(draw):
    """A dozen objects or fewer, at integer points, carrying 1–2 of 4 words."""
    rows = draw(
        st.lists(
            st.tuples(
                GRID, GRID, st.sets(st.sampled_from(WORDS), min_size=1, max_size=2)
            ),
            min_size=1,
            max_size=12,
        )
    )
    dataset = Dataset.from_records(
        ((float(x), float(y), sorted(words)) for x, y, words in rows), name="grid"
    )
    carried = sorted(set().union(*(words for _, _, words in rows)))
    queries = [
        Query.from_words(
            float(draw(GRID)),
            float(draw(GRID)),
            draw(st.lists(st.sampled_from(carried), min_size=1, max_size=3, unique=True)),
            dataset.vocabulary,
        )
        for _ in range(2)
    ]
    return dataset, with_infeasible_query(dataset, queries)


@given(
    instance=grid_instances(),
    cost_name=st.sampled_from(sorted(ALL_COSTS)),
    axis=st.sampled_from(sorted(AXES)),
)
def test_grid_instances(instance, cost_name, axis):
    dataset, queries = instance
    for names, cost in ((ALGORITHM_NAMES, None), (COST_SOLVERS, cost_name)):
        expected = plain_cell(dataset, names, cost, queries)
        check_against_oracle(dataset, cost, queries, expected)
        expected.pop(ORACLE, None)
        assert AXES[axis](dataset, list(expected), cost, queries) == expected, (axis, cost)
