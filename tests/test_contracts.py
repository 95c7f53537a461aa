"""Runtime contracts (repro.analysis.contracts) around seeded solves.

Exact solvers take an optional ``initial_upper_bound``; the contract
wrapper must forward it, or every seeded call under
``REPRO_CHECK_CONTRACTS=1`` fails with a ``TypeError`` before the
solver runs.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import make_algorithm
from repro.analysis import contracts


@pytest.fixture()
def installed():
    """Contracts on for one test; off again unless the session enabled them."""
    contracts.install()
    yield
    if not contracts.enabled():
        contracts.uninstall()


@pytest.mark.parametrize("name", ["maxsum-exact", "bnb-exact", "sum-exact"])
def test_wrapped_exact_solver_takes_the_seeding_bound(
    installed, name, tiny_context, tiny_queries
):
    solver = make_algorithm(name, tiny_context)
    assert hasattr(type(solver).solve, "_contract_original")
    for query in tiny_queries[:3]:
        plain = solver.solve(query)
        # The optimum is a sound seed: a cost equal to it is explored.
        seeded = solver.solve(query, initial_upper_bound=plain.cost)
        assert seeded.cost == plain.cost
