"""Differential gate: kernels on and off must be *bit-identical*.

The flat kernels (repro.kernels) claim exact float equality with the
scalar code they replace — not agreement up to a tolerance.  So the gate
here is stricter than the parallel-engine differential: for every
registered solver and several seeded instances, the kernels-on run must
return the *same* cost float and the same object set as the kernels-off
run, and the equality must survive a chaos-wrapped index and forked
parallel workers (where the toggle travels via the environment).
"""

from __future__ import annotations

import pytest

from conftest import make_extreme_instance, make_random_instance, make_tie_instance
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.exec.batch import BatchExecutor
from repro.exec.chaos import ChaosIndex, FaultPlan, chaos_context
from repro.kernels import flat
from repro.parallel import ParallelBatchExecutor, SolverSpec, WorkerEnv

SEEDS = (101, 202, 303)


@pytest.fixture(autouse=True)
def restore_toggle():
    yield
    flat.set_enabled(None)


@pytest.fixture(scope="module", params=SEEDS + ("ties", "extreme"))
def instance(request):
    if request.param == "ties":
        return make_tie_instance()
    if request.param == "extreme":
        return make_extreme_instance()
    dataset, context, queries = make_random_instance(
        request.param, num_objects=40, vocab=8
    )
    return dataset, context, queries


def run_solver(context, name, queries, enabled):
    flat.set_enabled(enabled)
    try:
        solver = make_algorithm(name, context)
        out = []
        for query in queries:
            result = solver.solve(query)
            out.append((result.cost, tuple(sorted(o.oid for o in result.objects))))
        return out
    finally:
        flat.set_enabled(None)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_solver_is_bit_identical(instance, name):
    _, context, queries = instance
    scalar = run_solver(context, name, queries, enabled=False)
    kernels = run_solver(context, name, queries, enabled=True)
    assert kernels == scalar  # exact: same cost floats, same object sets


def test_chaos_wrapped_index_stays_identical(instance):
    """The kernels path must survive (and use) a decorated index."""
    _, context, queries = instance
    wrapped = chaos_context(context, FaultPlan())
    scalar = run_solver(wrapped, "maxsum-exact", queries, enabled=False)
    kernels = run_solver(wrapped, "maxsum-exact", queries, enabled=True)
    assert kernels == scalar
    chaos = wrapped.index
    assert isinstance(chaos, ChaosIndex)
    # The owner stream goes through the decorator, not around it.
    assert any(method == "nearest_relevant_iter" for method, _ in chaos.call_log)


@pytest.mark.parametrize("env_value", ["0", "1"])
def test_toggle_propagates_into_forked_workers(instance, monkeypatch, env_value):
    """REPRO_KERNELS travels by environment, so workers see the setting."""
    dataset, context, queries = instance
    monkeypatch.setenv("REPRO_KERNELS", env_value)
    serial = BatchExecutor(make_algorithm("maxsum-exact", context)).run(queries)
    env = WorkerEnv(dataset=dataset)
    with ParallelBatchExecutor(env, workers=2) as engine:
        parallel = engine.run(queries, SolverSpec(algorithm="maxsum-exact"))
    assert parallel.failed == serial.failed == 0
    for mine, theirs in zip(serial.results, parallel.results):
        assert theirs.cost == mine.cost
        assert {o.oid for o in theirs.objects} == {o.oid for o in mine.objects}
