"""Property-based invariants of batch reports (serial and parallel).

Rather than trusting hand-picked batches, hypothesis drives a scripted
solver through arbitrary success/failure interleavings and asserts the
structural invariants every consumer of a :class:`BatchReport` relies
on:

- ``answered + failed == total``;
- ``results[i] is None`` ⇔ some failure carries index ``i``;
- failure indexes are unique, sorted and in range;
- ``failures`` has ``failed`` entries; ``degraded <= answered``.

A second property drives the real :class:`ParallelBatchExecutor`
(workers=1, in-process) over mixed feasible/poisoned batches and checks
it upholds the same invariants plus agreement with the serial engine.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_random_instance
from repro.errors import ExecutionFailedError, InfeasibleQueryError
from repro.exec.batch import BatchExecutor
from repro.exec.fallback import StageFailure
from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.parallel import ParallelBatchExecutor, SolverSpec, WorkerEnv

#: Behaviors the scripted solver can exhibit for one query.
OK, FAIL, CHAIN_FAIL, DEGRADED, INFEASIBLE_RESULT = (
    "ok",
    "fail",
    "chain_fail",
    "degraded",
    "infeasible_result",
)

behaviors = st.lists(
    st.sampled_from([OK, FAIL, CHAIN_FAIL, DEGRADED, INFEASIBLE_RESULT]),
    min_size=0,
    max_size=12,
)


class ScriptedSolver:
    """Replays a per-query behavior script; index-addressed, stateless."""

    name = "scripted"

    def __init__(self, script: List[str], template: CoSKQResult):
        self.script = script
        self.template = template
        self.calls = 0

    def solve(self, query: Query) -> CoSKQResult:
        behavior = self.script[self.calls]
        self.calls += 1
        if behavior == FAIL:
            raise InfeasibleQueryError([999])
        if behavior == CHAIN_FAIL:
            raise ExecutionFailedError(
                [
                    StageFailure(
                        stage="scripted", error_type="Boom", message="scripted"
                    )
                ]
            )
        if behavior == INFEASIBLE_RESULT:
            # Feasibility validation must convert this into a failure.
            return CoSKQResult.of((), 0.0, self.name)
        result = self.template
        if behavior == DEGRADED:
            provenance = result.provenance
            if provenance is None or not getattr(provenance, "degraded", False):
                result = self._degraded_copy(result)
        return result

    def _degraded_copy(self, result: CoSKQResult) -> CoSKQResult:
        from repro.exec.fallback import ExecutionProvenance

        provenance = ExecutionProvenance(
            answered_by=self.name, degraded=True, guaranteed_ratio=None
        )
        return result.with_provenance(provenance)


@pytest.fixture(scope="module")
def solved_template():
    """A genuine feasible result for the template query, solved once."""
    from repro.algorithms.registry import make_algorithm

    _, context, queries = make_random_instance(31, num_objects=40, vocab=8)
    query = queries[0]
    result = make_algorithm("maxsum-appro", context).solve(query)
    return query, result


@given(script=behaviors)
def test_report_structural_invariants(script, solved_template):
    query, template = solved_template
    solver = ScriptedSolver(script, template)
    report = BatchExecutor(solver).run([query] * len(script))

    assert report.total == len(script)
    assert report.answered + report.failed == report.total

    failed_positions = [f.index for f in report.failures]
    assert failed_positions == sorted(set(failed_positions))
    for index in failed_positions:
        assert 0 <= index < report.total
    for position, result in enumerate(report.results):
        assert (result is None) == (position in set(failed_positions))

    assert len(report.failures) == report.failed
    assert report.degraded <= report.answered
    assert report.ok() == (report.failed == 0)

    # Scripted behaviors map to the right outcome positionally.
    for position, behavior in enumerate(script):
        if behavior in (FAIL, CHAIN_FAIL, INFEASIBLE_RESULT):
            assert report.results[position] is None
        else:
            assert report.results[position] is not None
    for failure in report.failures:
        if script[failure.index] == CHAIN_FAIL:
            assert failure.error_type == "ExecutionFailedError"
            assert len(failure.stage_failures) == 1
        elif script[failure.index] == INFEASIBLE_RESULT:
            assert failure.error_type == "AssertionError"


@given(poison_mask=st.lists(st.booleans(), min_size=1, max_size=8))
def test_parallel_engine_upholds_invariants(poison_mask, parallel_fixture):
    dataset, serial_report_for, batch_for = parallel_fixture
    batch = batch_for(poison_mask)
    env = WorkerEnv(dataset=dataset)
    with ParallelBatchExecutor(env, SolverSpec(algorithm="maxsum-appro")) as engine:
        report = engine.run(batch)

    assert report.total == len(batch)
    assert report.answered + report.failed == report.total
    failed_positions = {f.index for f in report.failures}
    for position, result in enumerate(report.results):
        assert (result is None) == (position in failed_positions)
    # Poisoned positions fail as infeasible; clean positions answer with
    # exactly the serial engine's costs.
    serial = serial_report_for(batch)
    assert [r.cost if r else None for r in report.results] == [
        r.cost if r else None for r in serial.results
    ]
    for position, poisoned in enumerate(poison_mask):
        assert (report.results[position] is None) == poisoned


@pytest.fixture(scope="module")
def parallel_fixture():
    from repro.algorithms.registry import make_algorithm

    dataset, context, queries = make_random_instance(53, num_objects=40, vocab=8)
    clean = queries[0]
    missing = max(dataset.keyword_ids) + 1
    poisoned = Query(clean.location, clean.keywords | {missing})
    solver = make_algorithm("maxsum-appro", context)

    def batch_for(poison_mask):
        return [poisoned if flag else clean for flag in poison_mask]

    def serial_report_for(batch):
        return BatchExecutor(solver).run(batch)

    return dataset, serial_report_for, batch_for
