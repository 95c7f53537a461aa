"""The differential matrix's forked-pool cell: pooled equals serial.

For every registered solver but the oracle (which reads the dataset,
never an engine), every worker count in {1, 2, 4} and the seeded golden
instances, a :class:`ParallelBatchExecutor` run must be
indistinguishable from the serial plain cell (``conftest.plain_cell``)
over the same batch: same solver label, same per-position
answered/failed pattern, same cost floats and object sets bit for bit,
same failure types — the batch carries a query that asks for a keyword
nothing carries.

One pool is built per (dataset, workers) and reused for all solvers
(the spec rides along with each task), so the suite exercises the
"dataset ships once, solvers rebuild worker-side" design while keeping
pool startup cost linear in worker counts, not solver counts.

Fallback chains must degrade alike pooled or serial, and a pooled
report's positions must line up with its failures.
"""

from __future__ import annotations

import pytest

from conftest import SOLVERS, assert_matches_plain, matrix_instance
from repro.algorithms.base import SearchContext
from repro.exec.batch import BatchExecutor, BatchReport
from repro.parallel import ParallelBatchExecutor, SolverSpec, WorkerEnv

TOLERANCE = 1e-9

SEEDS = (101, 202, 303)
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module", params=SEEDS)
def batch_instance(request):
    """A golden instance's id, dataset and batch (the last query infeasible)."""
    dataset, batch = matrix_instance(request.param)
    return request.param, dataset, batch


def parallel_cell(dataset, batch, workers):
    """``{name: answers}`` of one forked pool serving every solver."""
    out = {}
    with ParallelBatchExecutor(WorkerEnv(dataset=dataset), workers=workers) as engine:
        for name in SOLVERS:
            report = engine.run(batch, SolverSpec(algorithm=name))
            assert report.solver == name
            assert report.answered + report.failed == report.total == len(batch)
            failed = {failure.index: failure.error_type for failure in report.failures}
            out[name] = [
                failed[i]
                if result is None
                else (result.cost, tuple(sorted(o.oid for o in result.objects)))
                for i, result in enumerate(report.results)
            ]
    return out


def assert_reports_equal(serial: BatchReport, parallel: BatchReport) -> None:
    assert parallel.solver == serial.solver
    assert parallel.total == serial.total
    for position, (expected, actual) in enumerate(
        zip(serial.results, parallel.results)
    ):
        assert (expected is None) == (actual is None), (
            "position %d answered-ness diverged" % position
        )
        if expected is not None:
            assert abs(expected.cost - actual.cost) <= TOLERANCE * max(
                1.0, abs(expected.cost)
            ), "position %d cost diverged" % position
            assert {o.oid for o in actual.objects} == {
                o.oid for o in expected.objects
            }, "position %d object set diverged" % position
    assert [
        (f.index, f.error_type) for f in parallel.failures
    ] == [(f.index, f.error_type) for f in serial.failures]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_every_solver_matches_serial(batch_instance, workers):
    instance_id, dataset, batch = batch_instance
    for name, got in parallel_cell(dataset, batch, workers).items():
        assert_matches_plain(instance_id, name, got)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_resilient_chain_matches_serial(batch_instance, workers):
    """Fallback chains degrade identically whether pooled or serial."""
    from repro.exec import ExecutionPolicy, FallbackChain, ResilientExecutor

    _, dataset, batch = batch_instance
    spec = SolverSpec(chain="maxsum-exact -> maxsum-appro")
    serial_solver = ResilientExecutor(
        FallbackChain.of(SearchContext(dataset), *spec.stage_names), ExecutionPolicy()
    )
    serial = BatchExecutor(serial_solver).run(batch)
    env = WorkerEnv(dataset=dataset)
    with ParallelBatchExecutor(env, spec, workers=workers) as engine:
        assert_reports_equal(serial, engine.run(batch))


def test_alignment_invariants_hold(batch_instance):
    """answered + failed == total; results[i] is None ⇔ failure at i."""
    _, dataset, batch = batch_instance
    env = WorkerEnv(dataset=dataset)
    with ParallelBatchExecutor(env, workers=2) as engine:
        report = engine.run(batch, SolverSpec(algorithm="maxsum-appro"))
    assert report.answered + report.failed == report.total
    failed_positions = {f.index for f in report.failures}
    for position, result in enumerate(report.results):
        assert (result is None) == (position in failed_positions)
    assert [f.index for f in report.failures] == sorted(failed_positions)
