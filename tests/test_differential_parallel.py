"""Differential gate: the parallel engine must equal the serial engine.

For every registered solver, every worker count in {1, 2, 4} and several
seeded datasets, a :class:`ParallelBatchExecutor` run must be
indistinguishable from a serial :class:`BatchExecutor` run over the same
batch: same solver label, same per-position answered/failed pattern,
same costs, same failure types — including on poisoned batches where
some queries are deliberately infeasible.

One pool is built per (dataset, workers) and reused for all 16 solvers
(the spec rides along with each task), so the suite exercises the
"dataset ships once, solvers rebuild worker-side" design while keeping
pool startup cost linear in worker counts, not solver counts.
"""

from __future__ import annotations

import pytest

from conftest import make_random_instance
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.exec.batch import BatchExecutor, BatchReport
from repro.model.query import Query
from repro.parallel import ParallelBatchExecutor, SolverSpec, WorkerEnv

TOLERANCE = 1e-9

SEEDS = (101, 202, 303)
WORKER_COUNTS = (1, 2, 4)


def poisoned_batch(dataset, queries):
    """The queries plus one that asks for a keyword nothing carries."""
    base = queries[0]
    missing = max(dataset.keyword_ids) + 1
    poisoned = Query(base.location, base.keywords | {missing})
    return list(queries) + [poisoned]


@pytest.fixture(scope="module", params=SEEDS)
def batch_instance(request):
    dataset, context, queries = make_random_instance(
        request.param, num_objects=40, vocab=8
    )
    return dataset, context, poisoned_batch(dataset, queries)


@pytest.fixture(scope="module")
def serial_reports(batch_instance):
    """One serial reference report per solver (shared across params)."""
    dataset, context, batch = batch_instance
    reports = {}
    for name in ALGORITHM_NAMES:
        solver = make_algorithm(name, context)
        reports[name] = BatchExecutor(solver).run(batch)
    return reports


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
def test_every_solver_matches_serial(batch_instance, serial_reports, workers):
    dataset, _, batch = batch_instance
    env = WorkerEnv(dataset=dataset)
    with ParallelBatchExecutor(env, workers=workers) as engine:
        for name in ALGORITHM_NAMES:
            report = engine.run(batch, SolverSpec(algorithm=name))
            assert_reports_equal(serial_reports[name], report)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_resilient_chain_matches_serial(batch_instance, workers):
    """Fallback chains degrade identically whether pooled or serial."""
    from repro.exec import ExecutionPolicy, FallbackChain, ResilientExecutor

    dataset, context, batch = batch_instance
    chain_spec = "maxsum-exact -> maxsum-appro"
    serial_solver = ResilientExecutor(
        FallbackChain.parse(chain_spec, context), ExecutionPolicy()
    )
    serial = BatchExecutor(serial_solver).run(batch)
    env = WorkerEnv(dataset=dataset)
    spec = SolverSpec(chain=chain_spec)
    with ParallelBatchExecutor(env, spec, workers=workers) as engine:
        assert_reports_equal(serial, engine.run(batch))


def test_alignment_invariants_hold(batch_instance):
    """answered + failed == total; results[i] is None ⇔ failure at i."""
    dataset, _, batch = batch_instance
    env = WorkerEnv(dataset=dataset)
    with ParallelBatchExecutor(env, workers=2) as engine:
        report = engine.run(batch, SolverSpec(algorithm="maxsum-appro"))
    assert report.answered + report.failed == report.total
    failed_positions = {f.index for f in report.failures}
    for position, result in enumerate(report.results):
        assert (result is None) == (position in failed_positions)
    assert [f.index for f in report.failures] == sorted(failed_positions)
