"""The chaos harness: deterministic fault injection end to end.

The headline scenario mirrors the robustness acceptance criterion: an
exact solver forced over its work budget on an index with one flaky
failure must complete through the fallback chain with a feasible
result and full degradation provenance, inside the configured deadline;
killing the whole chain must surface as one typed
``ExecutionFailedError`` — never a raw ``RuntimeError``.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import make_algorithm
from repro.errors import (
    ExecutionFailedError,
    InjectedFaultError,
    InvalidParameterError,
)
from repro.exec import (
    ChaosIndex,
    ExecutionPolicy,
    FallbackChain,
    FaultPlan,
    ManualClock,
    ResilientExecutor,
    chaos_context,
)
from repro.index.protocol import SpatialTextIndex


def _drive(plan, calls, method="nearest_relevant_iter", clock=None):
    """Feed ``calls`` sequential calls through a plan; return failure mask."""
    clock = clock if clock is not None else ManualClock()
    mask = []
    for number in range(1, calls + 1):
        try:
            plan.before_call(method, number, clock)
        except InjectedFaultError:
            mask.append(True)
        else:
            mask.append(False)
    return mask


class TestFaultPlan:
    def test_fail_nth_fires_once_per_listed_call(self):
        plan = FaultPlan().fail_nth(2, 4)
        assert _drive(plan, 5) == [False, True, False, True, False]
        assert plan.injected == [2, 4]
        # fail_nth(1) is the transient fault: the first call fails, the
        # retry heals.
        assert _drive(FaultPlan().fail_nth(1), 3) == [True, False, False]

    def test_fail_nth_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan().fail_nth(0)

    def test_fail_rate_one_is_permanent(self):
        plan = FaultPlan().fail_rate(1.0)
        assert _drive(plan, 4) == [True] * 4

    def test_fail_rate_is_seed_deterministic(self):
        mask_a = _drive(FaultPlan(seed=7).fail_rate(0.5), 50)
        mask_b = _drive(FaultPlan(seed=7).fail_rate(0.5), 50)
        mask_c = _drive(FaultPlan(seed=8).fail_rate(0.5), 50)
        assert mask_a == mask_b
        assert mask_a != mask_c  # different seed, different schedule
        assert any(mask_a) and not all(mask_a)

    def test_fail_rate_validates_probability(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan().fail_rate(1.5)

    def test_latency_advances_the_clock(self):
        clock = ManualClock()
        plan = FaultPlan().latency(0.25, every=2)
        start = clock.now()
        _drive(plan, 4, clock=clock)
        # Calls 2 and 4 each slept 0.25 virtual seconds.
        assert clock.now() - start == pytest.approx(0.5)

    def test_latency_validates_parameters(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan().latency(-1.0)
        with pytest.raises(InvalidParameterError):
            FaultPlan().latency(0.1, every=0)


class TestChaosIndex:
    def test_conforms_to_index_protocol(self, tiny_context):
        wrapper = ChaosIndex(tiny_context.index, FaultPlan())
        assert isinstance(wrapper, SpatialTextIndex)
        assert len(wrapper) == len(tiny_context.index)

    def test_direct_build_is_a_usage_error(self, tiny_dataset):
        with pytest.raises(InvalidParameterError):
            ChaosIndex.build(tiny_dataset)

    def test_call_log_records_every_interception(
        self, tiny_context, tiny_queries
    ):
        plan = FaultPlan()
        ctx = chaos_context(tiny_context, plan)
        make_algorithm("nn-set", ctx).solve(tiny_queries[0])
        index = ctx.index
        assert index.calls >= 1
        assert index.call_log[0][0] == "nearest_relevant_iter"
        assert [number for _, number in index.call_log] == list(
            range(1, index.calls + 1)
        )

    def test_fault_free_chaos_run_matches_production(
        self, tiny_context, tiny_queries
    ):
        ctx = chaos_context(tiny_context, FaultPlan())
        for query in tiny_queries[:3]:
            chaotic = make_algorithm("maxsum-appro", ctx).solve(query)
            plain = make_algorithm("maxsum-appro", tiny_context).solve(query)
            assert chaotic.cost == pytest.approx(plain.cost)

    def test_injected_fault_reaches_the_solver(self, tiny_context, tiny_queries):
        ctx = chaos_context(tiny_context, FaultPlan().fail_rate(1.0))
        with pytest.raises(InjectedFaultError):
            make_algorithm("nn-set", ctx).solve(tiny_queries[0])


class TestResilienceUnderChaos:
    def test_acceptance_budget_blowup_plus_flaky_index(
        self, tiny_context, tiny_queries
    ):
        """The scripted acceptance scenario from the robustness issue.

        maxsum-exact is forced over its work budget, the index fails
        exactly once (flaky), and the chain still answers feasibly with
        complete degradation provenance, inside the virtual deadline.
        """
        clock = ManualClock()
        plan = FaultPlan(seed=3).fail_nth(1)
        ctx = chaos_context(tiny_context, plan, clock=clock)
        chain = FallbackChain.of(ctx, "maxsum-exact", "maxsum-appro", "nn-set")
        policy = ExecutionPolicy(
            deadline_ms=500.0, work_budget=3, max_retries=1,
            checkpoint_interval=8,
        )
        executor = ResilientExecutor(chain, policy, clock=clock)
        query = tiny_queries[1]

        result = executor.solve(query)

        assert result.is_feasible_for(query)
        prov = result.provenance
        assert prov.degraded is True
        assert prov.answered_by == "nn-set"
        failed_stages = [f.stage for f in prov.failures]
        assert failed_stages == ["maxsum-exact", "maxsum-appro"]
        # The flaky fault fired exactly once, somewhere in the chain.
        assert len(plan.injected) == 1
        # The answer landed inside the (virtual) deadline.
        assert prov.elapsed_ms is not None
        assert prov.elapsed_ms <= policy.deadline_ms

    def test_acceptance_dead_chain_is_one_typed_error(
        self, tiny_context, tiny_queries
    ):
        """Killing every stage yields ExecutionFailedError, never RuntimeError."""
        ctx = chaos_context(tiny_context, FaultPlan().fail_rate(1.0))
        chain = FallbackChain.of(ctx, "maxsum-exact", "maxsum-appro", "nn-set")
        executor = ResilientExecutor(
            chain, ExecutionPolicy(always_answer=False)
        )
        try:
            executor.solve(tiny_queries[0])
        except ExecutionFailedError as err:
            assert not isinstance(err, RuntimeError)
            assert len(err.failures) == len(chain)
            assert all(
                f.error_type == "InjectedFaultError" for f in err.failures
            )
        else:
            pytest.fail("a fully dead chain must raise ExecutionFailedError")

    def test_retry_heals_flaky_fault_without_degrading(
        self, tiny_context, tiny_queries
    ):
        plan = FaultPlan().fail_nth(1)
        ctx = chaos_context(tiny_context, plan)
        chain = FallbackChain.of(ctx, "maxsum-appro", "nn-set")
        executor = ResilientExecutor(chain, ExecutionPolicy(max_retries=1))
        result = executor.solve(tiny_queries[0])
        prov = result.provenance
        assert prov.answered_by == "maxsum-appro"
        assert prov.degraded is False
        assert prov.attempts == 2

    def test_virtual_latency_trips_the_deadline(
        self, tiny_context, tiny_queries
    ):
        """Injected latency plus a virtual clock: deadline tests, no sleeping."""
        clock = ManualClock()
        plan = FaultPlan().latency(1.0, every=1)  # every index call costs 1s
        ctx = chaos_context(tiny_context, plan, clock=clock)
        chain = FallbackChain.of(ctx, "maxsum-exact", "nn-set")
        policy = ExecutionPolicy(deadline_ms=500.0, checkpoint_interval=1)
        executor = ResilientExecutor(chain, policy, clock=clock)
        result = executor.solve(tiny_queries[0])
        prov = result.provenance
        assert prov.degraded is True
        assert prov.answered_by == "nn-set"  # exempt last stage still answers
        assert prov.failures[0].error_type == "DeadlineExceededError"

    def test_same_seed_same_outcome_end_to_end(self, tiny_context, tiny_queries):
        """A full chaos run is reproducible from its seed."""

        def run():
            plan = FaultPlan(seed=13).fail_rate(0.2)
            ctx = chaos_context(tiny_context, plan)
            chain = FallbackChain.of(ctx, "maxsum-appro", "nn-set")
            executor = ResilientExecutor(chain, ExecutionPolicy(max_retries=2))
            outcomes = []
            for query in tiny_queries[:5]:
                result = executor.solve(query)
                outcomes.append(
                    (
                        result.provenance.answered_by,
                        result.provenance.attempts,
                        round(result.cost, 9),
                    )
                )
            return outcomes, list(plan.injected)

        assert run() == run()


class TestChaosAcrossWorkers:
    """Chaos interplay with the parallel engine (ISSUE: seed-determinism).

    The injected failure set of a chaos batch must be a pure function of
    (batch, seed) — the per-query fault plans built by
    :class:`~repro.parallel.spec.ChaosSpec` make it independent of how
    queries interleave across workers.
    """

    def _run(self, dataset, queries, workers, chaos):
        from repro.parallel import ParallelBatchExecutor, SolverSpec, WorkerEnv

        env = WorkerEnv(dataset=dataset, chaos=chaos)
        spec = SolverSpec(algorithm="maxsum-appro")
        with ParallelBatchExecutor(env, spec, workers=workers) as engine:
            return engine.run(queries)

    def test_failure_set_is_worker_count_independent(
        self, tiny_dataset, tiny_queries
    ):
        from repro.parallel import ChaosSpec

        chaos = ChaosSpec(seed=5, fail_rate=0.35)
        batch = list(tiny_queries)
        reference = None
        for workers in (1, 2, 4):
            report = self._run(tiny_dataset, batch, workers, chaos)
            outcome = (
                [(f.index, f.error_type) for f in report.failures],
                [
                    round(r.cost, 9) if r is not None else None
                    for r in report.results
                ],
            )
            if reference is None:
                reference = outcome
                assert report.failed > 0, "fail_rate=0.35 injected nothing"
                assert report.answered > 0, "every query failed; too coarse"
            else:
                assert outcome == reference, (
                    "chaos outcome depends on worker count (workers=%d)"
                    % workers
                )

    def test_chaos_failures_are_typed_injected_faults(
        self, tiny_dataset, tiny_queries
    ):
        from repro.parallel import ChaosSpec

        chaos = ChaosSpec(seed=5, fail_rate=0.35)
        report = self._run(tiny_dataset, list(tiny_queries), 2, chaos)
        for failure in report.failures:
            assert failure.error_type == "InjectedFaultError", failure

    def test_per_query_plans_differ_across_queries(self):
        from repro.parallel import ChaosSpec

        chaos = ChaosSpec(seed=9, fail_rate=0.5)
        masks = [
            _drive(chaos.plan_for(index), 20) for index in range(4)
        ]
        assert len({tuple(m) for m in masks}) > 1, (
            "per-query plans collapsed to one schedule"
        )
        assert [_drive(chaos.plan_for(2), 20)] == [masks[2]]

    def test_result_cache_under_chaos_is_rejected(self, tiny_dataset):
        from repro.parallel import CacheSpec, ChaosSpec, WorkerEnv

        with pytest.raises(InvalidParameterError):
            WorkerEnv(
                dataset=tiny_dataset,
                cache=CacheSpec(mode="full"),
                chaos=ChaosSpec(seed=1, fail_rate=0.1),
            )
