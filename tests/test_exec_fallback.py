"""Fallback chains, the resilient executor, and batch isolation.

Covers the degradation semantics end to end against real algorithms on
the tiny fixture dataset: provenance stamping, per-attempt budgets,
global deadlines under a virtual clock, typed whole-chain failure, and
per-query isolation in batch runs.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import make_algorithm
from repro.errors import (
    BudgetExceededError,
    ExecutionFailedError,
    InfeasibleQueryError,
    InjectedFaultError,
    SearchAbortedError,
)
from repro.exec import (
    BatchExecutor,
    ExecutionPolicy,
    ExecutionProvenance,
    FallbackChain,
    ManualClock,
    ResilientExecutor,
    StageFailure,
)
from repro.exec.fallback import stage_ratio
from repro.model.query import Query
from repro.model.result import CoSKQResult


class _StubStage:
    """A scripted solver: each solve() pops the next outcome.

    Outcomes are either CoSKQResult instances (returned) or exceptions
    (raised); exhausting the script is a test bug.
    """

    def __init__(self, name, outcomes):
        self.name = name
        self.outcomes = list(outcomes)
        self.calls = 0
        self.budget = None

    def solve(self, query):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


class _SlowStage:
    """A stage that burns virtual time, then hits a budget checkpoint."""

    def __init__(self, name, clock, seconds):
        self.name = name
        self.clock = clock
        self.seconds = seconds
        self.budget = None

    def solve(self, query):
        self.clock.sleep(self.seconds)
        self.budget.checkpoint()
        raise AssertionError("the checkpoint should have aborted this stage")


@pytest.fixture(scope="module")
def answer(tiny_context, tiny_queries):
    """A genuine feasible result for stub stages to return."""
    return make_algorithm("nn-set", tiny_context).solve(tiny_queries[0])


class TestStageFailure:
    def test_from_exception_extracts_abort_counters(self):
        err = BudgetExceededError(
            "states_expanded", 100, 101, counters={"states_expanded": 101}
        )
        failure = StageFailure.from_exception("maxsum-exact", err)
        assert failure.stage == "maxsum-exact"
        assert failure.error_type == "BudgetExceededError"
        assert failure.counters == {"states_expanded": 101}

    def test_from_exception_plain_error_has_no_counters(self):
        failure = StageFailure.from_exception("s", ValueError("nope"))
        assert failure.counters == {}

    def test_str_mentions_attempts_only_when_retried(self):
        once = StageFailure("s", "E", "m")
        retried = StageFailure("s", "E", "m", attempts=3)
        assert "attempts" not in str(once)
        assert "after 3 attempts" in str(retried)


class TestProvenance:
    def test_describe_direct_answer(self):
        prov = ExecutionProvenance(
            answered_by="maxsum-exact", degraded=False, guaranteed_ratio=1.0
        )
        assert prov.describe() == "answered by maxsum-exact"

    def test_describe_degraded_includes_ratio_and_causes(self):
        prov = ExecutionProvenance(
            answered_by="nn-set",
            degraded=True,
            guaranteed_ratio=3.0,
            failures=(StageFailure("maxsum-exact", "BudgetExceededError", "x"),),
        )
        line = prov.describe()
        assert "degraded to nn-set" in line
        assert "ratio<=3" in line
        assert "maxsum-exact: BudgetExceededError" in line


class TestFallbackChain:
    def test_requires_at_least_one_stage(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            FallbackChain([])

    def test_rejects_stage_without_solve(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            FallbackChain([object()])

    def test_of_builds_registered_algorithms(self, tiny_context):
        chain = FallbackChain.of(tiny_context, "maxsum-exact", "nn-set")
        assert chain.names == ("maxsum-exact", "nn-set")
        assert chain.describe() == "maxsum-exact -> nn-set"
        assert len(chain) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "maxsum-exact,maxsum-appro,nn-set",
            "maxsum-exact -> maxsum-appro -> nn-set",
            " maxsum-exact ,maxsum-appro-> nn-set ",
        ],
    )
    def test_parse_accepts_comma_and_arrow_forms(self, tiny_context, spec):
        from repro.parallel.spec import SolverSpec

        chain = FallbackChain.of(tiny_context, *SolverSpec(chain=spec).stage_names)
        assert chain.names == ("maxsum-exact", "maxsum-appro", "nn-set")

    def test_stage_ratio(self, tiny_context):
        assert stage_ratio(make_algorithm("maxsum-exact", tiny_context)) == 1.0
        appro = make_algorithm("maxsum-appro", tiny_context)
        assert stage_ratio(appro) == pytest.approx(appro.ratio)
        assert stage_ratio(object()) is None


class TestResilientExecutor:
    def test_first_stage_answers_with_clean_provenance(
        self, tiny_context, tiny_queries
    ):
        chain = FallbackChain.of(tiny_context, "maxsum-exact", "nn-set")
        result = ResilientExecutor(chain).solve(tiny_queries[0])
        prov = result.provenance
        assert prov.answered_by == "maxsum-exact"
        assert prov.degraded is False
        assert prov.guaranteed_ratio == 1.0
        assert prov.failures == ()
        assert result.is_feasible_for(tiny_queries[0])

    def test_tight_budget_degrades_down_the_chain(
        self, tiny_context, tiny_queries
    ):
        chain = FallbackChain.of(
            tiny_context, "maxsum-exact", "maxsum-appro", "nn-set"
        )
        executor = ResilientExecutor(chain, ExecutionPolicy(work_budget=3))
        result = executor.solve(tiny_queries[0])
        prov = result.provenance
        assert prov.degraded is True
        assert prov.answered_by == "nn-set"
        assert prov.guaranteed_ratio == pytest.approx(3.0)
        assert [f.stage for f in prov.failures] == ["maxsum-exact", "maxsum-appro"]
        assert all(
            f.error_type == "BudgetExceededError" for f in prov.failures
        )
        # The abort carried the solver's partial progress.
        assert any(f.counters for f in prov.failures)
        assert result.is_feasible_for(tiny_queries[0])

    def test_hard_wall_raises_single_typed_error(self, tiny_context, tiny_queries):
        chain = FallbackChain.of(tiny_context, "maxsum-exact", "maxsum-appro")
        executor = ResilientExecutor(
            chain, ExecutionPolicy(work_budget=3, always_answer=False)
        )
        with pytest.raises(ExecutionFailedError) as info:
            executor.solve(tiny_queries[0])
        err = info.value
        assert not isinstance(err, RuntimeError)
        assert len(err.failures) == 2
        assert {f.stage for f in err.failures} == {"maxsum-exact", "maxsum-appro"}

    def test_deadline_is_global_across_stages(self, tiny_queries, tiny_context):
        """A stage that eats the whole deadline starves its successors."""
        clock = ManualClock()
        slow = _SlowStage("slow", clock, 10.0)
        never = _StubStage("never", [AssertionError("must not run")])
        chain = FallbackChain([slow, never])
        executor = ResilientExecutor(
            chain,
            ExecutionPolicy(deadline_ms=500.0, always_answer=False),
            clock=clock,
        )
        with pytest.raises(ExecutionFailedError) as info:
            executor.solve(tiny_queries[0])
        # slow raised via its budget; never was pre-empted before starting.
        assert [f.error_type for f in info.value.failures] == [
            "DeadlineExceededError",
            "DeadlineExceededError",
        ]
        assert never.calls == 0

    def test_transient_fault_retried_on_same_stage(
        self, tiny_queries, answer
    ):
        stage = _StubStage(
            "flaky", [InjectedFaultError("keyword_nn", 1), answer]
        )
        executor = ResilientExecutor(
            FallbackChain([stage]), ExecutionPolicy(max_retries=1)
        )
        result = executor.solve(tiny_queries[0])
        assert stage.calls == 2
        assert result.provenance.attempts == 2
        assert result.provenance.degraded is False

    def test_transient_fault_without_retries_degrades(
        self, tiny_queries, answer
    ):
        flaky = _StubStage("flaky", [InjectedFaultError("keyword_nn", 1)])
        backup = _StubStage("backup", [answer])
        executor = ResilientExecutor(
            FallbackChain([flaky, backup]), ExecutionPolicy(max_retries=0)
        )
        result = executor.solve(tiny_queries[0])
        assert result.provenance.answered_by == "backup"
        assert result.provenance.degraded is True
        assert result.provenance.failures[0].error_type == "InjectedFaultError"

    def test_infeasible_query_propagates_untouched(
        self, tiny_context, tiny_dataset
    ):
        chain = FallbackChain.of(tiny_context, "maxsum-exact", "nn-set")
        executor = ResilientExecutor(chain)
        # A keyword id far beyond the tiny 12-word vocabulary.
        query = Query.create(500.0, 500.0, [10**6])
        with pytest.raises(InfeasibleQueryError):
            executor.solve(query)

    def test_budget_attribute_restored_after_solve(
        self, tiny_context, tiny_queries
    ):
        chain = FallbackChain.of(tiny_context, "maxsum-exact")
        executor = ResilientExecutor(chain, ExecutionPolicy(work_budget=10**9))
        executor.solve(tiny_queries[0])
        assert chain.stages[0].budget is None

    def test_executor_is_a_drop_in_solver(self, tiny_context, tiny_queries):
        from repro.bench.runner import time_algorithm

        chain = FallbackChain.of(tiny_context, "maxsum-appro", "nn-set")
        executor = ResilientExecutor(chain)
        timing = time_algorithm(executor, tiny_queries[:3])
        assert timing.algorithm == "exec[maxsum-appro|nn-set]"
        assert timing.times.count == 3


class TestDeadlineBetweenStages:
    """The deadline expires *between* fallback stages.

    The serving daemon leans on this exact semantics: a request whose
    deadline dies after stage 1 must still answer from the exempt last
    stage, and the provenance must name every stage that was skipped
    without ever running (so ``/stats`` failure classes and the response
    provenance agree on what happened).
    """

    def test_skipped_stages_recorded_and_last_stage_answers(self, answer):
        clock = ManualClock()
        slow = _SlowStage("slow", clock, 10.0)
        skipped = _StubStage("skipped", [AssertionError("must not run")])
        last = _StubStage("last", [answer])
        executor = ResilientExecutor(
            FallbackChain([slow, skipped, last]),
            ExecutionPolicy(deadline_ms=500.0, always_answer=True),
            clock=clock,
        )
        result = executor.solve(Query.create(0.0, 0.0, [0]))
        # the middle stage was pre-empted before its solve() ever ran
        assert skipped.calls == 0
        assert last.calls == 1
        prov = result.provenance
        assert prov.answered_by == "last"
        assert prov.degraded is True
        assert [f.stage for f in prov.failures] == ["slow", "skipped"]
        assert [f.error_type for f in prov.failures] == [
            "DeadlineExceededError",
            "DeadlineExceededError",
        ]

    def test_result_comes_from_last_completed_stage_not_a_raise(self, answer):
        clock = ManualClock()
        slow = _SlowStage("slow", clock, 10.0)
        last = _StubStage("last", [answer])
        executor = ResilientExecutor(
            FallbackChain([slow, last]),
            ExecutionPolicy(deadline_ms=1.0, always_answer=True),
            clock=clock,
        )
        result = executor.solve(Query.create(0.0, 0.0, [0]))
        assert result.cost == answer.cost
        assert result.object_ids == answer.object_ids

    def test_exact_last_stage_keeps_the_deadline(self):
        """Only an approximation is exempt: a lone exact stage stays bound."""
        clock = ManualClock()
        slow = _SlowStage("slow", clock, 10.0)
        slow.exact = True
        executor = ResilientExecutor(
            FallbackChain([slow]),
            ExecutionPolicy(deadline_ms=500.0, always_answer=True),
            clock=clock,
        )
        with pytest.raises(ExecutionFailedError) as info:
            executor.solve(Query.create(0.0, 0.0, [0]))
        assert [f.error_type for f in info.value.failures] == [
            "DeadlineExceededError"
        ]

    def test_hard_wall_lists_every_starved_stage(self):
        clock = ManualClock()
        slow = _SlowStage("slow", clock, 10.0)
        second = _StubStage("second", [AssertionError("must not run")])
        third = _StubStage("third", [AssertionError("must not run")])
        executor = ResilientExecutor(
            FallbackChain([slow, second, third]),
            ExecutionPolicy(deadline_ms=500.0, always_answer=False),
            clock=clock,
        )
        with pytest.raises(ExecutionFailedError) as info:
            executor.solve(Query.create(0.0, 0.0, [0]))
        assert [f.stage for f in info.value.failures] == [
            "slow",
            "second",
            "third",
        ]
        assert second.calls == 0 and third.calls == 0


class TestBatchExecutor:
    def test_isolation_one_poisoned_query_does_not_kill_batch(
        self, tiny_queries, answer
    ):
        outcomes = []
        for i in range(len(tiny_queries)):
            outcomes.append(ValueError("poisoned") if i == 1 else answer)
        stage = _StubStage("mixed", outcomes)
        report = BatchExecutor(stage, validate=False).run(tiny_queries)
        assert report.total == len(tiny_queries)
        assert report.failed == 1
        assert report.answered == len(tiny_queries) - 1
        assert report.results[1] is None
        assert report.failures[0].index == 1
        assert report.failures[0].error_type == "ValueError"

    def test_chain_failures_surface_in_query_failure(
        self, tiny_context, tiny_queries
    ):
        chain = FallbackChain.of(tiny_context, "maxsum-exact", "maxsum-appro")
        executor = ResilientExecutor(
            chain, ExecutionPolicy(work_budget=3, always_answer=False)
        )
        report = BatchExecutor(executor).run(tiny_queries[:2])
        assert report.failed == 2
        assert [f.error_type for f in report.failures] == ["ExecutionFailedError"] * 2
        assert len(report.failures[0].stage_failures) == 2

    def test_degraded_counted_from_provenance(self, tiny_context, tiny_queries):
        chain = FallbackChain.of(
            tiny_context, "maxsum-exact", "maxsum-appro", "nn-set"
        )
        executor = ResilientExecutor(chain, ExecutionPolicy(work_budget=3))
        report = BatchExecutor(executor).run(tiny_queries[:4])
        assert report.answered == 4
        expected = sum(
            1 for r in report.results if r.provenance.degraded
        )
        assert report.degraded == expected
        assert expected >= 1  # a 3-tick budget must degrade most queries
        assert "%d degraded" % expected in report.summary()
        assert report.ok()

    def test_validation_catches_infeasible_answers(self, tiny_queries, answer):
        # The stub returns query #0's answer for every query; validation
        # must record a per-query failure exactly where that set fails to
        # cover the query's keywords, instead of poisoning the run.
        stage = _StubStage("wrong", [answer] * len(tiny_queries))
        report = BatchExecutor(stage, validate=True).run(tiny_queries)
        assert report.total == len(tiny_queries)
        for index, query in enumerate(tiny_queries):
            expected_ok = answer.is_feasible_for(query)
            assert (report.results[index] is not None) == expected_ok
        for failure in report.failures:
            assert failure.error_type == "AssertionError"
