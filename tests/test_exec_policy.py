"""Execution policies, budgets, and the cooperative-cancellation clock.

The budget machinery is the foundation of the robustness guarantees:
typed aborts with partial progress, deadline probes bounded to one
checkpoint interval of slack, and per-attempt accounting.  These tests
pin those semantics down with a virtual clock so nothing sleeps.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    InjectedFaultError,
    InvalidParameterError,
    SearchAbortedError,
)
from repro.exec import (
    DEFAULT_CHECKPOINT_INTERVAL,
    Budget,
    ExecutionPolicy,
    ManualClock,
    MonotonicClock,
)
from repro.exec.clock import Clock


class TestClocks:
    def test_manual_clock_advances_on_sleep(self):
        clock = ManualClock()
        start = clock.now()
        clock.sleep(1.5)
        assert clock.now() == pytest.approx(start + 1.5)

    def test_manual_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            ManualClock().sleep(-0.1)

    def test_both_clocks_satisfy_protocol(self):
        assert isinstance(ManualClock(), Clock)
        assert isinstance(MonotonicClock(), Clock)

    def test_monotonic_clock_moves_forward(self):
        clock = MonotonicClock()
        a = clock.now()
        b = clock.now()
        assert b >= a


class TestBudgetWork:
    def test_tick_accumulates_work(self):
        budget = Budget(work_limit=10)
        budget.tick(3)
        budget.tick(4)
        assert budget.spent == 7

    def test_work_limit_raises_typed_error(self):
        budget = Budget(work_limit=5)
        budget.tick(5)  # exactly at the limit is fine
        with pytest.raises(BudgetExceededError) as info:
            budget.tick(1)
        err = info.value
        assert err.counter == "work"
        assert err.limit == 5
        assert err.spent == 6
        assert isinstance(err, SearchAbortedError)

    def test_abort_carries_partial_progress(self):
        budget = Budget(work_limit=2)
        counters = {"states_expanded": 41}
        with pytest.raises(BudgetExceededError) as info:
            budget.tick(3, counters=counters)
        assert info.value.counters == {"states_expanded": 41}

    def test_unlimited_budget_never_aborts_on_work(self):
        budget = Budget()
        budget.tick(10**6)
        assert budget.spent == 10**6

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            Budget(work_limit=-1)
        with pytest.raises(InvalidParameterError):
            Budget(checkpoint_interval=0)


class TestBudgetDeadline:
    def test_checkpoint_raises_after_deadline(self):
        clock = ManualClock()
        budget = Budget(deadline_at=clock.now() + 1.0, clock=clock)
        budget.checkpoint()  # in time: fine
        clock.sleep(2.0)
        with pytest.raises(DeadlineExceededError) as info:
            budget.checkpoint()
        err = info.value
        assert err.deadline_ms == pytest.approx(1000.0)
        assert err.elapsed_ms == pytest.approx(2000.0)

    def test_deadline_probed_only_every_interval(self):
        """The ±1 checkpoint interval guarantee, exactly.

        The clock is already past the deadline, but ticks between probes
        must not abort: only the tick that crosses the interval boundary
        pays for the deadline check.
        """
        clock = ManualClock()
        budget = Budget(
            deadline_at=clock.now() + 0.5, clock=clock, checkpoint_interval=64
        )
        clock.sleep(10.0)  # deadline long gone
        for _ in range(63):
            budget.tick()  # probes not yet due
        with pytest.raises(DeadlineExceededError):
            budget.tick()  # 64th tick crosses the probe boundary
        assert budget.spent == 64

    def test_checkpoint_counts_probes(self):
        budget = Budget(checkpoint_interval=2)
        for _ in range(6):
            budget.tick()
        assert budget.checkpoints == 3


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.deadline_ms is None
        assert policy.work_budget is None
        assert policy.max_retries == 0
        assert policy.always_answer is True

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ExecutionPolicy(deadline_ms=0)
        # NaN slips past ``<= 0`` and +inf is no deadline at all.
        with pytest.raises(InvalidParameterError):
            ExecutionPolicy(deadline_ms=float("nan"))
        with pytest.raises(InvalidParameterError):
            ExecutionPolicy(deadline_ms=float("inf"))
        with pytest.raises(InvalidParameterError):
            ExecutionPolicy(work_budget=-5)
        with pytest.raises(InvalidParameterError):
            ExecutionPolicy(max_retries=-1)

    def test_budget_factory_threads_policy_through(self):
        clock = ManualClock()
        policy = ExecutionPolicy(work_budget=9)
        budget = policy.budget(clock, started=clock.now(), deadline_at=None)
        assert budget.work_limit == 9
        assert budget.checkpoint_interval == DEFAULT_CHECKPOINT_INTERVAL
        assert budget.deadline_at is None

    def test_transient_classification(self):
        policy = ExecutionPolicy()
        assert policy.is_transient(InjectedFaultError("keyword_nn", 3))
        assert not policy.is_transient(BudgetExceededError("work", 1, 2))
        assert not policy.is_transient(RuntimeError("boom"))
