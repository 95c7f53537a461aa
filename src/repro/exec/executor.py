"""The deadline/budget-aware resilient query executor.

:class:`ResilientExecutor` sits between callers and solvers: it runs a
:class:`~repro.exec.fallback.FallbackChain` under an
:class:`~repro.exec.policy.ExecutionPolicy`, attaching a fresh
:class:`~repro.exec.policy.Budget` to each solve attempt so exponential
searches abort promptly, retrying transient faults, degrading to the
next stage on typed aborts, and stamping the answer with
:class:`~repro.exec.fallback.ExecutionProvenance`.

Semantics, precisely:

- the **deadline** is global: one allowance shared by every stage and
  retry (a slow exact stage eats into the approximation's time);
- the **work budget** is per attempt: every stage/retry gets a fresh
  counter (work limits exist to bound one search, not to ration the
  chain);
- **transient** errors (injected chaos faults) are retried up to
  ``max_retries`` times on the same stage;
- **deterministic** aborts (budget, deadline) and other library errors
  degrade immediately — retrying a deterministic blow-up cannot help;
- :class:`~repro.errors.InfeasibleQueryError` propagates untouched: no
  amount of fallback covers a keyword no object carries;
- when every stage fails, the executor raises one
  :class:`~repro.errors.ExecutionFailedError` aggregating the per-stage
  causes — callers never see a raw stage exception, let alone a bare
  ``RuntimeError``.

The executor duck-types the solver interface (``solve(query)`` plus a
``name``), so it can be dropped anywhere an algorithm is expected — the
benchmark runner times executors exactly like bare solvers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import (
    CoSKQError,
    DeadlineExceededError,
    ExecutionFailedError,
    InfeasibleQueryError,
    SearchAbortedError,
)
from repro.exec.clock import Clock, MonotonicClock
from repro.exec.fallback import (
    ExecutionProvenance,
    FallbackChain,
    StageFailure,
    stage_ratio,
)
from repro.exec.policy import Budget, ExecutionPolicy
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["ResilientExecutor"]


class ResilientExecutor:
    """Run a fallback chain of solvers inside an execution policy."""

    def __init__(
        self,
        chain: FallbackChain,
        policy: Optional[ExecutionPolicy] = None,
        clock: Optional[Clock] = None,
    ):
        self.chain = chain
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        #: Solver-compatible identity for reports and benchmarks.
        self.name = "exec[%s]" % "|".join(chain.names)

    def solve(self, query: Query) -> CoSKQResult:
        """The first stage's answer, degraded along the chain as needed.

        Returns a :class:`CoSKQResult` stamped with
        :class:`ExecutionProvenance`; raises
        :class:`~repro.errors.ExecutionFailedError` when the whole chain
        fails and :class:`~repro.errors.InfeasibleQueryError` when the
        query is uncoverable.
        """
        policy = self.policy
        started = self.clock.now()
        deadline_at = (
            started + policy.deadline_ms / 1000.0
            if policy.deadline_ms is not None
            else None
        )
        failures: List[StageFailure] = []
        last_index = len(self.chain) - 1
        for index, stage in enumerate(self.chain):
            # Only an approximation is exempt: an exact last stage is
            # exponential in the worst case, so it stays bound.
            exempt = (
                policy.always_answer
                and index == last_index
                and not getattr(stage, "exact", False)
            )
            attempts = 0
            while True:
                attempts += 1
                outcome = self._attempt(stage, query, started, deadline_at, exempt)
                if isinstance(outcome, CoSKQResult):
                    return outcome.with_provenance(
                        ExecutionProvenance(
                            answered_by=str(getattr(stage, "name", type(stage).__name__)),
                            degraded=bool(failures),
                            guaranteed_ratio=stage_ratio(stage),
                            failures=tuple(failures),
                            attempts=attempts,
                            elapsed_ms=(self.clock.now() - started) * 1000.0,
                        )
                    )
                if policy.is_transient(outcome) and attempts <= policy.max_retries:
                    continue  # same stage, fresh budget
                failures.append(
                    StageFailure.from_exception(
                        str(getattr(stage, "name", type(stage).__name__)),
                        outcome,
                        attempts=attempts,
                    )
                )
                break
        raise ExecutionFailedError(failures)

    # -- one solve attempt -----------------------------------------------------

    def _attempt(
        self,
        stage: object,
        query: Query,
        started: float,
        deadline_at: Optional[float],
        exempt: bool = False,
    ):
        """One budgeted solve; returns the result or the failure.

        ``exempt`` (the ``always_answer`` last stage, when it is an
        approximation) lifts both the deadline and the work budget: the
        last resort exists to answer, and it is cheap by construction.
        Returning (not raising) the exception keeps the retry/degrade
        decision in one place in :meth:`solve`.
        """
        if exempt:
            budget = Budget(clock=self.clock, started=started)
        else:
            budget = self.policy.budget(self.clock, started, deadline_at)
        try:
            # A stage whose deadline already passed must not even start:
            # its setup work (index walks, N(q)) is outside tick coverage.
            budget.checkpoint()
        except DeadlineExceededError as err:
            return err
        had_budget_attr = hasattr(stage, "budget")
        previous = getattr(stage, "budget", None)
        if had_budget_attr:
            stage.budget = budget
        try:
            result = stage.solve(query)
            if not isinstance(result, CoSKQResult):
                raise TypeError(
                    "stage %r returned %r, not a CoSKQResult"
                    % (getattr(stage, "name", stage), type(result).__name__)
                )
            return result
        except InfeasibleQueryError:
            raise  # semantic, not operational: fallback cannot fix coverage
        except SearchAbortedError as err:
            return err
        except CoSKQError as err:
            return err
        finally:
            if had_budget_attr:
                stage.budget = previous

    def __repr__(self) -> str:
        return "ResilientExecutor(%s, policy=%r)" % (
            self.chain.describe(),
            self.policy,
        )
