"""Execution policies and the cooperative-cancellation budget.

A CoSKQ exact search is worst-case exponential; at serving time an
unbounded search is a liability, not a guarantee.  :class:`ExecutionPolicy`
declares the envelope one solve attempt must stay inside — wall-clock
deadline, work budget, retry allowance — and :class:`Budget` enforces it
*cooperatively*: solvers thread ``budget.tick()`` through their hot loops
(via :meth:`repro.algorithms.base.CoSKQAlgorithm._bump`), and the budget
raises a typed :class:`~repro.errors.BudgetExceededError` /
:class:`~repro.errors.DeadlineExceededError` carrying the solver's
partial progress the moment a limit is crossed.

The deadline is probed only every ``checkpoint_interval`` work units so
the common case costs one integer compare per tick; the abort latency is
therefore bounded by one checkpoint interval of work, which is the
"±1 checkpoint interval" slack quoted in the robustness guarantees
(docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    InjectedFaultError,
    InvalidParameterError,
)
from repro.exec.clock import Clock, MonotonicClock

__all__ = ["Budget", "ExecutionPolicy", "DEFAULT_CHECKPOINT_INTERVAL"]

#: Work units between deadline probes (a power of two; one integer
#: compare per tick between probes).
DEFAULT_CHECKPOINT_INTERVAL = 64


class Budget:
    """One solve attempt's cooperative cancellation token.

    Tracks work spent against an optional ``work_limit`` and an optional
    absolute ``deadline_at`` (in ``clock`` seconds).  Not reusable across
    attempts — the executor mints a fresh one per attempt so retry
    accounting stays per-attempt while the deadline stays global.
    """

    __slots__ = (
        "work_limit",
        "deadline_at",
        "started",
        "clock",
        "checkpoint_interval",
        "spent",
        "checkpoints",
        "_next_probe",
    )

    def __init__(
        self,
        work_limit: Optional[int] = None,
        deadline_at: Optional[float] = None,
        clock: Optional[Clock] = None,
        started: Optional[float] = None,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ):
        if checkpoint_interval < 1:
            raise InvalidParameterError("checkpoint_interval must be >= 1")
        if work_limit is not None and work_limit < 0:
            raise InvalidParameterError("work_limit must be >= 0")
        self.work_limit = work_limit
        self.deadline_at = deadline_at
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.started = started if started is not None else self.clock.now()
        self.checkpoint_interval = checkpoint_interval
        self.spent = 0
        self.checkpoints = 0
        self._next_probe = checkpoint_interval

    def tick(self, amount: int = 1, counters: Optional[Dict[str, int]] = None) -> None:
        """Charge work; abort with partial progress when a limit is hit."""
        self.spent += amount
        if self.work_limit is not None and self.spent > self.work_limit:
            raise BudgetExceededError(
                "work", self.work_limit, self.spent, counters=counters
            )
        if self.spent >= self._next_probe:
            self._next_probe = self.spent + self.checkpoint_interval
            self.checkpoint(counters)

    def checkpoint(self, counters: Optional[Dict[str, int]] = None) -> None:
        """Probe the deadline now (also called every interval by tick)."""
        self.checkpoints += 1
        if self.deadline_at is None:
            return
        now = self.clock.now()
        if now > self.deadline_at:
            raise DeadlineExceededError(
                deadline_ms=(self.deadline_at - self.started) * 1000.0,
                elapsed_ms=(now - self.started) * 1000.0,
                counters=counters,
            )

    def __repr__(self) -> str:
        return "Budget(spent=%d, work_limit=%r, deadline_at=%r)" % (
            self.spent,
            self.work_limit,
            self.deadline_at,
        )


@dataclass(frozen=True)
class ExecutionPolicy:
    """The declarative envelope one query execution must stay inside.

    - ``deadline_ms`` — wall-clock limit for the *whole* execution
      (shared across every stage and retry of a fallback chain);
    - ``work_budget`` — work-unit limit per solve attempt (each stage
      and each retry gets a fresh allowance);
    - ``max_retries`` — extra attempts per stage after a transient
      failure (an :class:`~repro.errors.InjectedFaultError`); budget and
      deadline aborts are never retried (retrying a deterministic
      blow-up cannot help), they degrade to the next stage instead;
    - ``always_answer`` — run the chain's last stage with neither the
      deadline nor the work budget when it is an approximation, so the
      cheap last resort can still answer after slow stages ate the whole
      allowance.  An exact last stage stays bound: its search is
      exponential in the worst case.  Set False to make the limits a
      hard wall for every stage.

    Every budget probes the deadline every
    :data:`DEFAULT_CHECKPOINT_INTERVAL` work units.
    """

    deadline_ms: Optional[float] = None
    work_budget: Optional[int] = None
    max_retries: int = 0
    always_answer: bool = True

    def __post_init__(self) -> None:
        # ``deadline_ms <= 0`` is False for NaN, and +inf is no deadline.
        if self.deadline_ms is not None and not (
            math.isfinite(self.deadline_ms) and self.deadline_ms > 0
        ):
            raise InvalidParameterError("deadline_ms must be finite and positive")
        if self.work_budget is not None and self.work_budget < 0:
            raise InvalidParameterError("work_budget must be >= 0")
        if self.max_retries < 0:
            raise InvalidParameterError("max_retries must be >= 0")

    def budget(
        self,
        clock: Clock,
        started: float,
        deadline_at: Optional[float],
    ) -> Budget:
        """A fresh per-attempt budget under this policy."""
        return Budget(
            work_limit=self.work_budget,
            deadline_at=deadline_at,
            clock=clock,
            started=started,
        )

    def is_transient(self, error: BaseException) -> bool:
        """Whether ``error`` is worth retrying on the same stage."""
        return isinstance(error, InjectedFaultError)
