"""repro.exec — the resilience runtime between callers and solvers.

The CoSKQ exact algorithms are worst-case exponential; this package is
the layer that makes them *servable*: declare an envelope
(:class:`ExecutionPolicy`), declare a degradation order
(:class:`FallbackChain`), and :class:`ResilientExecutor` guarantees a
typed outcome — an answer stamped with :class:`ExecutionProvenance`, or
one aggregate :class:`~repro.errors.ExecutionFailedError`.  Batches get
per-query isolation via :class:`BatchExecutor`, and the whole machinery
is deterministically testable through the :mod:`repro.exec.chaos` fault
injector and the virtual :class:`ManualClock`.

Quickstart::

    from repro.exec import ExecutionPolicy, FallbackChain, ResilientExecutor

    chain = FallbackChain.of(context, "maxsum-exact", "maxsum-appro", "nn-set")
    executor = ResilientExecutor(
        chain, ExecutionPolicy(deadline_ms=50.0, work_budget=200_000)
    )
    result = executor.solve(query)          # never hangs, never raw-errors
    print(result.provenance.describe())     # who answered, who failed, ratio

See ``docs/ROBUSTNESS.md`` for the failure taxonomy and the chaos
harness cookbook.
"""

from repro.exec.batch import BatchExecutor, BatchReport, QueryFailure
from repro.exec.chaos import ChaosIndex, FaultPlan, chaos_context
from repro.exec.clock import Clock, ManualClock, MonotonicClock
from repro.exec.executor import ResilientExecutor
from repro.exec.fallback import ExecutionProvenance, FallbackChain, StageFailure
from repro.exec.policy import (
    DEFAULT_CHECKPOINT_INTERVAL,
    Budget,
    ExecutionPolicy,
)

__all__ = [
    # policy / budget
    "ExecutionPolicy",
    "Budget",
    "DEFAULT_CHECKPOINT_INTERVAL",
    # chain / provenance
    "FallbackChain",
    "StageFailure",
    "ExecutionProvenance",
    # executors
    "ResilientExecutor",
    "BatchExecutor",
    "BatchReport",
    "QueryFailure",
    # chaos + clocks
    "FaultPlan",
    "ChaosIndex",
    "chaos_context",
    "Clock",
    "ManualClock",
    "MonotonicClock",
]
