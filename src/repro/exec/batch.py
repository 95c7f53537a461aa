"""Batch execution with per-query isolation.

A benchmark sweep or a bulk serving endpoint runs hundreds of queries;
before this layer, one poisoned query (a pathological instance, a chaos
fault, a solver bug) killed the whole batch with whatever exception
happened to escape.  :class:`BatchExecutor` isolates each query: the
answerable ones answer, the failures are captured as structured
:class:`QueryFailure` records, and the :class:`BatchReport` keeps the
positional alignment (``results[i]`` is the answer to ``queries[i]`` or
None) so downstream aggregation stays index-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExecutionFailedError
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["QueryFailure", "BatchReport", "BatchExecutor", "solve_isolated"]


@dataclass(frozen=True)
class QueryFailure:
    """One query's failure inside an otherwise surviving batch."""

    index: int
    query: Query
    error_type: str
    message: str
    #: Per-stage causes when the solver was a resilient executor whose
    #: whole chain died; empty for direct solver failures.
    stage_failures: Tuple[object, ...] = ()

    def __str__(self) -> str:
        return "query #%d: %s (%s)" % (self.index, self.error_type, self.message)


@dataclass
class BatchReport:
    """The structured outcome of one isolated batch run."""

    solver: str
    results: List[Optional[CoSKQResult]] = field(default_factory=list)
    failures: List[QueryFailure] = field(default_factory=list)
    #: This batch's summed result-cache counters when the batch ran with
    #: a result cache (the parallel engine fills this in); None otherwise.
    cache_stats: Optional[Dict[str, int]] = None

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def answered(self) -> int:
        return sum(1 for r in self.results if r is not None)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def degraded(self) -> int:
        """Answers produced by a fallback stage, not the primary solver."""
        return sum(
            1
            for r in self.results
            if r is not None and getattr(r.provenance, "degraded", False)
        )

    def summary(self) -> str:
        """One line: ``solver: 97/100 answered (3 degraded, 3 failed)``."""
        return "%s: %d/%d answered (%d degraded, %d failed)" % (
            self.solver,
            self.answered,
            self.total,
            self.degraded,
            self.failed,
        )

    def ok(self) -> bool:
        return not self.failures


def solve_isolated(
    solve: Callable[[Query], CoSKQResult],
    index: int,
    query: Query,
    label: str,
    validate: bool,
) -> Union[CoSKQResult, QueryFailure]:
    """``solve(query)``, with any failure returned as a :class:`QueryFailure`.

    ``validate`` also fails an infeasible answer (a solver bug then
    registers as that query's failure, not a poisoned batch); ``label``
    names the solver in that message.  Both batch engines isolate each
    query through here, so they report identical failures.
    """
    try:
        result = solve(query)
        if validate and not result.is_feasible_for(query):
            raise AssertionError(
                "%s returned an infeasible set for %r" % (label, query)
            )
    except Exception as err:  # KeyboardInterrupt et al. still propagate
        stage_failures: Tuple[object, ...] = ()
        if isinstance(err, ExecutionFailedError):
            stage_failures = err.failures
        return QueryFailure(
            index=index,
            query=query,
            error_type=type(err).__name__,
            message=str(err),
            stage_failures=stage_failures,
        )
    return result


class BatchExecutor:
    """Run a solver over a workload without letting one query kill it.

    ``solver`` is anything with ``solve(query) -> CoSKQResult`` — a bare
    algorithm or (typically) a
    :class:`~repro.exec.executor.ResilientExecutor`, in which case each
    query additionally gets the executor's retry/fallback treatment
    before it can count as failed.
    """

    def __init__(self, solver: object, validate: bool = True):
        self.solver = solver
        #: Whether to assert feasibility of every answer (a solver bug
        #: then registers as that query's failure, not a poisoned batch).
        self.validate = validate

    def run(self, queries: Sequence[Query]) -> BatchReport:
        report = BatchReport(
            solver=str(getattr(self.solver, "name", type(self.solver).__name__))
        )
        for index, query in enumerate(queries):
            outcome = solve_isolated(
                self.solver.solve, index, query, report.solver, self.validate
            )
            if isinstance(outcome, QueryFailure):
                report.results.append(None)
                report.failures.append(outcome)
            else:
                report.results.append(outcome)
        return report
