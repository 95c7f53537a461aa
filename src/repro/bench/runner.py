"""Measurement plumbing: run algorithms over query workloads.

The paper's evaluation reports two measurements per experimental cell:

- *running time* — average wall time per query for each algorithm,
- *approximation ratio* — per query, approximate cost divided by the
  optimal cost, reported as (average, minimum, maximum) bars.

:func:`time_algorithm` and :func:`ratio_study` produce exactly those,
with feasibility asserted on every result so a silently wrong algorithm
cannot produce a pretty number.

Every entry point here takes a :class:`Solver` — anything with
``solve(query) -> CoSKQResult`` and a ``name`` — so a
:class:`repro.exec.ResilientExecutor` can be timed exactly like a bare
algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Sequence

from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.utils.stats import Summary, summarize

__all__ = [
    "Solver",
    "TimingResult",
    "RatioResult",
    "time_algorithm",
    "ratio_study",
    "solve_all",
]


class Solver(Protocol):
    """What the measurement plumbing needs from a solver.

    Satisfied by every :class:`~repro.algorithms.base.CoSKQAlgorithm`,
    the network solvers, and :class:`repro.exec.ResilientExecutor`.
    """

    name: str

    def solve(self, query: Query) -> CoSKQResult: ...


@dataclass(frozen=True)
class TimingResult:
    """Per-algorithm timing over a workload."""

    algorithm: str
    times: Summary
    costs: Summary
    set_sizes: Summary
    results: tuple = field(repr=False, default=())

    @property
    def mean_time(self) -> float:
        return self.times.mean


@dataclass(frozen=True)
class RatioResult:
    """Per-algorithm approximation ratios against an exact reference."""

    algorithm: str
    ratios: Summary
    optimal_fraction: float  # fraction of queries answered exactly


def solve_all(
    algorithm: Solver, queries: Sequence[Query]
) -> List[CoSKQResult]:
    """Run one algorithm over all queries, asserting feasibility."""
    out: List[CoSKQResult] = []
    for query in queries:
        result = algorithm.solve(query)
        if not result.is_feasible_for(query):
            raise AssertionError(
                "%s returned an infeasible set for %r" % (algorithm.name, query)
            )
        out.append(result)
    return out


def time_algorithm(
    algorithm: Solver,
    queries: Sequence[Query],
    keep_results: bool = True,
) -> TimingResult:
    """Wall-time one algorithm per query (plus cost/set-size summaries)."""
    times: List[float] = []
    results: List[CoSKQResult] = []
    for query in queries:
        started = time.perf_counter()
        result = algorithm.solve(query)
        times.append(time.perf_counter() - started)
        if not result.is_feasible_for(query):
            raise AssertionError(
                "%s returned an infeasible set for %r" % (algorithm.name, query)
            )
        results.append(result)
    return TimingResult(
        algorithm=algorithm.name,
        times=summarize(times),
        costs=summarize([r.cost for r in results]),
        set_sizes=summarize([float(len(r)) for r in results]),
        results=tuple(results) if keep_results else (),
    )


def ratio_study(
    exact: Solver,
    approximations: Sequence[Solver],
    queries: Sequence[Query],
    tie_tolerance: float = 1e-9,
    optima: Sequence[CoSKQResult] | None = None,
) -> Dict[str, RatioResult]:
    """Approximation ratios of each algorithm against ``exact``.

    ``optimal_fraction`` counts queries where the approximate cost ties
    the optimum within ``tie_tolerance`` (relative) — the paper reports
    e.g. "ratio exactly 1 for more than 90% of queries".  Pass ``optima``
    (results of ``exact`` over the same queries, e.g. from a timing run)
    to avoid solving the exact problem twice.
    """
    if optima is None:
        optima = solve_all(exact, queries)
    out: Dict[str, RatioResult] = {}
    for algorithm in approximations:
        ratios: List[float] = []
        exact_hits = 0
        for query, optimum in zip(queries, optima):
            result = algorithm.solve(query)
            if not result.is_feasible_for(query):
                raise AssertionError(
                    "%s returned an infeasible set for %r" % (algorithm.name, query)
                )
            if optimum.cost <= 0.0:
                ratio = 1.0
            else:
                ratio = result.cost / optimum.cost
            # Guard against the reference being beaten by more than noise,
            # which would mean the "exact" algorithm is not exact.
            if ratio < 1.0 - 1e-6:
                raise AssertionError(
                    "approximation %s beat exact %s on %r (ratio %.9f)"
                    % (algorithm.name, exact.name, query, ratio)
                )
            ratio = max(ratio, 1.0)
            ratios.append(ratio)
            if ratio <= 1.0 + tie_tolerance:
                exact_hits += 1
        out[algorithm.name] = RatioResult(
            algorithm=algorithm.name,
            ratios=summarize(ratios),
            optimal_fraction=exact_hits / len(queries) if queries else 0.0,
        )
    return out
