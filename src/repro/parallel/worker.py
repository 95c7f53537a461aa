"""The per-process worker runtime behind the parallel batch engine.

One :class:`WorkerRuntime` lives in each pool process (module global,
installed by the pool initializer).  It builds the expensive state
exactly once — dataset indexes, the result cache — and then serves
``(index, spec, query)`` tasks, returning plain-dict payloads that the
parent reassembles into a :class:`~repro.exec.batch.BatchReport`.

Pickling constraints, made explicit:

- the :class:`~repro.parallel.spec.WorkerEnv` crosses the process
  boundary **once per worker** (``initargs``), not per task;
- each task ships only ``(int, SolverSpec, Query)`` — a few hundred
  bytes; solvers are rebuilt from the spec inside the worker and
  memoized per spec;
- each payload ships the :class:`~repro.model.result.CoSKQResult` (or a
  typed failure record) plus the cache counters that task moved; live
  exceptions never cross the boundary, so unpicklable tracebacks cannot
  poison the pool;
- under the ``fork`` start method the parent may pre-build a runtime
  (:func:`prepare_inherited_runtime`) that children adopt by token,
  skipping the per-worker index build entirely.

Failure semantics mirror :class:`~repro.exec.batch.BatchExecutor`
exactly — same error types, same messages, same per-stage causes — which
is what the differential matrix's forked-pool cell
(``tests/test_differential_parallel.py``) locks down.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, Optional, Tuple

from repro.algorithms.base import SearchContext
from repro.cost.functions import cost_by_name
from repro.errors import ExecutionFailedError
from repro.exec.chaos import ChaosIndex
from repro.model.query import Query
from repro.parallel.cache import CachedSolver, ResultCache
from repro.parallel.spec import SolverSpec, WorkerEnv
from repro.shard.index import ShardedIndexFactory

__all__ = [
    "WorkerRuntime",
    "prepare_inherited_runtime",
    "discard_inherited_runtime",
]

#: The per-process runtime, installed by :func:`_initialize`.
_RUNTIME: Optional["WorkerRuntime"] = None

#: Parent-side prebuilt runtime for fork inheritance: ``(token, runtime)``.
_INHERITED: Optional[Tuple[int, "WorkerRuntime"]] = None

_TOKENS = itertools.count(1)


class WorkerRuntime:
    """One process's solving state: context, caches, memoized solvers."""

    def __init__(self, env: WorkerEnv, validate: bool = True):
        self.env = env
        self.validate = validate
        if env.shards > 0:
            self.context = SearchContext(
                env.dataset,
                max_entries=env.max_entries,
                index_cls=ShardedIndexFactory(env.shards),
            )
        else:
            self.context = SearchContext(env.dataset, max_entries=env.max_entries)
        self.context.index  # force the build so it is paid once, not mid-batch
        self.result_cache: Optional[ResultCache] = None
        if env.cache.caches_results:
            self.result_cache = ResultCache(env.cache.result_capacity)
        self._solvers: Dict[SolverSpec, object] = {}

    # -- solver construction ----------------------------------------------------

    def solver_for(self, spec: SolverSpec, query_index: int):
        """The (memoized) solver for ``spec``; chaos rebuilds per query.

        Chaos wraps the index with a fresh per-query
        :class:`~repro.exec.chaos.ChaosIndex`, so every index call of
        query ``i`` is intercepted by plan ``i`` regardless of which
        worker runs it.
        """
        if self.env.chaos is not None:
            plan = self.env.chaos.plan_for(query_index)
            context = self.context.with_index(
                ChaosIndex(self.context.index, plan)
            )
            return spec.build(context)
        solver = self._solvers.get(spec)
        if solver is None:
            if self.env.shards > 0 and not spec.resilient:
                # Bare registry solvers route through the scatter-gather
                # engine so shard pruning happens inside the worker;
                # resilient chains run directly over the sharded facade
                # (their stages still answer bit-identically — the
                # facade conforms to the index protocol — they just
                # skip the per-query shard restriction).
                from repro.shard.engine import ScatterGather

                cost = cost_by_name(spec.cost) if spec.cost is not None else None
                solver = ScatterGather(self.context, spec.algorithm, cost=cost)
            else:
                solver = spec.build(self.context)
            if self.result_cache is not None:
                solver = CachedSolver(solver, self.result_cache, cost_name=spec.cost)
            self._solvers[spec] = solver
        return solver

    # -- one task ---------------------------------------------------------------

    def solve(self, index: int, spec: SolverSpec, query: Query) -> Dict[str, object]:
        """One isolated solve; failures become payload fields, not raises.

        The payload's ``stats`` are the cache counters this one solve
        moved (None when caching is off), so the parent sums them into
        per-batch totals however often the runtime is reused.
        """
        cache = self.result_cache
        before = cache.stats_dict("result_") if cache is not None else {}
        payload: Dict[str, object]
        try:
            solver = self.solver_for(spec, index)
            result = solver.solve(query)
            if self.validate and not result.is_feasible_for(query):
                raise AssertionError(
                    "%s returned an infeasible set for %r" % (spec.label, query)
                )
        except Exception as err:  # KeyboardInterrupt et al. still propagate
            stage_failures: Tuple[object, ...] = ()
            if isinstance(err, ExecutionFailedError):
                stage_failures = err.failures
            payload = {
                "ok": False,
                "index": index,
                "result": None,
                "error_type": type(err).__name__,
                "message": str(err),
                "stage_failures": stage_failures,
            }
        else:
            payload = {"ok": True, "index": index, "result": result}
        payload["pid"] = os.getpid()
        payload["stats"] = None
        if cache is not None:
            after = cache.stats_dict("result_")
            payload["stats"] = {key: after[key] - before[key] for key in after}
        return payload


# -- fork inheritance ---------------------------------------------------------


def prepare_inherited_runtime(env: WorkerEnv, validate: bool) -> int:
    """Pre-build a runtime in the parent for fork children to adopt.

    Returns a token; children whose initializer receives the same token
    (and therefore forked after this call) reuse the inherited runtime —
    each child gets its own copy-on-write copy, with empty caches —
    instead of rebuilding the index from the pickled dataset.
    """
    global _INHERITED
    token = next(_TOKENS)
    _INHERITED = (token, WorkerRuntime(env, validate))
    return token


def discard_inherited_runtime() -> None:
    """Drop the parent-side template (frees the prebuilt index)."""
    global _INHERITED
    _INHERITED = None


def _initialize(env: WorkerEnv, validate: bool, token: Optional[int]) -> None:
    """Pool initializer: adopt the inherited runtime or build afresh."""
    global _RUNTIME
    inherited = _INHERITED
    if token is not None and inherited is not None and inherited[0] == token:
        _RUNTIME = inherited[1]
    else:
        _RUNTIME = WorkerRuntime(env, validate)


def _run_task(index: int, spec: SolverSpec, query: Query) -> Dict[str, object]:
    """Pool task entry point (module-level, so it pickles by reference)."""
    assert _RUNTIME is not None, "worker initializer did not run"
    return _RUNTIME.solve(index, spec, query)
