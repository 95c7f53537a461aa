"""The one solving runtime behind the batch engine, the CLI and the daemon.

A :class:`WorkerRuntime` turns a :class:`~repro.parallel.spec.WorkerEnv`
into solving state — the single or sharded
:class:`~repro.algorithms.base.SearchContext`, the result cache and one
clock — and a :class:`~repro.parallel.spec.SolverSpec` into a fresh
solver per query.  One lives in each pool process (module global,
installed by the pool initializer), one serves ``coskq-query`` in
process, and one sits behind each ``coskq-serve``
:class:`~repro.serve.service.QueryService`.  It builds the expensive
state exactly once and then serves ``(index, spec, query)`` tasks,
returning plain-dict payloads that the parent reassembles into a
:class:`~repro.exec.batch.BatchReport`.

Pickling constraints, made explicit:

- the :class:`~repro.parallel.spec.WorkerEnv` crosses the process
  boundary **once per worker** (``initargs``), not per task;
- each task ships only ``(int, SolverSpec, Query)`` — a few hundred
  bytes; a solver is rebuilt from the spec for every query, never
  shared, because it carries counters and an attached budget;
- each payload ships the :class:`~repro.model.result.CoSKQResult` or its
  :class:`~repro.exec.batch.QueryFailure` plus the cache counters that
  task moved; live exceptions never cross the boundary, so unpicklable
  tracebacks cannot poison the pool;
- under the ``fork`` start method the parent may pre-build a runtime
  (:func:`prepare_inherited_runtime`) that children adopt by token,
  skipping the per-worker index build entirely.

Each query is isolated by :func:`~repro.exec.batch.solve_isolated`, the
routine :class:`~repro.exec.batch.BatchExecutor` uses — same error
types, same messages, same per-stage causes — which is what the
differential matrix's forked-pool cell
(``tests/test_differential_parallel.py``) locks down.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, Optional, Tuple

from repro.algorithms.base import SearchContext
from repro.cost.functions import cost_by_name
from repro.exec.batch import solve_isolated
from repro.exec.chaos import chaos_context
from repro.exec.clock import Clock, MonotonicClock
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
    """One process's solving state: context, result cache and clock.

    ``clock`` is the one time source of every solver built here: chaos
    latency sleeps on it and the resilient executor's deadline reads it,
    so injected slowness always reaches the deadline.
    """

    def __init__(self, env: WorkerEnv, clock: Optional[Clock] = None):
        self.env = env
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        if env.shards > 0:
            self.context = SearchContext(
                env.dataset, index_cls=ShardedIndexFactory(env.shards)
            )
        else:
            self.context = SearchContext(env.dataset)
        self.context.index  # force the build so it is paid once, not mid-batch
        self.result_cache: Optional[ResultCache] = None
        if env.cache.caches_results:
            self.result_cache = ResultCache()

    # -- solver construction ----------------------------------------------------

    def solver_for(self, spec: SolverSpec, query_index: int):
        """A fresh solver for query ``query_index`` of ``spec``.

        Chaos wraps the index in a fresh per-query
        :class:`~repro.exec.chaos.ChaosIndex` on the runtime's clock, so
        every index call of query ``i`` is intercepted by plan ``i``
        regardless of which worker runs it.  Over shards, a bare spec
        runs through the :class:`~repro.shard.engine.ScatterGather`
        engine, so shard pruning happens inside the worker; resilient
        chains run directly over the sharded facade (the facade conforms
        to the index protocol, so their stages answer bit-identically).
        With result caching on, a :class:`CachedSolver` goes in front.
        """
        chaos = self.env.chaos
        if chaos is not None:
            plan = chaos.plan_for(query_index)
            context = chaos_context(self.context, plan, clock=self.clock)
            return spec.build(context, clock=self.clock)
        if self.env.shards > 0 and not spec.resilient:
            from repro.shard.engine import ScatterGather

            cost = cost_by_name(spec.cost) if spec.cost is not None else None
            solver = ScatterGather(self.context, spec.algorithm, cost=cost)
        else:
            solver = spec.build(self.context, clock=self.clock)
        if self.result_cache is not None:
            solver = CachedSolver(solver, self.result_cache, cost_name=spec.cost)
        return solver

    # -- one task ---------------------------------------------------------------

    def solve(self, index: int, spec: SolverSpec, query: Query) -> Dict[str, object]:
        """One isolated solve; a failure becomes the payload's outcome.

        The payload's ``stats`` are the cache counters this one solve
        moved (None when caching is off), so the parent sums them into
        per-batch totals however often the runtime is reused.
        """
        cache = self.result_cache
        before = cache.stats_dict("result_") if cache is not None else {}
        outcome = solve_isolated(
            lambda q: self.solver_for(spec, index).solve(q),
            index,
            query,
            spec.label,
            validate=True,
        )
        stats = None
        if cache is not None:
            after = cache.stats_dict("result_")
            stats = {key: after[key] - before[key] for key in after}
        return {"index": index, "outcome": outcome, "pid": os.getpid(), "stats": stats}


# -- fork inheritance ---------------------------------------------------------


def prepare_inherited_runtime(env: WorkerEnv) -> int:
    """Pre-build a runtime in the parent for fork children to adopt.

    Returns a token; children whose initializer receives the same token
    (and therefore forked after this call) reuse the inherited runtime —
    each child gets its own copy-on-write copy, with empty caches —
    instead of rebuilding the index from the pickled dataset.
    """
    global _INHERITED
    token = next(_TOKENS)
    _INHERITED = (token, WorkerRuntime(env))
    return token


def discard_inherited_runtime() -> None:
    """Drop the parent-side template (frees the prebuilt index)."""
    global _INHERITED
    _INHERITED = None


def _initialize(env: WorkerEnv, token: Optional[int]) -> None:
    """Pool initializer: adopt the inherited runtime or build afresh."""
    global _RUNTIME
    inherited = _INHERITED
    if token is not None and inherited is not None and inherited[0] == token:
        _RUNTIME = inherited[1]
    else:
        _RUNTIME = WorkerRuntime(env)


def _run_task(index: int, spec: SolverSpec, query: Query) -> Dict[str, object]:
    """Pool task entry point (module-level, so it pickles by reference)."""
    assert _RUNTIME is not None, "worker initializer did not run"
    return _RUNTIME.solve(index, spec, query)
