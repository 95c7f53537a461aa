"""The process-parallel batch query engine.

:class:`ParallelBatchExecutor` runs a query batch across ``workers``
processes and returns the exact same :class:`~repro.exec.batch.BatchReport`
a serial :class:`~repro.exec.batch.BatchExecutor` would: positional
alignment (``results[i]`` answers ``queries[i]`` or is None), typed
:class:`~repro.exec.batch.QueryFailure` records sorted by index, and
per-query isolation — one poisoned query never kills the batch, let
alone the pool.

Engineering decisions worth knowing:

- ``workers=1`` never touches multiprocessing: the batch runs through a
  local :class:`~repro.parallel.worker.WorkerRuntime` in-process, so the
  degenerate case is deterministic, debuggable and fork-free — and still
  exercises the identical solve/cache/failure path as the pooled case.
- The dataset ships **once per worker** via the pool initializer; tasks
  carry only ``(index, SolverSpec, Query)``.  Under the ``fork`` start
  method the engine additionally pre-builds the runtime in the parent so
  children inherit the index copy-on-write instead of rebuilding it.
- Each payload carries the cache counters its own task moved; the
  parent sums them into :attr:`BatchReport.cache_stats`, so a report
  counts its own batch only, however often the pool is reused.
- Results arrive in any order; the report is reassembled positionally,
  so worker scheduling can never reorder answers.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.errors import InvalidParameterError
from repro.exec.batch import BatchReport, QueryFailure
from repro.model.query import Query
from repro.parallel import worker as worker_mod
from repro.parallel.spec import SolverSpec, WorkerEnv
from repro.parallel.worker import WorkerRuntime, _initialize, _run_task

__all__ = ["ParallelBatchExecutor"]


class ParallelBatchExecutor:
    """Run query batches over a worker pool (or in-process for 1 worker).

    Usable as a context manager; :meth:`run` may be called repeatedly —
    the pool (and its per-worker caches) persists across batches until
    :meth:`close`.
    """

    def __init__(
        self,
        env: WorkerEnv,
        spec: Optional[SolverSpec] = None,
        workers: int = 1,
    ):
        if workers < 1:
            raise InvalidParameterError("workers must be >= 1, got %d" % workers)
        self.env = env
        self.spec = spec if spec is not None else SolverSpec()
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._local: Optional[WorkerRuntime] = None

    # -- lifecycle --------------------------------------------------------------

    def _local_runtime(self) -> WorkerRuntime:
        if self._local is None:
            self._local = WorkerRuntime(self.env)
        return self._local

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context()
            token: Optional[int] = None
            if context.get_start_method() == "fork":
                token = worker_mod.prepare_inherited_runtime(self.env)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_initialize,
                initargs=(self.env, token),
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down and drop local/inherited runtimes."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        worker_mod.discard_inherited_runtime()
        self._local = None

    def __enter__(self) -> "ParallelBatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution --------------------------------------------------------------

    def run(
        self, queries: Sequence[Query], spec: Optional[SolverSpec] = None
    ) -> BatchReport:
        """Solve every query; identical semantics to the serial executor."""
        spec = spec if spec is not None else self.spec
        queries = list(queries)
        if self.workers == 1:
            runtime = self._local_runtime()
            payloads = [
                runtime.solve(index, spec, query)
                for index, query in enumerate(queries)
            ]
        else:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_run_task, index, spec, query)
                for index, query in enumerate(queries)
            ]
            payloads = [future.result() for future in futures]
        return self._assemble(spec, queries, payloads)

    def _assemble(
        self,
        spec: SolverSpec,
        queries: Sequence[Query],
        payloads: Sequence[Dict[str, object]],
    ) -> BatchReport:
        results: List[object] = [None] * len(queries)
        failures: List[QueryFailure] = []
        cache_stats: Dict[str, int] = {}
        pids = set()
        for payload in payloads:
            stats = payload["stats"]
            if stats is not None:
                pids.add(payload["pid"])
                for key, value in stats.items():
                    cache_stats[key] = cache_stats.get(key, 0) + value
            outcome = payload["outcome"]
            if isinstance(outcome, QueryFailure):
                failures.append(outcome)
            else:
                results[payload["index"]] = outcome
        failures.sort(key=lambda failure: failure.index)
        return BatchReport(
            solver=spec.label,
            results=results,
            failures=failures,
            cache_stats=dict(cache_stats, workers=len(pids)) if pids else None,
        )

    def __repr__(self) -> str:
        return "ParallelBatchExecutor(workers=%d, spec=%r, cache=%s)" % (
            self.workers,
            self.spec.label,
            self.env.cache.mode,
        )
