"""Process-parallel batch querying with a cross-query result cache.

The serial :class:`~repro.exec.batch.BatchExecutor` answers a workload
one query at a time; this package scales the same contract out:

- :class:`~repro.parallel.executor.ParallelBatchExecutor` — shards a
  batch over ``N`` worker processes (in-process for ``workers=1``),
  preserving positional alignment, per-query failure isolation and the
  serial engine's exact failure semantics;
- :class:`~repro.parallel.spec.WorkerEnv` /
  :class:`~repro.parallel.spec.SolverSpec` — picklable recipes so the
  dataset ships once per worker and solvers rebuild worker-side;
- :class:`~repro.parallel.worker.WorkerRuntime` — the one runtime: it
  builds the context, the result cache and one clock from a
  ``WorkerEnv`` and a fresh solver per query from a ``SolverSpec``
  (none is memoized).  ``coskq-query`` (single and ``--batch``) and
  ``coskq-serve`` solve through the same recipe and runtime;
- :class:`~repro.parallel.cache.ResultCache` — cross-query answer
  reuse, selected by :class:`~repro.parallel.spec.CacheSpec`;
- :class:`~repro.parallel.spec.ChaosSpec` — per-query deterministic
  fault plans, so chaos batches fail identically at any worker count.

The whole package is gated by the differential matrix's forked-pool
cell, ``tests/test_differential_parallel.py`` (every registry solver's
answers but the oracle's, at 1/2/4 workers, equal the serial engine's
bit for bit), by
``tests/test_metamorphic_cache.py`` (order-invariance under caching) and
by ``tests/test_exec_chaos.py`` (worker-count-independent failure sets).
See ``docs/PARALLELISM.md`` for the design notes.  The names below
resolve on first use (:mod:`repro.utils.lazy`), so the result cache and
the specs import without ``multiprocessing``.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "ParallelBatchExecutor",
    "WorkerRuntime",
    "WorkerEnv",
    "SolverSpec",
    "CacheSpec",
    "ChaosSpec",
    "CACHE_MODES",
    "CachedSolver",
    "ResultCache",
    "result_key",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("CachedSolver", "ResultCache", "result_key"),
        "executor": ("ParallelBatchExecutor",),
        "spec": ("CACHE_MODES", "CacheSpec", "ChaosSpec", "SolverSpec", "WorkerEnv"),
        "worker": ("WorkerRuntime",),
    },
)
