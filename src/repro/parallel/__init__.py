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
- :class:`~repro.parallel.cache.ResultCache` — cross-query answer
  reuse, selected by :class:`~repro.parallel.spec.CacheSpec`;
- :class:`~repro.parallel.spec.ChaosSpec` — per-query deterministic
  fault plans, so chaos batches fail identically at any worker count.

The whole package is gated by a differential/metamorphic test suite:
``tests/test_differential_parallel.py`` (cost identity vs the serial
engine at 1/2/4 workers for every registry solver),
``tests/test_metamorphic_cache.py`` (order-invariance under caching) and
``tests/test_exec_chaos.py`` (worker-count-independent failure sets).
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
