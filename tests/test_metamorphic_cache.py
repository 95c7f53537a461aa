"""Metamorphic properties of the result cache.

The cache must be *invisible* except in speed: permuting a batch or
re-running it must leave every per-query answer unchanged while
actually exercising the cache (hit counts are asserted positive, so
these tests cannot silently pass against a disconnected cache).
"""

from __future__ import annotations

import random

import pytest

from conftest import make_random_instance
from repro.algorithms.registry import make_algorithm
from repro.parallel import (
    CacheSpec,
    CachedSolver,
    ParallelBatchExecutor,
    ResultCache,
    SolverSpec,
    WorkerEnv,
)
from repro.parallel.cache import CacheStats

TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def instance():
    return make_random_instance(7, num_objects=50, vocab=8)


def costs_by_query(report, batch):
    return {batch[i]: (r.cost if r is not None else None) for i, r in enumerate(report.results)}


class TestBatchMetamorphic:
    @pytest.mark.parametrize("mode", ["full"])
    def test_shuffled_batch_same_answers(self, instance, mode):
        """Permutation invariance: per-query costs ignore batch order."""
        dataset, _, queries = instance
        batch = [queries[i % len(queries)] for i in range(12)]
        shuffled = list(batch)
        random.Random(42).shuffle(shuffled)
        env = WorkerEnv(dataset=dataset, cache=CacheSpec(mode=mode))
        spec = SolverSpec(algorithm="maxsum-appro")
        with ParallelBatchExecutor(env, spec) as engine:
            in_order = engine.run(batch)
        with ParallelBatchExecutor(env, spec) as engine:
            permuted = engine.run(shuffled)
        assert costs_by_query(in_order, batch) == costs_by_query(
            permuted, shuffled
        )
        assert in_order.cache_stats is not None
        assert in_order.cache_stats["result_hits"] > 0, (
            "skewed batch never hit the cache"
        )

    def test_cached_batch_equals_uncached_batch(self, instance):
        dataset, _, queries = instance
        batch = [queries[i % len(queries)] for i in range(9)]
        spec = SolverSpec(algorithm="maxsum-exact")
        with ParallelBatchExecutor(WorkerEnv(dataset=dataset), spec) as engine:
            plain = engine.run(batch)
        env = WorkerEnv(dataset=dataset, cache=CacheSpec(mode="full"))
        with ParallelBatchExecutor(env, spec) as engine:
            cached = engine.run(batch)
        assert [r.cost for r in plain.results] == [r.cost for r in cached.results]
        assert cached.cache_stats["result_hits"] > 0
        assert plain.cache_stats is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_executor_counts_each_batch_once(self, instance, workers):
        """A report's cache counters describe its own batch only."""
        dataset, _, queries = instance
        batch = [queries[i % 3] for i in range(6)]
        env = WorkerEnv(dataset=dataset, cache=CacheSpec(mode="full"))
        spec = SolverSpec(algorithm="maxsum-appro")
        with ParallelBatchExecutor(env, spec, workers=workers) as engine:
            reports = [engine.run(batch), engine.run(batch)]
        for report in reports:
            stats = report.cache_stats
            assert stats["result_hits"] + stats["result_misses"] == len(batch)


class TestResultCache:
    def test_duplicate_queries_reuse_answers(self, instance):
        _, context, queries = instance
        cache = ResultCache(capacity=16)
        solver = CachedSolver(make_algorithm("maxsum-appro", context), cache)
        query = queries[0]
        first = solver.solve(query)
        second = solver.solve(query)
        assert second is first, "duplicate solve should return the cached object"
        assert cache.stats.hits == 1

    def test_distinct_solvers_do_not_collide(self, instance):
        """Same query, different algorithm → different cache entries."""
        _, context, queries = instance
        cache = ResultCache(capacity=16)
        exact = CachedSolver(make_algorithm("maxsum-exact", context), cache)
        appro = CachedSolver(make_algorithm("maxsum-appro", context), cache)
        query = queries[0]
        exact_result = exact.solve(query)
        appro_result = appro.solve(query)
        assert len(cache) == 2
        assert exact.solve(query) is exact_result
        assert appro.solve(query) is appro_result

    def test_eviction_respects_capacity(self, instance):
        _, context, queries = instance
        cache = ResultCache(capacity=1)
        solver = CachedSolver(make_algorithm("maxsum-appro", context), cache)
        for query in queries:
            solver.solve(query)
        assert len(cache) == 1
        assert cache.stats.evictions == len(queries) - 1

    def test_stats_snapshot_shape(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.as_dict(prefix="x_") == {
            "x_hits": 3,
            "x_misses": 1,
            "x_evictions": 0,
        }
