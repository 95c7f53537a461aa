"""Metamorphic properties of the memoizing caches.

The caches must be *invisible* except in speed: permuting a batch,
re-running it, or answering it through a cache-wrapped index must leave
every per-query answer unchanged while actually exercising the cache
(hit rates are asserted positive, so these tests cannot silently pass
against a disconnected cache).
"""

from __future__ import annotations

import random

import pytest

from conftest import make_random_instance
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.index.cache import CacheStats, CachingIndex
from repro.index.protocol import SpatialTextIndex
from repro.parallel import (
    CacheSpec,
    CachedSolver,
    ParallelBatchExecutor,
    ResultCache,
    SolverSpec,
    WorkerEnv,
)

TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def instance():
    return make_random_instance(7, num_objects=50, vocab=8)


def costs_by_query(report, batch):
    return {batch[i]: (r.cost if r is not None else None) for i, r in enumerate(report.results)}


class TestCachingIndexConformance:
    def test_structural_protocol_conformance(self, instance):
        _, context, _ = instance
        wrapped = CachingIndex(context.index)
        assert isinstance(wrapped, SpatialTextIndex)

    def test_wrapped_context_answers_identically(self, instance):
        """Every registry solver: cache-wrapped index == plain index."""
        _, context, queries = instance
        cache = CachingIndex(context.index)
        cached_context = context.with_index(cache)
        for name in ALGORITHM_NAMES:
            plain = make_algorithm(name, context)
            cached = make_algorithm(name, cached_context)
            for query in queries:
                expected = plain.solve(query)
                actual = cached.solve(query)
                assert abs(expected.cost - actual.cost) <= TOLERANCE, name
                assert {o.oid for o in actual.objects} == {
                    o.oid for o in expected.objects
                }, name
        assert cache.stats.hits > 0, "suite never exercised the cache"

    def test_repeat_solves_hit_the_cache(self, instance):
        _, context, queries = instance
        cache = CachingIndex(context.index)
        solver = make_algorithm("maxsum-appro", context.with_index(cache))
        first = [solver.solve(q).cost for q in queries]
        before = cache.stats.hits
        second = [solver.solve(q).cost for q in queries]
        assert first == second
        assert cache.stats.hits > before
        assert 0.0 < cache.stats.hit_rate <= 1.0

    def test_caller_mutation_cannot_poison_entries(self, instance):
        """Sorting/clearing a returned list must not corrupt later hits."""
        _, context, queries = instance
        cache = CachingIndex(context.index)
        query = queries[0]
        nnset = cache.nearest_neighbor_set(query)
        pristine = dict(nnset)
        nnset.clear()
        again = cache.nearest_neighbor_set(query)
        assert again == pristine

    def test_capacity_bounds_and_eviction_counting(self, instance):
        _, context, queries = instance
        cache = CachingIndex(context.index, capacity=2)
        for query in queries:
            cache.nearest_neighbor_set(query)
            for keyword in sorted(query.keywords):
                cache.keyword_nn(query.location, keyword)
        assert len(cache._entries) <= 2
        assert cache.stats.evictions > 0


class TestBatchMetamorphic:
    @pytest.mark.parametrize("mode", ["index", "full"])
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
        hits = in_order.cache_stats.get("index_hits", 0) + in_order.cache_stats.get(
            "result_hits", 0
        )
        assert hits > 0, "skewed batch never hit the cache"

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
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert stats.as_dict(prefix="x_") == {
            "x_hits": 3,
            "x_misses": 1,
            "x_evictions": 0,
            "x_uncached": 0,
        }
