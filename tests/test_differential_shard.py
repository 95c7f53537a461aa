"""Differential gate: the sharded index must be *bit-identical*.

Two claims are gated, mirroring the signatures/kernels differentials:

1. **Facade identity** — every registered solver, run directly over a
   :class:`~repro.shard.index.ShardedIndex` facade, returns the same
   cost float and object set as over a single IR-tree, for several
   shard counts (including the degenerate 1-shard facade).
2. **Engine identity** — the :class:`~repro.shard.engine.ScatterGather`
   engine (seed pass, mask pruning, bound pruning, restricted rerun)
   changes nothing either, for every solver and every cost function —
   the pruning-bound derivation in ``docs/SHARDING.md`` is exactly the
   claim this file enforces.

On top sit per-shard chaos drills (a faulting shard surfaces the typed
error; a zero-fault plan changes nothing), hypothesis properties of the
STR partitioner, and a thread-safety check for the shared facade.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_instance, make_tie_instance
from repro.algorithms.base import SearchContext
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.cost.functions import ALL_COSTS, cost_by_name
from repro.data.generators import uniform_dataset
from repro.errors import InjectedFaultError, InvalidParameterError
from repro.exec.chaos import ChaosIndex, FaultPlan
from repro.geometry.mbr import MBR
from repro.index.signatures import mask_of
from repro.shard import (
    MASK_ONLY_SOLVERS,
    ScatterGather,
    Shard,
    ShardedIndex,
    ShardedIndexFactory,
    str_partition,
    summarize,
)

SEEDS = (101, 202, 303)
SHARD_COUNTS = (1, 4, 9)


@pytest.fixture(scope="module", params=SEEDS)
def instance(request):
    dataset, context, queries = make_random_instance(
        request.param, num_objects=40, vocab=8
    )
    return dataset, context, queries


@pytest.fixture(scope="module", params=SEEDS + ("ties",))
def identity_instance(request):
    """The seeded instances plus the tie-laden one, for the identity gates."""
    if request.param == "ties":
        return make_tie_instance()
    return make_random_instance(request.param, num_objects=40, vocab=8)


def fingerprints(solver, queries):
    out = []
    for query in queries:
        result = solver.solve(query)
        out.append((result.cost, tuple(sorted(o.oid for o in result.objects))))
    return out


class TestFacadeIdentity:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_solver_over_the_facade(self, identity_instance, name):
        dataset, context, queries = identity_instance
        baseline = fingerprints(make_algorithm(name, context), queries)
        for num_shards in SHARD_COUNTS:
            sharded = SearchContext(
                dataset, index_cls=ShardedIndexFactory(num_shards)
            )
            assert fingerprints(make_algorithm(name, sharded), queries) == baseline

    def test_facade_invariants(self, instance):
        dataset, _, _ = instance
        for num_shards in SHARD_COUNTS:
            index = ShardedIndex.build(dataset, num_shards=num_shards)
            index.check_invariants()
            assert len(index) == len(dataset)


class TestEngineIdentity:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_solver_through_the_engine(self, identity_instance, name):
        dataset, context, queries = identity_instance
        baseline = fingerprints(make_algorithm(name, context), queries)
        for num_shards in SHARD_COUNTS:
            sharded = SearchContext(
                dataset, index_cls=ShardedIndexFactory(num_shards)
            )
            engine = ScatterGather(sharded, name)
            assert fingerprints(engine, queries) == baseline

    @pytest.mark.parametrize("cost_name", sorted(ALL_COSTS))
    def test_every_cost_through_the_engine(self, identity_instance, cost_name):
        """Bound pruning must defer to the cost (MIN costs: mask only)."""
        dataset, context, queries = identity_instance
        for solver_name in ("maxsum-appro", "unified-exact"):
            baseline = fingerprints(
                make_algorithm(solver_name, context, cost_by_name(cost_name)),
                queries,
            )
            sharded = SearchContext(dataset, index_cls=ShardedIndexFactory(4))
            engine = ScatterGather(sharded, solver_name, cost=cost_by_name(cost_name))
            assert fingerprints(engine, queries) == baseline

    def test_counters_reconcile_and_pruning_is_observable(self, instance):
        dataset, _, queries = instance
        sharded = SearchContext(dataset, index_cls=ShardedIndexFactory(9))
        engine = ScatterGather(sharded, "maxsum-exact")
        scanned_less = False
        for query in queries:
            counters = engine.solve(query).counters
            total = counters["shards_total"]
            accounted = (
                counters["shards_scanned"]
                + counters.get("shards_pruned_mask", 0)
                + counters.get("shards_pruned_bound", 0)
            )
            assert accounted == total
            if counters["shards_scanned"] < total:
                scanned_less = True
        assert scanned_less  # bound pruning fires on this instance

    def test_mask_only_set_matches_registry(self):
        assert MASK_ONLY_SOLVERS <= set(ALGORITHM_NAMES)


def _chaos_facade(index: ShardedIndex, plan_for):
    """Rewrap every shard tree of ``index`` with its own chaos plan."""
    shards = [
        Shard(shard.shard_id, ChaosIndex(shard.tree, plan_for(shard.shard_id)), shard.summary)
        for shard in index.shards
    ]
    return ShardedIndex(shards, num_shards_requested=index.num_shards_requested)


class TestPerShardChaos:
    def test_zero_fault_plans_change_nothing(self, instance):
        dataset, context, queries = instance
        baseline = fingerprints(make_algorithm("maxsum-appro", context), queries)
        index = ShardedIndex.build(dataset, num_shards=4)
        wrapped = _chaos_facade(index, lambda shard_id: FaultPlan(seed=shard_id))
        sharded = context.with_index(wrapped)
        assert fingerprints(make_algorithm("maxsum-appro", sharded), queries) == baseline
        assert any(
            isinstance(shard.tree, ChaosIndex) and shard.tree.calls > 0
            for shard in wrapped.shards
        )

    def test_dead_shard_surfaces_the_typed_error(self, instance):
        dataset, context, queries = instance
        index = ShardedIndex.build(dataset, num_shards=4)
        wrapped = _chaos_facade(
            index, lambda shard_id: FaultPlan().fail_rate(1.0)
        )
        sharded = context.with_index(wrapped)
        solver = make_algorithm("maxsum-appro", sharded)
        with pytest.raises(InjectedFaultError):
            for query in queries:
                solver.solve(query)

    def test_one_flaky_shard_fails_only_queries_that_touch_it(self, instance):
        dataset, context, queries = instance
        index = ShardedIndex.build(dataset, num_shards=4)
        victim = index.shards[0].shard_id
        wrapped = _chaos_facade(
            index,
            lambda shard_id: (
                FaultPlan().fail_rate(1.0)
                if shard_id == victim
                else FaultPlan()
            ),
        )
        sharded = context.with_index(wrapped)
        solver = make_algorithm("maxsum-appro", sharded)
        outcomes = []
        for query in queries:
            try:
                solver.solve(query)
                outcomes.append("ok")
            except InjectedFaultError:
                outcomes.append("fault")
        assert "fault" in outcomes  # the victim shard is reachable


class TestSTRPartitionProperties:
    @given(
        num_objects=st.integers(min_value=1, max_value=60),
        num_shards=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_is_exact_and_tiles_the_extent(
        self, num_objects, num_shards, seed
    ):
        dataset = uniform_dataset(
            num_objects, 6, mean_keywords=2.0, seed=seed, name="str%d" % seed
        )
        objects = list(dataset)
        tiles = str_partition(objects, num_shards)
        # Exactly min(requested, n) non-empty tiles.
        assert len(tiles) == min(num_shards, len(objects))
        assert all(tiles)
        # Every object lands in exactly one tile.
        seen = sorted(o.oid for tile in tiles for o in tile)
        assert seen == sorted(o.oid for o in objects)
        summaries = [summarize(i, tile) for i, tile in enumerate(tiles)]
        for summary, tile in zip(summaries, tiles):
            assert summary.count == len(tile)
            # The summary MBR contains its members...
            assert all(summary.mbr.contains_point(o.location) for o in tile)
            # ...and the union mask is the OR of the member masks.
            union = 0
            for o in tile:
                union |= mask_of(o.keywords)
            assert union == summary.kw_mask
        # The shard MBRs jointly tile the dataset extent.
        extent = MBR.from_points([o.location for o in objects])
        assert MBR.union_all([s.mbr for s in summaries]) == extent

    def test_rejects_bad_shard_counts(self):
        dataset = uniform_dataset(5, 4, mean_keywords=2.0, seed=1, name="bad")
        with pytest.raises(InvalidParameterError):
            str_partition(list(dataset), 0)
        with pytest.raises(InvalidParameterError):
            ShardedIndex.build(dataset, num_shards=-1)


class TestThreadSafety:
    def test_shared_facade_is_safe_under_concurrent_queries(self, instance):
        """One facade, many threads: every answer stays bit-identical."""
        dataset, context, queries = instance
        sharded = SearchContext(dataset, index_cls=ShardedIndexFactory(4))
        sharded.index  # build once, then share read-only
        expected = fingerprints(make_algorithm("maxsum-appro", sharded), queries)
        results = {}
        errors = []

        def worker(tid):
            try:
                solver = make_algorithm("maxsum-appro", sharded)
                results[tid] = fingerprints(solver, queries)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(result == expected for result in results.values())
        stats = sharded.index.stats.as_dict()
        assert stats.get("relevant_iter_calls", 0) > 0
