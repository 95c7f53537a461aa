"""The differential matrix's shard cells, and the shard layer's own tests.

Two claims are gated, each a cell of the differential matrix
(``conftest.py``) held to the plain cell bit for bit:

1. **Facade identity** — every registered solver, run directly over a
   :class:`~repro.shard.index.ShardedIndex` facade, returns the same
   cost float and object set as over a single index, for several
   shard counts (including the degenerate 1-shard facade).
2. **Engine identity** — the :class:`~repro.shard.engine.ScatterGather`
   engine (mask pruning, restricted rerun) changes nothing either, for
   every solver and every cost function — the mask rule in
   ``docs/SHARDING.md`` is exactly the claim this file enforces.  Under
   every cost the plain cell also meets the oracle.

The oracle reads the dataset, never the index or the engine, so its
cases hold the plain cell's answers to the golden record.

On top sit per-shard chaos drills (a faulting shard surfaces the typed
error; a zero-fault plan changes nothing), hypothesis properties of the
STR partitioner, and a thread-safety check for the shared facade.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    AXES,
    COST_SOLVERS,
    assert_matches_plain,
    axis_answers,
    check_against_oracle,
    make_random_instance,
    matrix_instance,
    plain,
)
from repro.algorithms.base import SearchContext
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.cost.functions import ALL_COSTS
from repro.data.generators import uniform_dataset
from repro.errors import InjectedFaultError, InvalidParameterError
from repro.exec.chaos import ChaosIndex, FaultPlan
from repro.geometry.mbr import MBR
from repro.index.signatures import mask_of
from repro.shard import (
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
    """The seeded golden instances plus the tie-laden one, by matrix id."""
    return request.param


def fingerprints(solver, queries):
    out = []
    for query in queries:
        result = solver.solve(query)
        out.append((result.cost, tuple(sorted(o.oid for o in result.objects))))
    return out


class TestFacadeIdentity:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_solver_over_the_facade(self, identity_instance, name):
        for num_shards in SHARD_COUNTS:
            got = axis_answers("sharded-%d" % num_shards, identity_instance, name)
            assert_matches_plain(identity_instance, name, got)

    def test_facade_invariants(self, instance):
        dataset, _, _ = instance
        for num_shards in SHARD_COUNTS:
            index = ShardedIndex.build(dataset, num_shards=num_shards)
            index.check_invariants()
            assert len(index) == len(dataset)


class TestEngineIdentity:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_solver_through_the_engine(self, identity_instance, name):
        for num_shards in SHARD_COUNTS:
            got = axis_answers("scatter-gather-%d" % num_shards, identity_instance, name)
            assert_matches_plain(identity_instance, name, got)

    @pytest.mark.parametrize("cost_name", sorted(ALL_COSTS))
    def test_every_cost_through_the_engine(self, identity_instance, cost_name):
        """The mask rule holds under every cost, MIN aggregates included."""
        dataset, queries = matrix_instance(identity_instance)
        expected = {name: plain(identity_instance, name, cost_name) for name in COST_SOLVERS}
        check_against_oracle(dataset, cost_name, queries, expected)
        got = AXES["scatter-gather-4"](dataset, COST_SOLVERS, cost_name, queries)
        assert got == expected

    def test_counters_reconcile_and_pruning_is_observable(self, instance):
        dataset, _, queries = instance
        sharded = SearchContext(dataset, index_cls=ShardedIndexFactory(9))
        engine = ScatterGather(sharded, "maxsum-exact")
        for query in queries:
            counters = engine.solve(query).counters
            assert (
                counters["shards_scanned"] + counters["shards_pruned_mask"]
                == counters["shards_total"]
            )
        # Distance pruning is the facade's: its lazy merge leaves the
        # shards beyond the solver's incumbent unexpanded.
        solver = make_algorithm("maxsum-exact", sharded)
        for query in queries:
            solver.solve(query)
        stats = sharded.index.stats.as_dict()
        assert (
            stats["relevant_iter_shards_expanded"]
            < sharded.index.shard_count * len(queries)
        )


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
        tiles = str_partition(dataset, num_shards)
        # Exactly min(requested, n) non-empty tiles.
        assert len(tiles) == min(num_shards, len(objects))
        assert all(tiles)
        # Every object lands in exactly one tile.
        seen = sorted(oid for tile in tiles for oid in tile)
        assert seen == sorted(o.oid for o in objects)
        summaries = [summarize(i, dataset, tile) for i, tile in enumerate(tiles)]
        for summary, tile in zip(summaries, tiles):
            assert summary.count == len(tile)
            # The summary MBR contains its members...
            assert all(summary.mbr.contains_point(dataset[oid].location) for oid in tile)
            # ...and the union mask is the OR of the member masks.
            union = 0
            for oid in tile:
                union |= mask_of(dataset[oid].keywords)
            assert union == summary.kw_mask
        # The shard MBRs jointly tile the dataset extent.
        extent = MBR.from_points([o.location for o in objects])
        assert MBR(
            min(s.mbr.min_x for s in summaries),
            min(s.mbr.min_y for s in summaries),
            max(s.mbr.max_x for s in summaries),
            max(s.mbr.max_y for s in summaries),
        ) == extent

    def test_rejects_bad_shard_counts(self):
        dataset = uniform_dataset(5, 4, mean_keywords=2.0, seed=1, name="bad")
        with pytest.raises(InvalidParameterError):
            str_partition(dataset, 0)
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
