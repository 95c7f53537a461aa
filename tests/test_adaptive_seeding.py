"""Seeding soundness: an external upper bound prunes, never answers.

The ``initial_upper_bound`` contract (docs/SEEDING.md §3) promises that
for any *feasible* bound — the true cost of some feasible set, so always
>= the optimum — every exact solver returns the bit-identical optimum
cost it would have found unseeded.  This suite distrusts that promise
from every angle:

- the structural seeder's cost seeds every seedable exact solver to
  the same answer;
- hypothesis-drawn bounds (optimum × factor, factor >= 1) never change
  the cost;
- the bound survives the sharded scatter-gather engine and the
  resilient executor unchanged;
- the adversarial ladder dataset behaves as designed (seed == optimum,
  seeded search strictly cheaper).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import SearchContext
from repro.algorithms.registry import make_algorithm
from repro.algorithms.seeding import compute_seed, make_seeder
from repro.data.generators import (
    WORLD_SIZE,
    ladder_dataset,
    ladder_keywords,
)
from repro.model.query import Query

#: The exact solvers an appro seed may bound.  top-k is absent (a bound
#: on the best set says nothing about the k-th) and so is the brute-force
#: oracle (kept exhaustive so the differential tests can distrust
#: everyone else's pruning).
SEEDED_EXACTS = (
    "bnb-exact",
    "cao-exact",
    "dia-exact",
    "maxsum-exact",
    "sum-exact",
    "unified-exact",
)


def outcome(result):
    return (result.cost, tuple(sorted(o.oid for o in result.objects)))


class TestComputeSeed:
    @pytest.mark.parametrize("exact_name", SEEDED_EXACTS)
    def test_seed_is_feasible_upper_bound(self, tiny_context, tiny_queries, exact_name):
        exact = make_algorithm(exact_name, tiny_context)
        for query in tiny_queries[:4]:
            seed = compute_seed(tiny_context, exact.cost, query)
            assert seed is not None
            optimum = exact.solve(query)
            assert seed.cost >= optimum.cost - 1e-9
            # The seed realizes its own cost with a feasible set.
            covered = set()
            for obj in seed.objects:
                covered |= obj.keywords
            assert query.keywords <= covered

    @pytest.mark.parametrize("exact_name", SEEDED_EXACTS)
    def test_counterpart_seed_preserves_answers(
        self, tiny_context, tiny_queries, exact_name
    ):
        exact = make_algorithm(exact_name, tiny_context)
        for query in tiny_queries[:4]:
            plain = exact.solve(query)
            seed = compute_seed(tiny_context, exact.cost, query)
            seeded = exact.solve(query, initial_upper_bound=seed.cost)
            assert outcome(seeded) == outcome(plain)

    def test_min_aggregate_has_no_seeder(self, tiny_context):
        # MIN-aggregate costs admit no monotone owner bound.
        from repro.cost.base import Combiner, QueryAggregate
        from repro.cost.unified import UnifiedCost

        cost = UnifiedCost(0.5, QueryAggregate.MIN, Combiner.ADD)
        assert make_seeder(tiny_context, cost) is None
        assert compute_seed(tiny_context, cost, Query.create(1, 1, [0])) is None


class TestSeedingSoundnessProperty:
    """Hypothesis: any feasible bound → identical cost."""

    @settings(max_examples=20, deadline=None)
    @given(
        query_index=st.integers(min_value=0, max_value=9),
        factor=st.floats(min_value=1.0, max_value=50.0),
    )
    def test_bound_never_changes_the_answer(
        self, tiny_context, tiny_queries, query_index, factor
    ):
        query = tiny_queries[query_index]
        exact = make_algorithm("maxsum-exact", tiny_context)
        plain = exact.solve(query)
        bound = plain.cost * factor  # >= optimum, hence feasible-valued
        seeded = exact.solve(query, initial_upper_bound=bound)
        assert outcome(seeded) == outcome(plain)

    @settings(max_examples=10, deadline=None)
    @given(
        query_index=st.integers(min_value=0, max_value=9),
        exact_name=st.sampled_from(SEEDED_EXACTS),
    )
    def test_tight_bound_is_exact_across_solvers(
        self, tiny_context, tiny_queries, query_index, exact_name
    ):
        # The tightest legal bound — the optimum itself — must survive.
        query = tiny_queries[query_index]
        exact = make_algorithm(exact_name, tiny_context)
        plain = exact.solve(query)
        seeded = exact.solve(query, initial_upper_bound=plain.cost)
        assert seeded.cost == plain.cost


class TestBoundThroughEngines:
    def test_scatter_gather_forwards_external_bound(self, tiny_dataset, tiny_queries):
        from repro.shard import ScatterGather, ShardedIndexFactory

        sharded = SearchContext(tiny_dataset, index_cls=ShardedIndexFactory(4))
        engine = ScatterGather(sharded, "maxsum-exact")
        plain_context = SearchContext(tiny_dataset)
        exact = make_algorithm("maxsum-exact", plain_context)
        for query in tiny_queries[:4]:
            plain = exact.solve(query)
            seed = compute_seed(plain_context, exact.cost, query)
            via_engine = engine.solve(query, initial_upper_bound=seed.cost)
            assert outcome(via_engine) == outcome(plain)

    def test_resilient_executor_forwards_external_bound(
        self, tiny_context, tiny_queries
    ):
        from repro.exec.executor import ResilientExecutor
        from repro.exec.fallback import FallbackChain
        from repro.exec.policy import ExecutionPolicy

        chain = FallbackChain.of(tiny_context, "maxsum-exact", "maxsum-appro")
        executor = ResilientExecutor(chain, ExecutionPolicy())
        exact = make_algorithm("maxsum-exact", tiny_context)
        for query in tiny_queries[:4]:
            plain = exact.solve(query)
            seed = compute_seed(tiny_context, exact.cost, query)
            seeded = executor.solve(query, initial_upper_bound=seed.cost)
            assert outcome(seeded) == outcome(plain)


class TestLadderDataset:
    def test_shape_and_determinism(self):
        ladder = ladder_dataset()
        again = ladder_dataset()
        assert len(ladder) == len(again) == 10 * (1 + 8 * 10) + (1 + 8 * 1)
        assert [o.location for o in ladder.objects] == [
            o.location for o in again.objects
        ]

    def test_object_count_formula(self):
        # rungs full rungs of (1 bait + (m-1)*choices) plus a trivial rung.
        ladder = ladder_dataset(num_keywords=5, rungs=3, choices=4)
        assert len(ladder) == 3 * (1 + 4 * 4) + (1 + 4 * 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ladder_dataset(num_keywords=2)
        with pytest.raises(ValueError):
            ladder_dataset(rungs=0)

    def test_seed_equals_optimum_and_prunes(self):
        ladder = ladder_dataset()
        context = SearchContext(ladder)
        exact = make_algorithm("maxsum-exact", context)
        center = WORLD_SIZE / 2.0
        query = Query.create(center, center, ladder_keywords(ladder, 9))
        plain = exact.solve(query)
        seed = compute_seed(context, exact.cost, query)
        # The final trivial rung is both the optimum and what the appro
        # counterpart finds — the seed is exactly the optimum.
        assert math.isclose(seed.cost, plain.cost, rel_tol=1e-9)
        seeded = exact.solve(query, initial_upper_bound=seed.cost)
        assert outcome(seeded) == outcome(plain)
        # The bound must do real work: strictly fewer cost evaluations.
        assert seeded.counters.get("sets_evaluated", 0) < plain.counters.get(
            "sets_evaluated", 10**9
        )
