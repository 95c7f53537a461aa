"""Correctness tests for the paper's algorithms (MaxSum and Dia).

The exact algorithms are validated against the brute-force oracle on
small random instances; the approximations are validated against their
proven ratios and for feasibility everywhere.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import optimum
from repro.algorithms.base import SearchContext
from repro.algorithms.cao_exact import CaoExact
from repro.algorithms.dia_appro import DIA_APPRO_RATIO, DiaAppro
from repro.algorithms.dia_exact import DiaExact
from repro.algorithms.maxsum_appro import MAXSUM_APPRO_RATIO, MaxSumAppro
from repro.algorithms.maxsum_exact import MaxSumExact
from repro.cost.functions import DiaCost, MaxSumCost
from repro.data.generators import uniform_dataset
from repro.data.queries import generate_queries
from repro.errors import InfeasibleQueryError
from repro.model.query import Query

RELATIVE_TOLERANCE = 1e-6


def close(a, b):
    return abs(a - b) <= RELATIVE_TOLERANCE * max(1.0, abs(a), abs(b))


def random_instance(seed):
    dataset = uniform_dataset(70, 10, mean_keywords=2.0, seed=seed)
    context = SearchContext(dataset)
    queries = generate_queries(dataset, 3, 2, percentile_range=(0.0, 1.0), seed=seed + 1)
    return context, queries


class TestMaxSumExact:
    def test_matches_bruteforce_fixed(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, MaxSumCost())
            got = MaxSumExact(tiny_context).solve(query)
            assert got.is_feasible_for(query)
            assert close(got.cost, optimal.cost)

    @given(st.integers(0, 50_000))
    @settings(max_examples=20)
    def test_matches_bruteforce_random(self, seed):
        context, queries = random_instance(seed)
        for query in queries:
            optimal = optimum(context, query, MaxSumCost())
            got = MaxSumExact(context).solve(query)
            assert close(got.cost, optimal.cost)

    def test_result_cost_matches_objects(self, tiny_context, tiny_queries):
        cost = MaxSumCost()
        for query in tiny_queries:
            result = MaxSumExact(tiny_context).solve(query)
            assert result.cost == pytest.approx(cost.evaluate(query, result.objects))

    def test_pruning_variants_agree(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            reference = MaxSumExact(tiny_context).solve(query)
            for kwargs in (
                {"seed_with_appro": False},
                {"filter_candidates": False},
                {"ring_pruning": False},
            ):
                variant = MaxSumExact(tiny_context, **kwargs).solve(query)
                assert close(variant.cost, reference.cost), kwargs

    def test_single_keyword_query_returns_nn(self, tiny_context, tiny_dataset):
        keyword = tiny_dataset.keywords_by_frequency()[0]
        query = Query.create(500, 500, [keyword])
        result = MaxSumExact(tiny_context).solve(query)
        _, oid, _ = next(
            tiny_context.index.nearest_relevant_iter(query.location, query.keywords)
        )
        assert close(result.cost, MaxSumCost().evaluate(query, [tiny_dataset[oid]]))

    def test_infeasible_query_raises(self, tiny_context):
        with pytest.raises(InfeasibleQueryError):
            MaxSumExact(tiny_context).solve(Query.create(0, 0, [99_999]))

    def test_rejects_non_max_cost(self, tiny_context):
        from repro.cost.functions import MinMaxCost
        from repro.algorithms.owner_exact import OwnerDrivenExact

        with pytest.raises(ValueError):
            OwnerDrivenExact(tiny_context, MinMaxCost())


class TestMaxSumAppro:
    def test_feasible_and_within_ratio(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, MaxSumCost())
            got = MaxSumAppro(tiny_context).solve(query)
            assert got.is_feasible_for(query)
            assert got.cost >= optimal.cost - RELATIVE_TOLERANCE
            assert got.cost <= optimal.cost * MAXSUM_APPRO_RATIO + RELATIVE_TOLERANCE

    @given(st.integers(0, 50_000))
    @settings(max_examples=20)
    def test_ratio_random(self, seed):
        context, queries = random_instance(seed)
        for query in queries:
            optimal = optimum(context, query, MaxSumCost())
            got = MaxSumAppro(context).solve(query)
            assert got.cost <= optimal.cost * MAXSUM_APPRO_RATIO + RELATIVE_TOLERANCE

    def test_mostly_optimal_in_practice(self, tiny_context, tiny_queries):
        # The paper reports ratio exactly 1 for >90% of queries; on the
        # tiny workload we conservatively require a majority.
        hits = 0
        for query in tiny_queries:
            optimal = MaxSumExact(tiny_context).solve(query)
            got = MaxSumAppro(tiny_context).solve(query)
            if close(got.cost, optimal.cost):
                hits += 1
        assert hits >= len(tiny_queries) // 2


class TestDia:
    def test_exact_matches_bruteforce_fixed(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, DiaCost())
            got = DiaExact(tiny_context).solve(query)
            assert got.is_feasible_for(query)
            assert close(got.cost, optimal.cost)

    @given(st.integers(0, 50_000))
    @settings(max_examples=20)
    def test_exact_matches_bruteforce_random(self, seed):
        context, queries = random_instance(seed)
        for query in queries:
            optimal = optimum(context, query, DiaCost())
            got = DiaExact(context).solve(query)
            assert close(got.cost, optimal.cost)

    def test_appro_within_sqrt3(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, DiaCost())
            got = DiaAppro(tiny_context).solve(query)
            assert got.is_feasible_for(query)
            assert got.cost <= optimal.cost * DIA_APPRO_RATIO + RELATIVE_TOLERANCE

    def test_dia_cost_never_below_df(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            nn = tiny_context.nn_set(query)
            got = DiaExact(tiny_context).solve(query)
            assert got.cost >= nn.d_f - RELATIVE_TOLERANCE


class TestCrossAlgorithm:
    def test_exacts_agree_on_medium_instance(self):
        dataset = uniform_dataset(600, 25, mean_keywords=3.0, seed=99)
        context = SearchContext(dataset)
        for query in generate_queries(dataset, 5, 4, seed=100):
            owner = MaxSumExact(context).solve(query)
            bnb = CaoExact(context, MaxSumCost()).solve(query)
            assert close(owner.cost, bnb.cost)

    def test_exact_never_worse_than_appro(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            exact = MaxSumExact(tiny_context).solve(query)
            appro = MaxSumAppro(tiny_context).solve(query)
            assert exact.cost <= appro.cost + RELATIVE_TOLERANCE

    def test_counters_populated(self, tiny_context, tiny_queries):
        algo = MaxSumExact(tiny_context)
        result = algo.solve(tiny_queries[0])
        assert "cost_evaluations" in result.counters
