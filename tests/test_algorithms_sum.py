"""Tests for the Sum-cost algorithms (mask-Dijkstra exact, WSC greedy)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import optimum
from repro.algorithms.base import SearchContext
from repro.algorithms.sum_algorithms import SumExact, SumGreedy
from repro.cost.functions import SumCost
from repro.data.generators import uniform_dataset
from repro.data.queries import generate_queries
from repro.errors import InfeasibleQueryError
from repro.model.query import Query
from repro.utils.stats import harmonic_number

TOL = 1e-6


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def random_instance(seed):
    dataset = uniform_dataset(70, 10, mean_keywords=2.0, seed=seed)
    context = SearchContext(dataset)
    queries = generate_queries(dataset, 3, 2, percentile_range=(0.0, 1.0), seed=seed + 1)
    return context, queries


class TestSumExact:
    def test_matches_bruteforce_fixed(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, SumCost())
            got = SumExact(tiny_context).solve(query)
            assert got.is_feasible_for(query)
            assert close(got.cost, optimal.cost)

    @given(st.integers(0, 50_000))
    @settings(max_examples=20)
    def test_matches_bruteforce_random(self, seed):
        context, queries = random_instance(seed)
        for query in queries:
            optimal = optimum(context, query, SumCost())
            got = SumExact(context).solve(query)
            assert close(got.cost, optimal.cost)

    def test_result_cost_is_sum_of_distances(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            result = SumExact(tiny_context).solve(query)
            expected = sum(
                query.location.distance_to(o.location) for o in result.objects
            )
            assert result.cost == pytest.approx(expected)

    def test_infeasible_raises(self, tiny_context):
        with pytest.raises(InfeasibleQueryError):
            SumExact(tiny_context).solve(Query.create(0, 0, [4242]))

    def test_no_duplicate_objects(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            result = SumExact(tiny_context).solve(query)
            assert len(set(result.object_ids)) == len(result.object_ids)


class TestSumGreedy:
    def test_feasible_and_within_harmonic_bound(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, SumCost())
            got = SumGreedy(tiny_context).solve(query)
            assert got.is_feasible_for(query)
            bound = harmonic_number(query.size)
            assert got.cost <= optimal.cost * bound + TOL

    @given(st.integers(0, 50_000))
    @settings(max_examples=20)
    def test_harmonic_bound_random(self, seed):
        context, queries = random_instance(seed)
        for query in queries:
            optimal = SumExact(context).solve(query)
            got = SumGreedy(context).solve(query)
            assert got.cost <= optimal.cost * harmonic_number(query.size) + TOL

    def test_greedy_never_beats_exact(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            exact = SumExact(tiny_context).solve(query)
            greedy = SumGreedy(tiny_context).solve(query)
            assert greedy.cost >= exact.cost - TOL
