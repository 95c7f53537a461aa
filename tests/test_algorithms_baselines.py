"""Tests for the Cao et al. baselines and the N(q) algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import optimum
from repro.algorithms.base import SearchContext
from repro.algorithms.cao_appro import CaoAppro1, CaoAppro2
from repro.algorithms.cao_exact import BranchBoundExact, CaoExact
from repro.algorithms.nnset import NNSetAlgorithm
from repro.cost.functions import DiaCost, MaxCost, MaxSumCost
from repro.errors import BudgetExceededError
from repro.data.generators import uniform_dataset
from repro.data.queries import generate_queries

TOL = 1e-6


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def random_instance(seed):
    dataset = uniform_dataset(70, 10, mean_keywords=2.0, seed=seed)
    context = SearchContext(dataset)
    queries = generate_queries(dataset, 3, 2, percentile_range=(0.0, 1.0), seed=seed + 1)
    return context, queries


class TestNNSetAlgorithm:
    def test_returns_nn_set(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            result = NNSetAlgorithm(tiny_context, MaxSumCost()).solve(query)
            nn = tiny_context.nn_set(query)
            assert result.object_ids == tuple(o.oid for o in nn.objects)
            assert result.is_feasible_for(query)

    def test_optimal_for_max_cost(self, tiny_context, tiny_queries):
        # N(q) is provably optimal when only the farthest query distance
        # counts.
        for query in tiny_queries:
            nn_result = NNSetAlgorithm(tiny_context, MaxCost()).solve(query)
            optimal = optimum(tiny_context, query, MaxCost())
            assert close(nn_result.cost, optimal.cost)


class TestCaoAppro1:
    def test_three_approximation_for_maxsum(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, MaxSumCost())
            got = CaoAppro1(tiny_context, MaxSumCost()).solve(query)
            assert got.is_feasible_for(query)
            assert got.cost <= 3.0 * optimal.cost + TOL

    @given(st.integers(0, 50_000))
    @settings(max_examples=15)
    def test_three_approximation_random(self, seed):
        context, queries = random_instance(seed)
        for query in queries:
            optimal = optimum(context, query, MaxSumCost())
            got = CaoAppro1(context, MaxSumCost()).solve(query)
            assert got.cost <= 3.0 * optimal.cost + TOL

    def test_dia_adaptation_bounded(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, DiaCost())
            got = CaoAppro1(tiny_context, DiaCost()).solve(query)
            assert got.cost <= 3.0 * optimal.cost + TOL


class TestCaoAppro2:
    def test_two_approximation_for_maxsum(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, MaxSumCost())
            got = CaoAppro2(tiny_context, MaxSumCost()).solve(query)
            assert got.is_feasible_for(query)
            assert got.cost <= 2.0 * optimal.cost + TOL

    @given(st.integers(0, 50_000))
    @settings(max_examples=15)
    def test_two_approximation_random(self, seed):
        context, queries = random_instance(seed)
        for query in queries:
            optimal = optimum(context, query, MaxSumCost())
            got = CaoAppro2(context, MaxSumCost()).solve(query)
            assert got.cost <= 2.0 * optimal.cost + TOL

    def test_never_worse_than_appro1(self, tiny_context, tiny_queries):
        # Appro2 keeps the best of its candidates, seeded with N(q) —
        # so it can never lose to Appro1.
        for query in tiny_queries:
            a1 = CaoAppro1(tiny_context, MaxSumCost()).solve(query)
            a2 = CaoAppro2(tiny_context, MaxSumCost()).solve(query)
            assert a2.cost <= a1.cost + TOL


class TestBranchBoundExact:
    def test_matches_bruteforce_maxsum(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, MaxSumCost())
            got = CaoExact(tiny_context, MaxSumCost()).solve(query)
            assert close(got.cost, optimal.cost)

    def test_matches_bruteforce_dia(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            optimal = optimum(tiny_context, query, DiaCost())
            got = CaoExact(tiny_context, DiaCost()).solve(query)
            assert close(got.cost, optimal.cost)

    @given(st.integers(0, 50_000))
    @settings(max_examples=15)
    def test_matches_bruteforce_random(self, seed):
        context, queries = random_instance(seed)
        for query in queries:
            optimal = optimum(context, query, MaxSumCost())
            got = CaoExact(context, MaxSumCost()).solve(query)
            assert close(got.cost, optimal.cost)

    def test_expansion_budget_raises(self, tiny_context, tiny_queries):
        algo = BranchBoundExact(tiny_context, MaxSumCost(), max_expansions=0)
        # With zero budget, any query needing expansion must fail loudly
        # rather than return a silently suboptimal answer — and with the
        # typed abort of the repro.exec taxonomy, not a raw RuntimeError.
        query = tiny_queries[0]
        nn_cost = NNSetAlgorithm(tiny_context, MaxSumCost()).solve(query).cost
        exact_cost = optimum(tiny_context, query, MaxSumCost()).cost
        if close(nn_cost, exact_cost):
            pytest.skip("N(q) already optimal here; no expansion needed")
        with pytest.raises(BudgetExceededError) as info:
            algo.solve(query)
        assert info.value.counter == "states_expanded"
        assert info.value.limit == 0

    def test_counters(self, tiny_context, tiny_queries):
        algo = CaoExact(tiny_context, MaxSumCost())
        result = algo.solve(tiny_queries[0])
        assert result.counters.get("states_expanded", 0) >= 0
