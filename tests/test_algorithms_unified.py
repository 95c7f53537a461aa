"""Tests for the unified extension: Unified-E and Unified-A on every cost."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import optimum
from repro.algorithms.base import SearchContext
from repro.algorithms.cao_exact import BranchBoundExact
from repro.algorithms.owner_exact import OwnerDrivenExact
from repro.algorithms.sum_algorithms import SumExact
from repro.algorithms.unified_appro import UnifiedAppro, ratio_bound_for
from repro.algorithms.unified_exact import UnifiedExact, make_exact_solver
from repro.cost.base import Combiner, QueryAggregate
from repro.cost.functions import cost_by_name
from repro.cost.unified import INTERESTING_SETTINGS, UnifiedCost
from repro.data.generators import uniform_dataset
from repro.data.queries import generate_queries

TOL = 1e-6

#: Named costs whose exact solver the oracle can cross-check cheaply.
NAMED_COSTS = ("maxsum", "dia", "sum", "summax", "minmax", "minmax2", "max")


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def small():
    dataset = uniform_dataset(60, 8, mean_keywords=2.0, seed=77)
    context = SearchContext(dataset)
    queries = generate_queries(dataset, 3, 4, percentile_range=(0.0, 1.0), seed=78)
    return context, queries


class TestDispatch:
    def test_max_aggregate_uses_owner_engine(self, small):
        context, _ = small
        solver = make_exact_solver(context, cost_by_name("maxsum"))
        assert isinstance(solver, OwnerDrivenExact)

    def test_sum_uses_mask_dijkstra(self, small):
        context, _ = small
        solver = make_exact_solver(context, cost_by_name("sum"))
        assert isinstance(solver, SumExact)

    def test_others_use_branch_and_bound(self, small):
        context, _ = small
        for name in ("summax", "minmax", "minmax2"):
            solver = make_exact_solver(context, cost_by_name(name))
            assert isinstance(solver, BranchBoundExact), name

    def test_delegate_exposed(self, small):
        context, _ = small
        unified = UnifiedExact(context, cost_by_name("dia"))
        assert isinstance(unified.delegate, OwnerDrivenExact)


class TestUnifiedExactCorrectness:
    @pytest.mark.parametrize("name", NAMED_COSTS)
    def test_matches_bruteforce(self, small, name):
        context, queries = small
        cost = cost_by_name(name)
        for query in queries:
            optimal = optimum(context, query, cost)
            got = UnifiedExact(context, cost).solve(query)
            assert got.is_feasible_for(query)
            assert close(got.cost, optimal.cost), name

    @given(st.integers(0, 20_000))
    @settings(max_examples=10)
    def test_minmax_exact_random(self, seed):
        # MIN-aggregate costs exercise the one-extra-object machinery.
        dataset = uniform_dataset(50, 8, mean_keywords=2.0, seed=seed)
        context = SearchContext(dataset)
        cost_name = "minmax" if seed % 2 == 0 else "minmax2"
        for query in generate_queries(
            dataset, 3, 2, percentile_range=(0.0, 1.0), seed=seed + 1
        ):
            optimal = optimum(context, query, cost_by_name(cost_name))
            got = UnifiedExact(context, cost_by_name(cost_name)).solve(query)
            assert close(got.cost, optimal.cost)

    def test_unified_cost_settings(self, small):
        context, queries = small
        for alpha, phi1, phi2 in INTERESTING_SETTINGS:
            cost = UnifiedCost(alpha, phi1, phi2)
            for query in queries[:2]:
                optimal = optimum(context, query, cost)
                got = UnifiedExact(context, cost).solve(query)
                assert close(got.cost, optimal.cost), cost.name


class TestUnifiedAppro:
    @pytest.mark.parametrize("name", NAMED_COSTS)
    def test_within_proven_ratio(self, small, name):
        context, queries = small
        for query in queries:
            optimal = optimum(context, query, cost_by_name(name))
            got = UnifiedAppro(context, cost_by_name(name)).solve(query)
            assert got.is_feasible_for(query)
            bound = ratio_bound_for(name, query.size)
            assert got.cost <= optimal.cost * bound + TOL, name

    def test_exact_for_max_cost(self, small):
        context, queries = small
        for query in queries:
            optimal = optimum(context, query, cost_by_name("max"))
            got = UnifiedAppro(context, cost_by_name("max")).solve(query)
            assert close(got.cost, optimal.cost)

    def test_ratio_bound_for_table(self):
        assert ratio_bound_for("maxsum", 5) == pytest.approx(1.375)
        assert ratio_bound_for("dia", 5) == pytest.approx(3 ** 0.5)
        assert ratio_bound_for("minmax", 5) == pytest.approx(2.0)
        assert ratio_bound_for("sum", 3) == pytest.approx(1 + 0.5 + 1 / 3)
        assert ratio_bound_for("unknown", 3) == float("inf")

    @given(st.integers(0, 20_000))
    @settings(max_examples=10)
    def test_random_instances_all_costs(self, seed):
        dataset = uniform_dataset(50, 8, mean_keywords=2.0, seed=seed)
        context = SearchContext(dataset)
        queries = generate_queries(
            dataset, 3, 1, percentile_range=(0.0, 1.0), seed=seed + 1
        )
        for name in ("maxsum", "dia", "minmax", "summax"):
            for query in queries:
                optimal = optimum(context, query, cost_by_name(name))
                got = UnifiedAppro(context, cost_by_name(name)).solve(query)
                bound = ratio_bound_for(name, query.size)
                assert got.cost <= optimal.cost * bound + TOL, name


class TestAggregateEnumIntegrity:
    def test_interesting_settings_cover_papers(self):
        names = {
            UnifiedCost(a, p1, p2).named_equivalent()
            for a, p1, p2 in INTERESTING_SETTINGS
        }
        assert {"maxsum", "dia", "sum", "summax", "minmax", "minmax2", "max"} <= names

    def test_aggregates_and_combiners_are_closed(self):
        assert {a.value for a in QueryAggregate} == {"sum", "max", "min"}
        assert {c.value for c in Combiner} == {"add", "max"}
