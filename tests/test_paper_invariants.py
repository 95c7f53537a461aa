"""Property tests for the paper's structural lemmas.

These assert, on random instances, the geometric facts the pruning rules
rely on (DESIGN.md §7, docs/ALGORITHMS.md §0–1).  If any of these ever
fails, a pruning rule somewhere is unsound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import optimum
from repro.algorithms.base import SearchContext
from repro.cost.base import pairwise_max_distance
from repro.cost.functions import DiaCost, MaxSumCost
from repro.data.generators import uniform_dataset
from repro.data.queries import generate_queries

TOL = 1e-9


def random_instance(seed):
    dataset = uniform_dataset(60, 9, mean_keywords=2.0, seed=seed)
    context = SearchContext(dataset)
    query = generate_queries(
        dataset, 3, 1, percentile_range=(0.0, 1.0), seed=seed + 1
    )[0]
    return context, query


class TestDfBound:
    @given(st.integers(0, 30_000))
    @settings(max_examples=25)
    def test_every_feasible_optimum_respects_df(self, seed):
        # max_{o∈S} d(o,q) ≥ d_f for every feasible S; in particular for
        # the optimal sets of both paper costs.
        context, query = random_instance(seed)
        nn = context.nn_set(query)
        for cost in (MaxSumCost(), DiaCost()):
            optimal = optimum(context, query, cost)
            r = max(query.location.distance_to(o.location) for o in optimal.objects)
            assert r >= nn.d_f - TOL

    @given(st.integers(0, 30_000))
    @settings(max_examples=25)
    def test_cost_lower_bounds(self, seed):
        # cost* ≥ combine(d_f, 0): the ring pruning's justification.
        context, query = random_instance(seed)
        nn = context.nn_set(query)
        for cost in (MaxSumCost(), DiaCost()):
            optimal = optimum(context, query, cost)
            assert optimal.cost >= cost.combine(nn.d_f, 0.0) - TOL


class TestOwnerDecomposition:
    @given(st.integers(0, 30_000))
    @settings(max_examples=25)
    def test_cost_is_combine_of_owner_distances(self, seed):
        context, query = random_instance(seed)
        for cost in (MaxSumCost(), DiaCost()):
            optimal = optimum(context, query, cost)
            r = max(query.location.distance_to(o.location) for o in optimal.objects)
            d12 = pairwise_max_distance(list(optimal.objects))
            assert optimal.cost == pytest.approx(cost.combine(r, d12))

    @given(st.integers(0, 30_000))
    @settings(max_examples=25)
    def test_members_inside_owner_disk_and_lens(self, seed):
        # Every member sits in C(q, r) and within d12 of every other —
        # the region restrictions of Steps 1–2.
        context, query = random_instance(seed)
        optimal = optimum(context, query, MaxSumCost())
        members = list(optimal.objects)
        r = max(query.location.distance_to(o.location) for o in members)
        d12 = pairwise_max_distance(members)
        for o in members:
            assert query.location.distance_to(o.location) <= r + TOL
            for other in members:
                assert o.location.distance_to(other.location) <= d12 + TOL

    @given(st.integers(0, 30_000))
    @settings(max_examples=25)
    def test_diameter_lower_bound_per_owner(self, seed):
        # diam(S) ≥ max_t min_{carrier v of t in S-disk} d(v, owner):
        # the bisection's lower bracket.
        context, query = random_instance(seed)
        optimal = optimum(context, query, MaxSumCost())
        members = list(optimal.objects)
        owner = max(members, key=lambda o: query.location.distance_to(o.location))
        d12 = pairwise_max_distance(members)
        for t in query.keywords - owner.keywords:
            carrier_dists = [
                owner.location.distance_to(o.location)
                for o in members
                if t in o.keywords
            ]
            assert carrier_dists, "feasible set must carry every keyword"
            assert min(carrier_dists) <= d12 + TOL


class TestCostRelations:
    @given(st.integers(0, 30_000))
    @settings(max_examples=25)
    def test_dia_between_half_and_full_maxsum(self, seed):
        # For any set: max(a,b) ≤ a+b ≤ 2·max(a,b); with the α=0.5
        # weighting, dia(S) ∈ [maxsum(S), 2·maxsum(S)].
        context, query = random_instance(seed)
        relevant = context.dataset.relevant_objects(query.keywords)[:6]
        if not relevant:
            return
        maxsum = MaxSumCost().evaluate(query, relevant)
        dia = DiaCost().evaluate(query, relevant)
        assert maxsum - TOL <= dia <= 2.0 * maxsum + TOL

    @given(st.integers(0, 30_000))
    @settings(max_examples=25)
    def test_optimal_costs_ordered_across_metrics(self, seed):
        # cost*_dia ≥ cost*_maxsum (same inequality holds pointwise, and
        # minima preserve pointwise dominance).
        context, query = random_instance(seed)
        maxsum_opt = optimum(context, query, MaxSumCost())
        dia_opt = optimum(context, query, DiaCost())
        assert dia_opt.cost >= maxsum_opt.cost - TOL
