"""Tests for the top-k CoSKQ extension."""

import pytest

from conftest import optimum
from repro.algorithms.cover import iter_covers
from repro.algorithms.maxsum_exact import MaxSumExact
from repro.algorithms.topk import TopKCoSKQ
from repro.cost.functions import MaxSumCost, MinMaxCost, SumCost
from repro.errors import InvalidParameterError

TOL = 1e-6


class TestValidation:
    def test_min_costs_rejected(self, tiny_context):
        with pytest.raises(InvalidParameterError):
            TopKCoSKQ(tiny_context, MinMaxCost())

    def test_k_must_be_positive(self, tiny_context):
        with pytest.raises(InvalidParameterError):
            TopKCoSKQ(tiny_context, MaxSumCost(), k=0)


class TestRanking:
    def test_first_result_is_the_optimum(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            best = MaxSumExact(tiny_context).solve(query)
            topk = TopKCoSKQ(tiny_context, MaxSumCost(), k=3).solve_topk(query)
            assert abs(topk[0].cost - best.cost) <= TOL * max(1.0, best.cost)

    def test_costs_ascend_and_sets_distinct(self, tiny_context, tiny_queries):
        for query in tiny_queries:
            topk = TopKCoSKQ(tiny_context, MaxSumCost(), k=5).solve_topk(query)
            costs = [r.cost for r in topk]
            assert costs == sorted(costs)
            keys = {r.object_ids for r in topk}
            assert len(keys) == len(topk)
            for result in topk:
                assert result.is_feasible_for(query)

    def test_matches_oracle_ranking(self, tiny_context, tiny_queries):
        # Enumerate all irredundant covers, rank by cost, compare the
        # top-3 cost sequence.
        cost = MaxSumCost()
        for query in tiny_queries[:4]:
            relevant = tiny_context.dataset.relevant_objects(query.keywords)
            all_costs = sorted(
                cost.evaluate(query, c) for c in iter_covers(query.keywords, relevant)
            )
            topk = TopKCoSKQ(tiny_context, MaxSumCost(), k=3).solve_topk(query)
            for got, expected in zip((r.cost for r in topk), all_costs):
                assert abs(got - expected) <= TOL * max(1.0, expected)

    def test_k_larger_than_universe(self, tiny_context, tiny_queries):
        query = tiny_queries[0]
        relevant = tiny_context.dataset.relevant_objects(query.keywords)
        total = sum(1 for _ in iter_covers(query.keywords, relevant))
        topk = TopKCoSKQ(tiny_context, MaxSumCost(), k=total + 50).solve_topk(query)
        assert len(topk) == total

    def test_sum_cost_ranking(self, tiny_context, tiny_queries):
        for query in tiny_queries[:3]:
            optimal = optimum(tiny_context, query, SumCost())
            topk = TopKCoSKQ(tiny_context, SumCost(), k=2).solve_topk(query)
            assert abs(topk[0].cost - optimal.cost) <= TOL * max(1.0, optimal.cost)
            if len(topk) > 1:
                assert topk[1].cost >= topk[0].cost - TOL

    def test_solve_returns_best(self, tiny_context, tiny_queries):
        query = tiny_queries[0]
        algo = TopKCoSKQ(tiny_context, MaxSumCost(), k=4)
        assert algo.solve(query).cost == pytest.approx(
            algo.solve_topk(query)[0].cost
        )
