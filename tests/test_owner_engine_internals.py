"""White-box tests for the owner-driven engine's numeric helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.owner_appro import _pairwise_budget, greedy_completion_near
from repro.algorithms.owner_exact import _indifferent_cap
from repro.cost.functions import DiaCost, MaxCost, MaxSumCost
from repro.geometry.point import Point
from repro.model.objects import SpatialObject

positive = st.floats(0.01, 1e4, allow_nan=False, allow_infinity=False)


class TestPairwiseBudget:
    def test_maxsum_closed_form(self):
        # 0.5 q + 0.5 c < bound  →  c < 2 bound − q
        cost = MaxSumCost()
        budget = _pairwise_budget(cost, 4.0, 10.0)
        assert budget == pytest.approx(16.0, rel=1e-6)

    def test_dia_closed_form(self):
        # max(q, c) < bound → c < bound (given q < bound)
        budget = _pairwise_budget(DiaCost(), 4.0, 10.0)
        assert budget == pytest.approx(10.0, rel=1e-6)

    def test_hopeless_owner(self):
        assert _pairwise_budget(DiaCost(), 12.0, 10.0) == -1.0
        assert _pairwise_budget(MaxSumCost(), 20.0, 10.0) == -1.0

    def test_pairwise_free_cost_gives_infinity(self):
        assert math.isinf(_pairwise_budget(MaxCost(), 4.0, 10.0))

    @given(positive, positive)
    @settings(max_examples=40)
    def test_budget_is_a_valid_sup(self, q, bound):
        cost = MaxSumCost()
        budget = _pairwise_budget(cost, q, bound)
        if budget < 0:
            assert cost.combine(q, 0.0) >= bound
        else:
            # Slightly inside the budget must beat the bound; slightly
            # outside must not.
            assert cost.combine(q, budget * (1 - 1e-9) - 1e-12) < bound + 1e-9
            assert cost.combine(q, budget * (1 + 1e-6) + 1e-9) >= bound - 1e-6


class TestIndifferentCap:
    def test_additive_cap_is_the_lower_bound(self):
        cap = _indifferent_cap(MaxSumCost(), 5.0, 2.0)
        assert cap == pytest.approx(2.0, abs=1e-6)

    def test_dia_cap_extends_to_query_component(self):
        # Under max(r, d12) every diameter up to r costs the same.
        cap = _indifferent_cap(DiaCost(), 5.0, 2.0)
        assert cap == pytest.approx(5.0, rel=1e-6)

    def test_dia_cap_with_dominant_pairwise(self):
        cap = _indifferent_cap(DiaCost(), 2.0, 5.0)
        assert cap == pytest.approx(5.0, rel=1e-6)

    @given(positive, positive)
    @settings(max_examples=40)
    def test_cap_never_costs_more(self, q, lb):
        for cost in (MaxSumCost(), DiaCost()):
            cap = _indifferent_cap(cost, q, lb)
            assert cap >= lb - 1e-9
            assert cost.combine(q, cap) <= cost.combine(q, lb) + 1e-6 * max(1.0, q, lb)


class TestGreedyCompletionNear:
    def _obj(self, oid, x, y, keywords):
        return SpatialObject(oid, Point(x, y), frozenset(keywords))

    def test_picks_nearest_first(self):
        anchor = self._obj(9, 0, 0, [])
        near = self._obj(0, 1, 0, [1])
        far = self._obj(1, 5, 0, [1, 2])
        got = greedy_completion_near(anchor, frozenset({1, 2}), [far, near])
        assert [o.oid for o in got] == [0, 1]

    def test_returns_none_when_uncoverable(self):
        anchor = self._obj(9, 0, 0, [])
        only = self._obj(0, 1, 0, [1])
        assert greedy_completion_near(anchor, frozenset({1, 2}), [only]) is None

    def test_empty_uncovered(self):
        anchor = self._obj(9, 0, 0, [])
        assert greedy_completion_near(anchor, frozenset(), []) == []

    def test_skips_objects_covering_nothing_new(self):
        anchor = self._obj(9, 0, 0, [])
        a = self._obj(0, 1, 0, [1])
        duplicate = self._obj(1, 2, 0, [1])
        b = self._obj(2, 3, 0, [2])
        got = greedy_completion_near(anchor, frozenset({1, 2}), [a, duplicate, b])
        assert [o.oid for o in got] == [0, 2]
