"""Tests for the cost functions and the unified form."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.base import Combiner, QueryAggregate, pairwise_max_distance
from repro.cost.functions import (
    ALL_COSTS,
    DiaCost,
    MaxCost,
    MaxSumCost,
    MinCost,
    MinMax2Cost,
    MinMaxCost,
    SumCost,
    SumMaxCost,
    cost_by_name,
)
from repro.cost.unified import INTERESTING_SETTINGS, UnifiedCost
from repro.errors import InvalidParameterError
from repro.geometry.point import Point
from repro.model.objects import SpatialObject
from repro.model.query import Query


def obj(oid, x, y):
    return SpatialObject(oid, Point(x, y), frozenset({oid}))


QUERY = Query.create(0.0, 0.0, [0, 1, 2])
TRIANGLE = [obj(0, 3, 0), obj(1, 0, 4), obj(2, 3, 4)]
# query distances: 3, 4, 5 ; pairwise: d(0,1)=5, d(0,2)=4, d(1,2)=3 → diam 5


class TestNamedCosts:
    def test_maxsum_default_alpha(self):
        assert MaxSumCost().evaluate(QUERY, TRIANGLE) == pytest.approx(0.5 * 5 + 0.5 * 5)

    def test_maxsum_alpha_one_ignores_pairwise(self):
        assert MaxSumCost(alpha=1.0).evaluate(QUERY, TRIANGLE) == pytest.approx(5.0)

    def test_maxsum_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            MaxSumCost(alpha=0.0)
        with pytest.raises(InvalidParameterError):
            MaxSumCost(alpha=1.5)

    def test_dia(self):
        assert DiaCost().evaluate(QUERY, TRIANGLE) == pytest.approx(5.0)

    def test_dia_dominated_by_pairwise(self):
        members = [obj(0, 1, 0), obj(1, -1, 0)]
        # query distances 1,1 ; pairwise 2
        assert DiaCost().evaluate(QUERY, members) == pytest.approx(2.0)

    def test_sum(self):
        assert SumCost().evaluate(QUERY, TRIANGLE) == pytest.approx(12.0)

    def test_summax(self):
        assert SumMaxCost(alpha=0.5).evaluate(QUERY, TRIANGLE) == pytest.approx(
            0.5 * 12 + 0.5 * 5
        )

    def test_minmax(self):
        assert MinMaxCost(alpha=0.5).evaluate(QUERY, TRIANGLE) == pytest.approx(
            0.5 * 3 + 0.5 * 5
        )

    def test_minmax2(self):
        assert MinMax2Cost().evaluate(QUERY, TRIANGLE) == pytest.approx(5.0)

    def test_max_and_min(self):
        assert MaxCost().evaluate(QUERY, TRIANGLE) == pytest.approx(5.0)
        assert MinCost().evaluate(QUERY, TRIANGLE) == pytest.approx(3.0)

    def test_singleton_set_has_zero_pairwise(self):
        member = [obj(0, 3, 4)]
        assert MaxSumCost().evaluate(QUERY, member) == pytest.approx(2.5)
        assert DiaCost().evaluate(QUERY, member) == pytest.approx(5.0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            MaxSumCost().evaluate(QUERY, [])

    def test_pairwise_max_distance(self):
        assert pairwise_max_distance(TRIANGLE) == pytest.approx(5.0)
        assert pairwise_max_distance(TRIANGLE[:1]) == 0.0


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in ALL_COSTS:
            cost = cost_by_name(name)
            assert cost.name == name
            assert cost.evaluate(QUERY, TRIANGLE) >= 0.0

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            cost_by_name("nope")


class TestAggregates:
    def test_apply(self):
        values = [3.0, 1.0, 2.0]
        assert QueryAggregate.SUM.apply(values) == 6.0
        assert QueryAggregate.MAX.apply(values) == 3.0
        assert QueryAggregate.MIN.apply(values) == 1.0

    def test_apply_empty_raises(self):
        with pytest.raises(ValueError):
            QueryAggregate.SUM.apply([])


coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


def object_sets():
    return st.lists(
        st.tuples(coords, coords), min_size=1, max_size=6
    ).map(
        lambda pts: [
            SpatialObject(i, Point(x, y), frozenset({i})) for i, (x, y) in enumerate(pts)
        ]
    )


class TestUnifiedEquivalence:
    """cost_unified instantiations match the named costs numerically.

    Additive settings are numerically identical; max-combined settings
    carry the α = 0.5 weight the named (unweighted) costs drop, so they
    match up to the constant factor 2 — same ranking either way.
    """

    NAMED = {
        ("sum", 1.0, QueryAggregate.SUM, Combiner.ADD): (SumCost(), 1.0),
        ("max", 1.0, QueryAggregate.MAX, Combiner.ADD): (MaxCost(), 1.0),
        ("min", 1.0, QueryAggregate.MIN, Combiner.ADD): (MinCost(), 1.0),
        ("maxsum", 0.5, QueryAggregate.MAX, Combiner.ADD): (MaxSumCost(), 1.0),
        ("summax", 0.5, QueryAggregate.SUM, Combiner.ADD): (SumMaxCost(), 1.0),
        ("minmax", 0.5, QueryAggregate.MIN, Combiner.ADD): (MinMaxCost(), 1.0),
        ("dia", 0.5, QueryAggregate.MAX, Combiner.MAX): (DiaCost(), 2.0),
        ("minmax2", 0.5, QueryAggregate.MIN, Combiner.MAX): (MinMax2Cost(), 2.0),
    }

    @given(object_sets())
    @settings(max_examples=40)
    def test_equivalences(self, objects):
        query = Query.create(1.0, -1.0, [0])
        for (name, alpha, phi1, phi2), (named, factor) in self.NAMED.items():
            unified = UnifiedCost(alpha, phi1, phi2)
            assert unified.evaluate(query, objects) * factor == pytest.approx(
                named.evaluate(query, objects), abs=1e-9
            ), name

    def test_named_equivalent_mapping(self):
        for (name, alpha, phi1, phi2), _ in self.NAMED.items():
            assert UnifiedCost(alpha, phi1, phi2).named_equivalent() == name

    def test_interesting_settings_are_valid(self):
        for alpha, phi1, phi2 in INTERESTING_SETTINGS:
            cost = UnifiedCost(alpha, phi1, phi2)
            assert cost.evaluate(QUERY, TRIANGLE) > 0.0

    def test_unnamed_setting(self):
        cost = UnifiedCost(0.3, QueryAggregate.MAX, Combiner.MAX)
        assert cost.named_equivalent() is None

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            UnifiedCost(alpha=0.0)

    @given(object_sets())
    @settings(max_examples=25)
    def test_unified_nonnegative_and_scale(self, objects):
        query = Query.create(0.0, 0.0, [0])
        for alpha, phi1, phi2 in INTERESTING_SETTINGS:
            cost = UnifiedCost(alpha, phi1, phi2)
            value = cost.evaluate(query, objects)
            assert value >= 0.0
            assert math.isfinite(value)
