"""Tests for queries and results."""

import re

import pytest

from repro.errors import InvalidParameterError, UnknownKeywordError
from repro.geometry.point import Point
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.model.vocabulary import Vocabulary


class TestQuery:
    def test_create(self):
        q = Query.create(1.0, 2.0, [3, 4])
        assert q.location == Point(1.0, 2.0)
        assert q.keywords == frozenset({3, 4})
        assert q.size == 2

    def test_empty_keywords_rejected(self):
        with pytest.raises(InvalidParameterError):
            Query.create(0, 0, [])

    @pytest.mark.parametrize(
        "keywords, bad",
        [
            (frozenset({-1}), -1),
            (frozenset({1.5}), 1.5),
            (frozenset({"a"}), "a"),
            (frozenset({True}), True),
            ({1}, {1}),
            ([1], [1]),
        ],
        ids=["negative", "float", "str", "bool", "set", "list"],
    )
    def test_malformed_keywords_rejected(self, keywords, bad):
        with pytest.raises(InvalidParameterError, match=re.escape(repr(bad))):
            Query(Point(0.5, 0.5), keywords)

    def test_from_words(self):
        v = Vocabulary(["spa", "gym"])
        q = Query.from_words(0, 0, ["gym"], v)
        assert q.keywords == frozenset({1})

    def test_from_words_unknown_raises(self):
        v = Vocabulary(["spa"])
        with pytest.raises(UnknownKeywordError):
            Query.from_words(0, 0, ["pool"], v)

    def test_distance_to(self):
        q = Query.create(0, 0, [1])
        assert q.distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_immutability(self):
        q = Query.create(0, 0, [1])
        with pytest.raises(AttributeError):
            q.location = Point(1, 1)  # type: ignore[misc]


def _obj(oid, x, y, keywords):
    return SpatialObject(oid, Point(x, y), frozenset(keywords))


class TestCoSKQResult:
    def test_of_orders_objects_by_oid(self):
        r = CoSKQResult.of([_obj(5, 0, 0, [1]), _obj(2, 1, 1, [2])], 3.0, "algo")
        assert r.object_ids == (2, 5)
        assert len(r) == 2

    def test_covered_keywords(self):
        r = CoSKQResult.of([_obj(0, 0, 0, [1, 2]), _obj(1, 1, 1, [3])], 1.0, "a")
        assert r.covered_keywords() == frozenset({1, 2, 3})

    def test_feasibility(self):
        r = CoSKQResult.of([_obj(0, 0, 0, [1, 2])], 1.0, "a")
        assert r.is_feasible_for(Query.create(0, 0, [1]))
        assert r.is_feasible_for(Query.create(0, 0, [1, 2]))
        assert not r.is_feasible_for(Query.create(0, 0, [1, 3]))

    def test_counters_default(self):
        r = CoSKQResult.of([_obj(0, 0, 0, [1])], 1.0, "a")
        assert r.counters == {}

    def test_repr_contains_algorithm_and_cost(self):
        r = CoSKQResult.of([_obj(0, 0, 0, [1])], 2.5, "maxsum-exact")
        text = repr(r)
        assert "maxsum-exact" in text and "2.5" in text
