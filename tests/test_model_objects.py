"""Tests for the geo-textual object value type."""

import pytest

from repro.geometry.point import Point
from repro.model.objects import SpatialObject


def obj(oid, x, y, keywords):
    return SpatialObject(oid, Point(x, y), frozenset(keywords))


class TestSpatialObject:
    def test_create_convenience(self):
        o = SpatialObject.create(3, 1.0, 2.0, [4, 5])
        assert o.oid == 3
        assert o.location == Point(1.0, 2.0)
        assert o.keywords == frozenset({4, 5})

    def test_covered(self):
        o = obj(0, 0, 0, [1, 2, 3])
        assert o.covered(frozenset({2, 3, 9})) == frozenset({2, 3})

    def test_distance_to(self):
        assert obj(0, 0, 0, [1]).distance_to(obj(1, 3, 4, [2])) == pytest.approx(5.0)

    def test_identity_is_by_oid(self):
        a = obj(7, 0, 0, [1])
        b = obj(7, 5, 5, [2])  # same id, different payload
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_oids_differ(self):
        assert obj(1, 0, 0, [1]) != obj(2, 0, 0, [1])

    def test_not_equal_to_other_types(self):
        assert obj(1, 0, 0, [1]) != "object"

    def test_immutability(self):
        o = obj(0, 0, 0, [1])
        with pytest.raises(AttributeError):
            o.oid = 9  # type: ignore[misc]
