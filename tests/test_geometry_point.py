"""Unit and property tests for the point/distance primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.point import Point

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_distance_to_known_values(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_to_self_is_zero(self):
        p = Point(1.5, -2.5)
        assert p.distance_to(p) == 0.0

    def test_squared_distance_matches_square(self):
        a, b = Point(1, 2), Point(4, 6)
        assert a.squared_distance_to(b) == pytest.approx(a.distance_to(b) ** 2)

    def test_iter(self):
        assert list(Point(7, 8)) == [7, 8]

    def test_ordering_is_lexicographic(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 2) < Point(1, 3)

    def test_points_are_hashable_and_equal_by_value(self):
        assert Point(1, 2) == Point(1.0, 2.0)
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Point(0, 0).x = 1  # type: ignore[misc]


class TestMetricProperties:
    @given(points, points)
    def test_symmetry(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(points, points)
    def test_non_negativity_and_identity(self, a, b):
        d = a.distance_to(b)
        assert d >= 0.0
        if a == b:
            assert d == 0.0

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-7
