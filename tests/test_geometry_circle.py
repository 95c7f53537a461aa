"""Unit and property tests for disks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.point import Point

coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)
radii = st.floats(0, 500, allow_nan=False, allow_infinity=False)
circles = st.builds(Circle, points, radii)


class TestCircle:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1.0)

    def test_contains_boundary_closed(self):
        c = Circle(Point(0, 0), 5.0)
        assert c.contains(Point(3, 4))
        assert c.contains(Point(5, 0))
        assert not c.contains(Point(5.001, 0))

    @given(circles, points)
    def test_contains_iff_within_radius(self, c, p):
        assert c.contains(p) == (c.center.distance_to(p) <= c.radius + 0.0)

