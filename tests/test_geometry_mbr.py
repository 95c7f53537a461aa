"""Unit and property tests for the MBR bound used by the shard engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.mbr import MBR
from repro.geometry.point import Point

coords = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


def rect_strategy():
    return st.builds(
        lambda x1, x2, y1, y2: MBR(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)),
        coords,
        coords,
        coords,
        coords,
    )


class TestConstruction:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            MBR(1, 0, 0, 0)
        with pytest.raises(ValueError):
            MBR(0, 1, 0, 0)

    def test_from_points(self):
        r = MBR.from_points([Point(1, 5), Point(-2, 0), Point(3, 2)])
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (-2, 0, 3, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            MBR.from_points([])


class TestRelations:
    def test_contains_point(self):
        r = MBR(0, 0, 2, 2)
        assert r.contains_point(Point(1, 1))
        assert r.contains_point(Point(0, 2))  # boundary
        assert not r.contains_point(Point(3, 1))


class TestDistances:
    def test_min_distance_inside_is_zero(self):
        assert MBR(0, 0, 2, 2).min_distance(Point(1, 1)) == 0.0

    def test_min_distance_axis_aligned(self):
        assert MBR(0, 0, 2, 2).min_distance(Point(5, 1)) == pytest.approx(3.0)
        assert MBR(0, 0, 2, 2).min_distance(Point(1, -4)) == pytest.approx(4.0)

    def test_min_distance_corner(self):
        assert MBR(0, 0, 2, 2).min_distance(Point(5, 6)) == pytest.approx(5.0)

    @given(rect_strategy(), points)
    def test_bounds_hold_for_corners(self, rect, p):
        lo = rect.min_distance(p)
        corners = (
            Point(rect.min_x, rect.min_y),
            Point(rect.min_x, rect.max_y),
            Point(rect.max_x, rect.min_y),
            Point(rect.max_x, rect.max_y),
        )
        for corner in corners:
            assert lo - 1e-6 <= p.distance_to(corner)

    @given(rect_strategy(), points)
    def test_bounds_hold_for_center(self, rect, p):
        center = Point((rect.min_x + rect.max_x) / 2.0, (rect.min_y + rect.max_y) / 2.0)
        d = p.distance_to(center)
        assert rect.min_distance(p) - 1e-6 <= d
