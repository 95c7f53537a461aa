"""Unit tests for the shard MBRs."""

import pytest

from repro.geometry.mbr import MBR
from repro.geometry.point import Point


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
