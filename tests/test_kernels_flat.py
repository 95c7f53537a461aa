"""Property suite for the flat-array distance kernels (repro.kernels).

Every kernel claims *bit-identity* with the naive ``math.hypot`` scan it
replaces — not approximate agreement, exact float equality — because the
solvers compare and store the values the kernels return.  The reference
implementations here are deliberately the dumbest possible scalar loops;
Hypothesis drives both through shared random geometry, including
coordinates chosen to land pairs inside the guard band where the
squared-distance fast path must defer to the exact comparison.
"""

from __future__ import annotations

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_instance
from repro.cost.base import pairwise_max_distance
from repro.geometry.point import Point
from repro.kernels.flat import (
    cap_bands,
    first_beyond,
    lens_lower_bound,
    lens_scan,
    max_distance_from,
    pack_objects,
    pairwise_max,
    pairwise_max_at,
)

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=0, max_size=24)
caps = st.floats(0.0, 3e6, allow_nan=False, allow_infinity=False)


def _pack(pts):
    xs = array("d", (p[0] for p in pts))
    ys = array("d", (p[1] for p in pts))
    return xs, ys


# -- naive references ----------------------------------------------------------


def naive_pairwise_max(pts):
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            if d > best:
                best = d
    return best


def naive_max_from(x, y, pts):
    best = 0.0
    for a, b in pts:
        d = math.hypot(x - a, y - b)
        if d > best:
            best = d
    return best


# -- kernels vs references -----------------------------------------------------


class TestKernelBitIdentity:
    @given(pts=point_lists)
    def test_pairwise_max(self, pts):
        xs, ys = _pack(pts)
        assert pairwise_max(xs, ys) == naive_pairwise_max(pts)

    @given(pts=point_lists, c=st.tuples(coords, coords))
    def test_max_distance_from(self, pts, c):
        xs, ys = _pack(pts)
        assert max_distance_from(c[0], c[1], xs, ys) == naive_max_from(
            c[0], c[1], pts
        )


class TestLensKernels:
    @settings(max_examples=100)
    @given(pts=point_lists, c=st.tuples(coords, coords),
           scale=st.sampled_from([1.0, 1e148, 1e152]), data=st.data())
    def test_lens_scan_matches_masked_hypot_scan(self, pts, c, scale, data):
        """None iff a wanted bit has no carrier in the disk; else the scan.

        At the large scales most squared distances overflow to ``inf``;
        caps below ~1.34e154 keep a finite guard band, larger ones take
        the exact path.
        """
        pts = [(a * scale, b * scale) for a, b in pts]
        cx, cy = c[0] * scale, c[1] * scale
        xs, ys = _pack(pts)
        n = len(pts)
        masks = data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
        want = data.draw(st.integers(0, 7))
        start = data.draw(st.integers(0, n))
        end = data.draw(st.integers(start, n))
        realized = [math.hypot(cx - a, cy - b) for a, b in pts[start:end]]
        if realized:
            # Caps placed exactly on realized distances land in the band.
            cap = data.draw(st.one_of(caps.map(lambda v: v * scale), st.sampled_from(realized)))
        else:
            cap = data.draw(caps) * scale
        carriers = [[i for i in range(n) if masks[i] >> b & 1] for b in range(3)]
        got = lens_scan(carriers, want, start, end, cx, cy, xs, ys, cap)
        inside = [
            i
            for i in range(start, end)
            if masks[i] & want and math.hypot(cx - xs[i], cy - ys[i]) <= cap
        ]
        if any(want >> b & 1 and not any(masks[i] >> b & 1 for i in inside) for b in range(3)):
            assert got is None
            return
        assert got is not None
        got_idx, got_d = got
        assert got_idx == inside
        assert list(got_d) == [math.hypot(cx - xs[i], cy - ys[i]) for i in inside]

    @pytest.mark.parametrize("scale", [1.0, 1e152])
    def test_lens_scan_keeps_a_carrier_exactly_at_the_cap(self, scale):
        """The disk is closed: a carrier at exactly ``cap`` is inside it.

        The property above meets this boundary only when it draws a cap
        equal to a realized distance; this case always does.
        """
        xs, ys = _pack([(3.0 * scale, 4.0 * scale), (6.0 * scale, 8.0 * scale)])
        cap = math.hypot(xs[0], ys[0])
        got = lens_scan([[0, 1]], 1, 0, 2, 0.0, 0.0, xs, ys, cap)
        assert got == ([0], array("d", [cap]))

    @given(pts=point_lists, owner=st.tuples(coords, coords),
           q=st.tuples(coords, coords), budget=caps)
    def test_lens_lower_bound_never_drops_a_member(self, pts, owner, q, budget):
        """dq below the floor certifies the owner-disk test fails."""
        r = math.hypot(q[0] - owner[0], q[1] - owner[1])
        floor = lens_lower_bound(r, budget)
        for a, b in pts:
            dq = math.hypot(q[0] - a, q[1] - b)
            if dq < floor:
                assert math.hypot(owner[0] - a, owner[1] - b) > budget

    @given(cap=caps)
    def test_cap_bands_bracket_the_threshold(self, cap):
        lo2, hi2, fast = cap_bands(cap)
        if fast:
            assert lo2 <= cap * cap <= hi2


# -- packing -------------------------------------------------------------------


class TestPacking:
    def test_pack_points_roundtrip(self):
        pts = [Point(1.5, -2.0), Point(0.0, 7.25)]
        xs, ys = array("d", [1.5, 0.0]), array("d", [-2.0, 7.25])
        assert list(map(Point, xs, ys)) == pts
        assert pairwise_max(xs, ys) == pts[0].distance_to(pts[1])

    def test_pack_objects_uses_locations(self):
        dataset, _, _ = make_random_instance(17, num_objects=40)
        xs, ys = pack_objects(dataset)
        assert list(xs) == [o.location.x for o in dataset]
        assert list(ys) == [o.location.y for o in dataset]


# -- the cover search's pair check and realized diameter ------------------------


@pytest.fixture(scope="module")
def owner_instance():
    """An owner (index 0) and its candidates, packed like an owner stream."""
    dataset, _, _ = make_random_instance(29, num_objects=30, vocab=8)
    objects = list(dataset)
    xs, ys = pack_objects(objects)
    return objects, xs, ys


class TestCoverKernels:
    def test_realized_diameter_equals_pairwise_max_distance(self, owner_instance):
        objects, xs, ys = owner_instance
        members = [0, 5, 10, 18]
        want = pairwise_max_distance([objects[i] for i in members])
        assert pairwise_max_at(members, xs, ys) == want

    def test_first_beyond_reports_the_first_in_chosen_order(self, owner_instance):
        objects, xs, ys = owner_instance
        row = [objects[1].location.distance_to(o.location) for o in objects]
        chosen = (6, 2, 5, 3, 4)
        cap = sorted(row)[len(row) // 2]
        want = next((row[j] for j in chosen if row[j] > cap), None)
        assert want is not None and want != min(row[j] for j in chosen if row[j] > cap)
        assert first_beyond(xs[1], ys[1], chosen, xs, ys, cap) == want
        assert first_beyond(xs[1], ys[1], chosen, xs, ys, max(row)) is None
