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
    distances_from,
    farthest_pair,
    lens_lower_bound,
    lens_scan,
    max_distance_from,
    pack_objects,
    pack_points,
    pairwise_max,
)
from repro.kernels.oracle import DistanceOracle

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


def naive_farthest(pts):
    besti, bestj, best = 0, 0, 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            if d > best:
                besti, bestj, best = i, j, d
    return besti, bestj, best


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

    @given(pts=point_lists)
    def test_farthest_pair(self, pts):
        xs, ys = _pack(pts)
        assert farthest_pair(xs, ys) == naive_farthest(pts)

    @given(pts=point_lists, c=st.tuples(coords, coords))
    def test_max_distance_from(self, pts, c):
        xs, ys = _pack(pts)
        assert max_distance_from(c[0], c[1], xs, ys) == naive_max_from(
            c[0], c[1], pts
        )

    @given(pts=point_lists, c=st.tuples(coords, coords))
    def test_distances_from(self, pts, c):
        xs, ys = _pack(pts)
        got = distances_from(c[0], c[1], xs, ys)
        assert list(got) == [
            math.hypot(c[0] - a, c[1] - b) for a, b in pts
        ]


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
        xs, ys = pack_points(pts)
        assert list(xs) == [1.5, 0.0]
        assert list(ys) == [-2.0, 7.25]

    def test_pack_objects_uses_locations(self):
        dataset, _, _ = make_random_instance(17, num_objects=40)
        xs, ys = pack_objects(dataset.objects)
        assert list(xs) == [o.location.x for o in dataset.objects]
        assert list(ys) == [o.location.y for o in dataset.objects]


# -- the distance oracle -------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_instance():
    dataset, _, _ = make_random_instance(29, num_objects=30, vocab=8)
    anchor = dataset.objects[0]
    candidates = dataset.objects[1:]
    return anchor, candidates, DistanceOracle(anchor.location, candidates)


class TestDistanceOracle:
    def test_anchor_distances_are_exact(self, oracle_instance):
        anchor, candidates, oracle = oracle_instance
        for i, cand in enumerate(candidates):
            assert oracle.anchor_d[i] == anchor.location.distance_to(
                cand.location
            )

    def test_pair_distance_matches_scalar(self, oracle_instance):
        _, candidates, oracle = oracle_instance
        for i in range(0, len(candidates), 5):
            for j in range(0, len(candidates), 7):
                want = candidates[i].location.distance_to(candidates[j].location)
                assert oracle.pair_distance(i, j) == want
                assert oracle.pair_distance(j, i) == want

    def test_rows_are_memoized(self, oracle_instance):
        _, _, oracle = oracle_instance
        assert oracle.row(3) is oracle.row(3)

    def test_diameter_with_anchor_equals_pairwise_max(self, oracle_instance):
        anchor, candidates, oracle = oracle_instance
        indices = [0, 4, 9, 17]
        want = pairwise_max_distance([anchor] + [candidates[i] for i in indices])
        assert oracle.diameter_with_anchor(indices) == want

    def test_max_anchor_distance(self, oracle_instance):
        anchor, candidates, oracle = oracle_instance
        assert oracle.max_anchor_distance() == max(
            anchor.location.distance_to(c.location) for c in candidates
        )

    def test_first_beyond(self, oracle_instance):
        _, candidates, oracle = oracle_instance
        row = [candidates[0].location.distance_to(c.location) for c in candidates]
        others = (1, 2, 3, 4, 5)
        cap = sorted(row)[len(row) // 2]
        want = next((row[j] for j in others if row[j] > cap), None)
        assert oracle.first_beyond(0, others, cap) == want
        assert oracle.first_beyond(0, others, max(row)) is None

    def test_prepacked_construction_is_equivalent(self, oracle_instance):
        anchor, candidates, oracle = oracle_instance
        xs, ys = pack_objects(candidates)
        pre = DistanceOracle(
            anchor.location, candidates, xs, ys, array("d", oracle.anchor_d)
        )
        assert list(pre.anchor_d) == list(oracle.anchor_d)
        assert pre.diameter_with_anchor([2, 6, 11]) == oracle.diameter_with_anchor(
            [2, 6, 11]
        )
        assert pre.index_of(candidates[5]) == oracle.index_of(candidates[5])
