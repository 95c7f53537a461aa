"""Tests for the constrained cover search and cover enumeration."""

import math

import pytest

from conftest import cover_inputs
from repro.algorithms.cover import find_constrained_cover, iter_covers
from repro.errors import BudgetExceededError
from repro.geometry.point import Point
from repro.model.objects import SpatialObject


def obj(oid, x, y, keywords):
    return SpatialObject(oid, Point(x, y), frozenset(keywords))


#: The keyword-less owner every cover search is anchored at.
ANCHOR = obj(99, 0, 0, [])


def cover_of(uncovered, candidates, pair_cap, **kwargs):
    """The cover search over ``candidates`` as stream entries, as objects."""
    tables, xs, ys, masks = cover_inputs(ANCHOR.location, candidates, uncovered)
    if tables is None:
        return None
    cover, _ = find_constrained_cover(tables, pair_cap, xs, ys, masks, **kwargs)
    return None if cover is None else [candidates[i] for i in cover]


class TestFindConstrainedCover:
    def test_empty_uncovered_is_trivial(self):
        assert cover_of([], [], math.inf) == []

    def test_simple_cover(self):
        candidates = [obj(0, 0, 0, [1]), obj(1, 1, 0, [2])]
        cover = cover_of({1, 2}, candidates, math.inf)
        assert cover is not None
        assert {o.oid for o in cover} == {0, 1}

    def test_missing_keyword_returns_none(self):
        candidates = [obj(0, 0, 0, [1])]
        assert cover_of({1, 2}, candidates, math.inf) is None

    def test_pair_cap_excludes_far_candidates(self):
        # Both are within the cap of the anchor but 12 apart, so only
        # the candidate-to-candidate cap can rule the pair out.
        near = obj(0, -6, 0, [1])
        far = obj(1, 6, 0, [2])
        # Without cap a cover exists; with a tight cap it does not.
        assert cover_of({1, 2}, [near, far], math.inf)
        assert cover_of({1, 2}, [near, far], pair_cap=10.0) is None

    def test_anchor_constraint(self):
        # The far candidate sorts first (lower oid); only the anchor cap
        # keeps it out.
        bad = obj(0, 50, 0, [1])
        good = obj(1, 1, 0, [1])
        cover = cover_of({1}, [bad, good], pair_cap=5.0)
        assert cover is not None
        assert cover[0].oid == 1

    def test_cap_boundary_inclusive(self):
        candidate = obj(0, 3, 4, [1])  # distance exactly 5 from anchor
        cover = cover_of({1}, [candidate], 5.0)
        assert cover is not None

    def test_multi_keyword_object_preferred(self):
        rich = obj(0, 0, 0, [1, 2, 3])
        poor = [obj(1, 1, 0, [1]), obj(2, 2, 0, [2]), obj(3, 3, 0, [3])]
        cover = cover_of({1, 2, 3}, [rich] + poor, math.inf)
        assert cover is not None
        assert len(cover) == 1 and cover[0].oid == 0

    def test_requires_backtracking(self):
        # Every keyword has two carriers, so the search branches on
        # keyword 1 and tries object 0 first.  No carrier of keyword 2 is
        # within the cap of object 0, so the search must back off to
        # object 1, whose completion fits.
        a = obj(0, -2, 0, [1])
        b = obj(1, 2, 0, [1])
        c = obj(2, 4, 2, [2])
        d = obj(3, 4, -2, [2])
        e = obj(4, 0, 1, [3])
        f = obj(5, 0, -1, [3])
        cover = cover_of({1, 2, 3}, [a, b, c, d, e, f], pair_cap=5.0)
        assert cover is not None
        assert {o.oid for o in cover} == {1, 2, 4}

    def test_colocated_duplicate_traces_deduplicated(self):
        twins = [obj(i, 0, 0, [1]) for i in range(50)]
        tables, xs, ys, masks = cover_inputs(ANCHOR.location, twins, {1})
        # One table, for keyword 1's bit: the lowest oid, at distance 0.
        assert tables == [(1 << 1, [0], [0.0])]
        cover, _ = find_constrained_cover(tables, math.inf, xs, ys, masks)
        assert cover == [0]

    def test_budget_exceeded_raises(self):
        # Many interchangeable candidates per keyword, each keyword on
        # its own side of the anchor: all pass the anchor cap, but no two
        # keywords fit together, which forces exhaustive backtracking.
        candidates = []
        oid = 0
        for t, (ux, uy) in enumerate([(1, 0), (0, 1), (-1, 0), (0, -1)], start=1):
            for i in range(12):
                offset = 0.01 * i
                candidates.append(
                    obj(oid, 0.9 * ux - offset * uy, 0.9 * uy + offset * ux, [t])
                )
                oid += 1
        counters = {"cover_probes": 1}
        with pytest.raises(BudgetExceededError) as info:
            cover_of(
                {1, 2, 3, 4}, candidates, pair_cap=1.0, node_budget=5, counters=counters
            )
        assert info.value.counter == "cover_nodes"
        assert info.value.counters == counters


class TestIterCovers:
    def test_yields_all_irredundant_covers(self):
        # "Irredundant" is insertion-order: every object covers a keyword
        # new at its insertion time.  [0, 2] qualifies (0 brought keyword
        # 1, then 2 brought keyword 2) even though 0 is globally
        # redundant — the oracle only needs completeness, and the minimum
        # cost is unaffected by extra covers.
        candidates = [obj(0, 0, 0, [1]), obj(1, 1, 0, [2]), obj(2, 2, 0, [1, 2])]
        covers = [sorted(o.oid for o in c) for c in iter_covers(frozenset({1, 2}), candidates)]
        assert sorted(covers) == [[0, 1], [0, 2], [2]]

    def test_no_duplicates(self):
        candidates = [obj(i, i, 0, [1, 2]) for i in range(4)]
        covers = [tuple(sorted(o.oid for o in c)) for c in iter_covers(frozenset({1, 2}), candidates)]
        assert len(covers) == len(set(covers)) == 4

    def test_uncoverable_yields_nothing(self):
        assert list(iter_covers(frozenset({1}), [obj(0, 0, 0, [2])])) == []

    def test_cover_sizes_bounded_by_keywords(self):
        candidates = [obj(i, i, 0, [i % 3]) for i in range(9)]
        for cover in iter_covers(frozenset({0, 1, 2}), candidates):
            assert len(cover) <= 3
            covered = set()
            for o in cover:
                covered |= o.keywords
            assert {0, 1, 2} <= covered
