"""Unit and property tests for the keyword-bitmap signature layer.

The layer's whole correctness story is a bijection between frozen
keyword sets and integer bitsets: every mask predicate must return
exactly the boolean (or set) its frozenset twin returns.  Hypothesis
drives the bijection over arbitrary small keyword sets; the rest pins
how masks are built.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.index.signatures import (
    bits_of,
    covers_all,
    mask_of,
    overlaps,
    shared_keywords,
)

keyword_sets = st.frozensets(st.integers(min_value=0, max_value=63), max_size=10)


def keywords_of(mask: int) -> frozenset:
    """The keyword set a mask encodes: the bijection's inverse."""
    return frozenset(bits_of(mask))


class TestMaskBijection:
    @given(keyword_sets)
    def test_roundtrip(self, kws):
        assert keywords_of(mask_of(kws)) == kws

    @given(keyword_sets)
    def test_popcount_is_cardinality(self, kws):
        assert mask_of(kws).bit_count() == len(kws)

    @given(keyword_sets)
    def test_bits_ascend(self, kws):
        bits = list(bits_of(mask_of(kws)))
        assert bits == sorted(kws)

    @given(keyword_sets, keyword_sets)
    def test_overlaps_is_not_isdisjoint(self, a, b):
        assert overlaps(mask_of(a), mask_of(b)) == (not a.isdisjoint(b))

    @given(keyword_sets, keyword_sets)
    def test_and_is_intersection(self, a, b):
        assert keywords_of(mask_of(a) & mask_of(b)) == (a & b)

    @given(keyword_sets, keyword_sets)
    def test_andnot_is_difference(self, a, b):
        assert keywords_of(mask_of(a) & ~mask_of(b)) == (a - b)

    @given(keyword_sets, keyword_sets)
    def test_set_level_companions_match(self, a, b):
        assert shared_keywords(a, b) == (a & b)
        assert covers_all(a, b) == (a <= b)


class TestMaskBuilding:
    def test_mask_of_memoizes_frozensets(self):
        kws = frozenset({3, 5})
        assert mask_of(kws) == mask_of(frozenset({5, 3})) == (1 << 3) | (1 << 5)

    def test_mask_of_accepts_plain_iterables(self):
        assert mask_of([0, 2]) == 0b101
        assert mask_of(iter((1,))) == 0b10
        assert mask_of(()) == 0
