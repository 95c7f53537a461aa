"""Unit and property tests for the keyword-bitmap signature layer.

The layer's whole correctness story is a bijection between frozen
keyword sets and integer bitsets: every mask predicate must return
exactly the boolean (or set) its frozenset twin returns.  Hypothesis
drives the bijection over arbitrary small keyword sets; the rest pins
how masks are built and memoized.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.base import SearchContext
from repro.algorithms.registry import make_algorithm
from repro.data.generators import uniform_dataset
from repro.data.queries import generate_queries
from repro.index import signatures
from repro.index.signatures import (
    bits_of,
    covers,
    covers_all,
    keywords_of,
    mask_of,
    overlaps,
    pack_masks,
    shared_keywords,
)

keyword_sets = st.frozensets(st.integers(min_value=0, max_value=63), max_size=10)


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
    def test_covers_is_issubset(self, a, b):
        assert covers(mask_of(a), mask_of(b)) == (a <= b)

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

    def test_pack_masks_parallel_to_input(self, tiny_dataset):
        objects = list(tiny_dataset.objects)
        masks = pack_masks(objects)
        assert len(masks) == len(objects)
        for obj, mask in zip(objects, masks):
            assert keywords_of(mask) == obj.keywords


class TestMaskMemo:
    def test_queries_do_not_grow_the_memo(self):
        """Only index builds fill the memo, so a server's traffic cannot."""
        dataset = uniform_dataset(300, 30, seed=41, name="memo")
        context = SearchContext(dataset)
        context.index  # noqa: B018 - build for effect
        before = len(signatures._MASK_MEMO)
        for seed, name in ((1, "maxsum-exact"), (2, "maxsum-appro")):
            solver = make_algorithm(name, context)
            for query in generate_queries(dataset, 4, 200, seed=seed):
                solver.solve(query)
        assert len(signatures._MASK_MEMO) == before
