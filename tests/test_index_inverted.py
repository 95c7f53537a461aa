"""Tests for the inverted index and its posting layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.index.inverted import InvertedIndex, group_by_keyword
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.vocabulary import Vocabulary


def make_dataset():
    return Dataset.from_records(
        [
            (0.0, 0.0, ["a", "b"]),
            (1.0, 0.0, ["b"]),
            (2.0, 0.0, ["c", "a"]),
        ]
    )


class TestInvertedIndex:
    def test_missing_keywords(self):
        ds = make_dataset()
        idx = InvertedIndex(ds)
        a = ds.vocabulary.id_of("a")
        assert idx.missing_keywords([a, 777]) == frozenset({777})
        assert idx.missing_keywords([a]) == frozenset()

    def test_missing_keywords_without_carriers(self):
        # "unused" has an id in the vocabulary but no object carries it;
        # the first id past the vocabulary names no word at all.
        vocabulary = Vocabulary(["a", "b", "unused"])
        ds = Dataset([SpatialObject(0, Point(0, 0), frozenset({0, 1}))], vocabulary)
        idx = InvertedIndex(ds)
        unused = vocabulary.id_of("unused")
        past = len(vocabulary)
        assert idx.missing_keywords([0, 1, unused, past]) == frozenset({unused, past})
        assert idx.missing_keywords([]) == frozenset()

    def test_relevant_objects_deduplicates(self):
        ds = make_dataset()
        idx = InvertedIndex(ds)
        a = ds.vocabulary.id_of("a")
        b = ds.vocabulary.id_of("b")
        relevant = idx.relevant_objects(frozenset({a, b}))
        assert sorted(o.oid for o in relevant) == [0, 1, 2]
        assert len(relevant) == 3  # object 0 matches both but appears once

    def test_consistency_with_dataset(self, tiny_dataset):
        idx = InvertedIndex(tiny_dataset)
        carriers = {
            k: {o.oid for o in idx.relevant_objects(frozenset({k}))}
            for k in range(len(tiny_dataset.vocabulary))
        }
        for obj in tiny_dataset:
            for k in obj.keywords:
                assert obj.oid in carriers[k]
        total_postings = sum(len(oids) for oids in carriers.values())
        assert total_postings == sum(len(o.keywords) for o in tiny_dataset)

    def test_relevant_objects_order(self):
        """Keywords in the set's order, each keyword's oids ascending."""
        ds = make_dataset()
        idx = InvertedIndex(ds)
        keywords = frozenset(range(len(ds.vocabulary)))
        expected = []
        for k in keywords:
            for obj in ds:
                if k in obj.keywords and obj not in expected:
                    expected.append(obj)
        assert idx.relevant_objects(keywords) == expected


class TestGroupByKeyword:
    @given(
        st.lists(
            st.frozensets(st.integers(0, 2**31 - 1) | st.integers(0, 12), max_size=6),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, keyword_sets):
        expected = {}
        for pos, keywords in enumerate(keyword_sets):
            for k in keywords:
                expected.setdefault(k, []).append(pos)
        ids, offsets, positions = group_by_keyword(keyword_sets)
        assert [a.itemsize for a in (ids, offsets, positions)] == [4, 4, 4]
        assert list(ids) == sorted(expected)
        assert len(offsets) == len(ids) + 1 and offsets[0] == 0
        assert offsets[-1] == len(positions)
        got = {
            k: list(positions[offsets[slot] : offsets[slot + 1]])
            for slot, k in enumerate(ids)
        }
        assert got == expected

    def test_id_past_four_bytes_raises(self):
        with pytest.raises(OverflowError):
            group_by_keyword([frozenset({2**31})])
