"""Tests for the inverted index — the dataset's keyword postings — and its layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.model.dataset import Dataset, group_by_keyword
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
        a = ds.vocabulary.id_of("a")
        assert ds.missing_keywords([a, 777]) == frozenset({777})
        assert ds.missing_keywords([a]) == frozenset()

    def test_missing_keywords_without_carriers(self):
        # "unused" has an id in the vocabulary but no object carries it;
        # the first id past the vocabulary names no word at all.
        vocabulary = Vocabulary(["a", "b", "unused"])
        ds = Dataset([SpatialObject(0, Point(0, 0), frozenset({0, 1}))], vocabulary)
        unused = vocabulary.id_of("unused")
        past = len(vocabulary)
        assert ds.missing_keywords([0, 1, unused, past]) == frozenset({unused, past})
        assert ds.missing_keywords([]) == frozenset()

    def test_relevant_objects_deduplicates(self):
        ds = make_dataset()
        a = ds.vocabulary.id_of("a")
        b = ds.vocabulary.id_of("b")
        relevant = ds.relevant_objects(frozenset({a, b}))
        assert sorted(o.oid for o in relevant) == [0, 1, 2]
        assert len(relevant) == 3  # object 0 matches both but appears once

    def test_consistency_with_dataset(self, tiny_dataset):
        carriers = {
            k: {o.oid for o in tiny_dataset.relevant_objects(frozenset({k}))}
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
        keywords = frozenset(range(len(ds.vocabulary)))
        expected = []
        for k in keywords:
            for obj in ds:
                if k in obj.keywords and obj not in expected:
                    expected.append(obj)
        relevant = ds.relevant_objects(keywords)
        assert relevant == expected
        assert [o.keywords for o in relevant] == [o.keywords for o in expected]


def columns(keyword_sets):
    """``(ids, offsets)`` keyword columns of ``keyword_sets``, ids ascending per set."""
    ids, offsets = [], [0]
    for keywords in keyword_sets:
        ids.extend(sorted(keywords))
        offsets.append(len(ids))
    return ids, offsets


class TestGroupByKeyword:
    @given(
        st.lists(
            st.frozensets(st.integers(0, 2**31 - 1) | st.integers(0, 12), max_size=6),
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, keyword_sets, rng):
        ids, offsets = columns(keyword_sets)
        # Every row in order, then a shuffled subset of the rows.
        subset = [r for r in range(len(keyword_sets)) if rng.random() < 0.6]
        rng.shuffle(subset)
        for rows in (None, subset):
            expected = {}
            for row in range(len(keyword_sets)) if rows is None else rows:
                for k in keyword_sets[row]:
                    expected.setdefault(k, []).append(row)
            keywords, slots, grouped = group_by_keyword(ids, offsets, rows)
            assert [a.itemsize for a in (keywords, slots, grouped)] == [4, 4, 4]
            assert list(keywords) == sorted(expected)
            assert len(slots) == len(keywords) + 1 and slots[0] == 0
            assert slots[-1] == len(grouped)
            got = {
                k: list(grouped[slots[slot] : slots[slot + 1]])
                for slot, k in enumerate(keywords)
            }
            assert got == expected

    def test_id_past_four_bytes_raises(self):
        with pytest.raises(OverflowError):
            group_by_keyword(*columns([frozenset({2**31})]))
