"""Tests for the IR-tree: keyword summaries, the stream, NN(p, t), N(q)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import SearchContext
from repro.data.generators import uniform_dataset
from repro.errors import InfeasibleQueryError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.irtree import IRTree
from repro.index.neighbors import LinearScanIndex
from repro.index.signatures import mask_of
from repro.model.query import Query


@pytest.fixture(scope="module")
def ds():
    return uniform_dataset(250, 10, mean_keywords=2.5, seed=42)


@pytest.fixture(scope="module")
def tree(ds):
    return IRTree.build(ds, max_entries=6)


@pytest.fixture(scope="module")
def oracle(ds):
    return LinearScanIndex(ds)


def first_entry(index, point, keyword):
    """``NN(point, t)`` as ``(distance, oid)``: the single-keyword stream's head."""
    for dist, obj in index.nearest_relevant_iter(point, frozenset((keyword,))):
        return dist, obj.oid
    return None


class TestStructure:
    def test_min_capacity_enforced(self):
        with pytest.raises(ValueError):
            IRTree(max_entries=3)

    def test_build_counts_and_invariants(self, ds, tree):
        assert len(tree) == len(ds)
        tree.check_invariants()

    def test_all_objects_round_trip(self, ds, tree):
        assert sorted(o.oid for o in tree.all_objects()) == list(range(len(ds)))

    def test_root_keywords_are_dataset_union(self, ds, tree):
        expected = set()
        for o in ds:
            expected.update(o.keywords)
        assert tree.root.kw_mask == mask_of(expected)

    def test_empty_tree_queries(self):
        tree = IRTree()
        assert list(tree.nearest_relevant_iter(Point(0, 0), frozenset({1}))) == []
        disk = Circle(Point(0, 0), 10)
        assert list(tree.nearest_relevant_iter(Point(0, 0), frozenset({1}), disk)) == []

    def test_height(self, tree):
        assert tree.height() >= 2


class TestKeywordNN:
    def test_matches_linear_scan(self, ds, tree, oracle):
        for k in range(len(ds.vocabulary)):
            for q in (Point(100, 100), Point(900, 200), Point(0, 0)):
                assert first_entry(tree, q, k) == first_entry(oracle, q, k)

    def test_missing_keyword(self, tree):
        assert first_entry(tree, Point(0, 0), 99999) is None

    def test_nearest_relevant_iter_sorted_and_relevant(self, tree):
        keywords = frozenset({0, 1})
        hits = list(tree.nearest_relevant_iter(Point(500, 500), keywords))
        distances = [d for d, _ in hits]
        assert distances == sorted(distances)
        assert all(not o.keywords.isdisjoint(keywords) for _, o in hits)

    def test_nearest_relevant_iter_within_disk(self, tree, oracle):
        keywords = frozenset({0, 1, 2})
        disk = Circle(Point(500, 500), 150.0)
        got = [o.oid for _, o in tree.nearest_relevant_iter(Point(100, 100), keywords, within=disk)]
        expected = [
            o.oid
            for _, o in oracle.nearest_relevant_iter(Point(100, 100), keywords, within=disk)
        ]
        assert sorted(got) == sorted(expected)

    def test_nearest_relevant_iter_exhaustive(self, ds, tree):
        keywords = frozenset({3})
        got = {o.oid for _, o in tree.nearest_relevant_iter(Point(0, 0), keywords)}
        expected = {o.oid for o in ds if 3 in o.keywords}
        assert got == expected


class TestNNSet:
    def test_nearest_neighbor_set(self, ds):
        query = Query.create(500, 500, [0, 1, 2])
        got = SearchContext(ds, max_entries=6).nn_set(query)
        expected = SearchContext(ds, index_cls=LinearScanIndex).nn_set(query)
        assert got.by_keyword == expected.by_keyword
        assert got.d_f == expected.d_f

    def test_infeasible_raises(self, ds):
        with pytest.raises(InfeasibleQueryError) as err:
            SearchContext(ds).nn_set(Query.create(0, 0, [0, 99999]))
        assert err.value.missing_keywords == {99999}


class TestPropertyBased:
    @given(st.integers(0, 10_000), st.integers(4, 12))
    @settings(max_examples=15)
    def test_random_dataset_agreement(self, seed, fanout):
        dataset = uniform_dataset(80, 6, mean_keywords=2.0, seed=seed)
        tree = IRTree.build(dataset, max_entries=fanout)
        tree.check_invariants()
        oracle = LinearScanIndex(dataset)
        point = Point(321.0, 456.0)
        for keyword in range(3):
            assert first_entry(tree, point, keyword) == first_entry(
                oracle, point, keyword
            )

