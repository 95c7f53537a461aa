"""Tests for the IR-tree: keyword summaries, keyword NN, regions, N(q)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import uniform_dataset
from repro.errors import InfeasibleQueryError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.irtree import IRTree
from repro.index.neighbors import LinearScanIndex
from repro.index.signatures import mask_of
from repro.model.dataset import Dataset
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

    def test_incremental_insert_matches(self, ds):
        tree = IRTree(max_entries=5)
        for obj in ds:
            tree.insert(obj)
        tree.check_invariants()
        assert len(tree) == len(ds)

    def test_empty_tree_queries(self):
        tree = IRTree()
        assert tree.relevant_in_circle(Circle(Point(0, 0), 10), frozenset({1})) == []
        assert tree.keyword_nn(Point(0, 0), 1) is None
        assert list(tree.nearest_relevant_iter(Point(0, 0), frozenset({1}))) == []

    def test_height(self, tree):
        assert tree.height() >= 2


class TestKeywordNN:
    def test_matches_linear_scan(self, ds, tree, oracle):
        for k in range(len(ds.vocabulary)):
            for q in (Point(100, 100), Point(900, 200), Point(0, 0)):
                got = tree.keyword_nn(q, k)
                expected = oracle.keyword_nn(q, k)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got[0] == pytest.approx(expected[0])

    def test_missing_keyword(self, tree):
        assert tree.keyword_nn(Point(0, 0), 99999) is None

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


class TestRegions:
    def test_relevant_in_circle_matches_linear(self, tree, oracle):
        keywords = frozenset({0, 4})
        for center, radius in ((Point(500, 500), 200.0), (Point(0, 0), 50.0)):
            circle = Circle(center, radius)
            got = sorted(o.oid for o in tree.relevant_in_circle(circle, keywords))
            expected = sorted(o.oid for o in oracle.relevant_in_circle(circle, keywords))
            assert got == expected

    def test_objects_in_circle(self, ds, tree):
        circle = Circle(Point(500, 500), 250.0)
        got = sorted(o.oid for o in tree.objects_in_circle(circle))
        expected = sorted(o.oid for o in ds if circle.contains(o.location))
        assert got == expected


class TestNNSet:
    def test_nearest_neighbor_set(self, ds, tree, oracle):
        query = Query.create(500, 500, [0, 1, 2])
        got = tree.nearest_neighbor_set(query)
        expected = oracle.nearest_neighbor_set(query)
        assert set(got) == set(expected)
        for t in got:
            assert got[t][0] == pytest.approx(expected[t][0])

    def test_infeasible_raises(self, tree):
        with pytest.raises(InfeasibleQueryError) as err:
            tree.nearest_neighbor_set(Query.create(0, 0, [0, 99999]))
        assert 99999 in err.value.missing_keywords


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
            got = tree.keyword_nn(point, keyword)
            expected = oracle.keyword_nn(point, keyword)
            assert (got is None) == (expected is None)
            if got is not None and expected is not None:
                assert got[0] == pytest.approx(expected[0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_insert_preserves_summaries(self, seed):
        dataset = uniform_dataset(60, 5, mean_keywords=2.0, seed=seed)
        tree = IRTree(max_entries=4)
        for obj in dataset:
            tree.insert(obj)
        tree.check_invariants()


class TestBooleanKNN:
    def test_results_cover_all_keywords(self, ds, tree):
        query = Query.create(500, 500, [0, 1])
        hits = tree.boolean_knn(query, k=5)
        for dist, obj in hits:
            assert query.keywords <= obj.keywords

    def test_ascending_distance(self, ds, tree):
        query = Query.create(500, 500, [0])
        hits = tree.boolean_knn(query, k=10)
        distances = [d for d, _ in hits]
        assert distances == sorted(distances)
        assert len(hits) == 10

    def test_matches_linear_scan(self, ds, tree):
        query = Query.create(123, 456, [0, 2])
        hits = tree.boolean_knn(query, k=4)
        expected = sorted(
            (query.location.distance_to(o.location), o.oid)
            for o in ds
            if query.keywords <= o.keywords
        )[:4]
        assert [round(d, 9) for d, _ in hits] == [round(d, 9) for d, _ in expected]

    def test_impossible_combination_is_empty(self, ds, tree):
        # With enough keywords no single object covers them all.
        query = Query.create(0, 0, list(range(10)))
        assert tree.boolean_knn(query, k=3) == []

    def test_nonpositive_k(self, tree):
        assert tree.boolean_knn(Query.create(0, 0, [0]), k=0) == []
