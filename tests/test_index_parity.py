"""Differential suite for the spatial-textual indexes.

:class:`IRTree` and the :class:`LinearScanIndex` oracle claim the same
query semantics behind :class:`SpatialTextIndex`.  Hypothesis drives
randomized instances through both:

- ``nearest_relevant_iter`` must yield the same ``(distance, oid)``
  multiset in non-decreasing distance order from both backends (tie
  order among equal distances is a per-backend traversal artifact, so
  the comparison normalizes equal-distance runs by oid);
- ``relevant_in_circle`` must agree with a naive scan on both backends,
  and the IR-tree's ``boolean_knn`` with the naive covering list;
- the IR-tree's incrementally maintained summaries (masks, MBRs,
  coordinate columns) must equal a from-scratch rebuild after any
  insert sequence (``check_invariants`` recomputes them all).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import uniform_dataset
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index import IRTree, LinearScanIndex
from repro.model.dataset import Dataset
from repro.model.query import Query

BACKENDS = (IRTree, LinearScanIndex)


def make_dataset(seed: int, num_objects: int = 50, vocab: int = 7) -> Dataset:
    return uniform_dataset(
        num_objects, vocab, mean_keywords=2.0, seed=seed, name="parity%d" % seed
    )


def normalized_stream(index, point, keywords):
    """(distance, oid) sequence with equal-distance runs sorted by oid."""
    seq = [(dist, obj.oid) for dist, obj in index.nearest_relevant_iter(point, keywords)]
    dists = [dist for dist, _ in seq]
    assert dists == sorted(dists), "stream must ascend by distance"
    return sorted(seq)


seeds = st.integers(min_value=0, max_value=10_000)
keyword_subsets = st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4)


class TestCrossBackendParity:
    @given(seed=seeds, keywords=keyword_subsets)
    @settings(max_examples=15, deadline=None)
    def test_nearest_relevant_stream_agrees(self, seed, keywords):
        dataset = make_dataset(seed)
        point = Point(0.4, 0.6)
        streams = {}
        for backend in BACKENDS:
            index = backend.build(dataset, max_entries=4)
            streams[backend.__name__] = normalized_stream(index, point, keywords)
        assert streams["IRTree"] == streams["LinearScanIndex"]

    @given(seed=seeds, keywords=keyword_subsets)
    @settings(max_examples=15, deadline=None)
    def test_region_queries_agree(self, seed, keywords):
        dataset = make_dataset(seed)
        circle = Circle(Point(0.5, 0.5), 0.35)
        expected_relevant = {o.oid for o in dataset.objects if o.keywords & keywords}
        for backend in BACKENDS:
            index = backend.build(dataset, max_entries=4)
            in_circle = {o.oid for o in index.relevant_in_circle(circle, keywords)}
            assert in_circle == {
                oid
                for oid in expected_relevant
                if circle.contains(dataset[oid].location)
            }

    @given(seed=seeds, keywords=keyword_subsets)
    @settings(max_examples=15, deadline=None)
    def test_boolean_knn_agrees(self, seed, keywords):
        dataset = make_dataset(seed)
        query = Query.create(0.45, 0.55, sorted(keywords))
        index = IRTree.build(dataset, max_entries=4)
        got = [(d, o.oid) for d, o in index.boolean_knn(query, 5)]
        covering = [
            (query.location.distance_to(o.location), o.oid)
            for o in dataset.objects
            if keywords <= o.keywords
        ]
        covering.sort()
        assert got == covering[:5]


class TestIncrementalInsertParity:
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_insert_path_matches_bulk_build(self, seed):
        dataset = make_dataset(seed, num_objects=40)
        tree = IRTree(max_entries=4)
        for obj in dataset.objects:
            tree.insert(obj)
        tree.check_invariants()
        oracle = LinearScanIndex(dataset)
        keywords = frozenset({0, 1, 2})
        got = normalized_stream(tree, Point(0.5, 0.5), keywords)
        want = normalized_stream(oracle, Point(0.5, 0.5), keywords)
        assert got == want

    def test_incremental_summaries_equal_rebuild(self):
        dataset = make_dataset(99, num_objects=60)
        tree = IRTree(max_entries=4)
        for obj in dataset.objects:
            tree.insert(obj)
            # check_invariants recomputes every summary (kw_mask/obj_masks,
            # MBRs, coordinate columns) from the entries and asserts the
            # maintained ones match.
        tree.check_invariants()
        rebuilt = IRTree.build(dataset, max_entries=4)
        keywords = frozenset({1, 3})
        assert normalized_stream(tree, Point(0.2, 0.8), keywords) == normalized_stream(
            rebuilt, Point(0.2, 0.8), keywords
        )
