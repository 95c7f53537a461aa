"""Differential suite for the spatial-textual indexes.

:class:`KeywordTreeIndex`, the :class:`LinearScanIndex` oracle and the
:class:`ShardedIndex` facade claim one query semantics behind
:class:`SpatialTextIndex`: ``nearest_relevant_iter`` yields the relevant
objects in the total ``(distance, oid)`` order.  The solvers read
``N(q)``, ``NN(p, t)`` and ``C(q, r)`` from that order, ties included,
so the suite compares exact sequences:

- every backend yields the brute-force ``(distance, oid, mask)`` list,
  with and without a ``within`` disk, on random instances and on the
  tie-laden one;
- ``SearchContext.nn_set`` equals a brute-force ``N(q)`` on every
  backend — per keyword, the carrier with the smallest
  ``(distance, oid)``, also where carriers sit at exactly the same
  distance;
- the linear scan keeps no per-object state beside the dataset.
"""

from __future__ import annotations

import gc
import platform
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tie_instance
from repro.algorithms.base import SearchContext
from repro.data.generators import uniform_dataset
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index import KeywordTreeIndex, LinearScanIndex
from repro.model.dataset import Dataset
from repro.model.query import Query
from repro.shard import ShardedIndex

#: Each backend's build over a dataset, the trees at fan-out 4.
BACKENDS = {
    "KeywordTreeIndex": partial(KeywordTreeIndex.build, max_entries=4),
    "LinearScanIndex": LinearScanIndex.build,
    "ShardedIndex-1": partial(ShardedIndex.build, max_entries=4, num_shards=1),
    "ShardedIndex-4": partial(ShardedIndex.build, max_entries=4, num_shards=4),
    "ShardedIndex-16": partial(ShardedIndex.build, max_entries=4, num_shards=16),
}


def make_dataset(seed: int, num_objects: int = 50, vocab: int = 7) -> Dataset:
    return uniform_dataset(
        num_objects, vocab, mean_keywords=2.0, seed=seed, name="parity%d" % seed
    )


def stream_of(index, point, keywords, within=None):
    """The index's ``(distance, oid, mask)`` sequence, exactly as streamed."""
    return list(index.nearest_relevant_iter(point, keywords, within))


def brute_stream(dataset, point, keywords, within=None):
    """Bit ``i`` of a mask is the ``i``-th smallest query keyword."""
    order = sorted(keywords)
    return sorted(
        (
            point.distance_to(o.location),
            o.oid,
            sum(1 << i for i, t in enumerate(order) if t in o.keywords),
        )
        for o in dataset
        if not o.keywords.isdisjoint(keywords)
        and (within is None or within.contains(o.location))
    )


def brute_nn(dataset, query):
    """``N(q)`` by definition: per keyword, the least ``(distance, oid)`` carrier."""
    return {
        t: min(
            (query.location.distance_to(o.location), o.oid)
            for o in dataset
            if t in o.keywords
        )
        for t in query.keywords
    }


seeds = st.integers(min_value=0, max_value=10_000)
keyword_subsets = st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4)


class TestCrossBackendParity:
    @given(seed=seeds, keywords=keyword_subsets, windowed=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_nearest_relevant_stream_agrees(self, seed, keywords, windowed):
        dataset = make_dataset(seed)
        point = Point(0.4, 0.6)
        within = Circle(Point(0.5, 0.5), 0.35) if windowed else None
        expected = brute_stream(dataset, point, keywords, within)
        for name, backend in BACKENDS.items():
            index = backend(dataset)
            assert stream_of(index, point, keywords, within) == expected, name

    def test_tie_instance_streams_agree(self):
        dataset, _, queries = make_tie_instance()
        # Several objects lie exactly on this disk's rim.
        rim = Circle(Point(0.0, 0.0), 5.0)
        for name, backend in BACKENDS.items():
            index = backend(dataset)
            for query in queries:
                for within in (None, rim):
                    assert stream_of(
                        index, query.location, query.keywords, within
                    ) == brute_stream(dataset, query.location, query.keywords, within), (
                        name
                    )

    def test_nn_set_is_the_brute_force_nearest(self):
        dataset, _, tie_queries = make_tie_instance()
        instances = [(dataset, tie_queries)]
        # Carriers at exactly the same distance: b at (±1, 0), c at (0, ±1).
        assert brute_nn(dataset, tie_queries[0])[dataset.vocabulary.id_of("b")] == (
            1.0,
            11,
        )
        for seed in (3, 17, 2024):
            random = make_dataset(seed)
            frequent = random.keywords_by_frequency()
            queries = [
                Query.create(x, y, frequent[:size])
                for x, y, size in ((0.3, 0.7, 3), (0.8, 0.2, 4), (0.5, 0.5, 2))
            ]
            instances.append((random, queries))
        for data, queries in instances:
            for name, backend in BACKENDS.items():
                context = SearchContext(data).with_index(backend(data))
                for query in queries:
                    nn = context.nn_set(query)
                    got = {t: (d, o.oid) for t, (d, o) in nn.by_keyword.items()}
                    assert got == brute_nn(data, query), name
                    assert nn.d_f == max(d for d, _ in got.values())


@pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="tracemalloc sizes are a CPython detail",
)
def test_linear_scan_retains_under_1_byte_per_object():
    """The scan reads the dataset's keyword columns; it keeps no
    per-object state, such as a keyword mask as wide as the vocabulary."""
    dataset = uniform_dataset(4000, 2000, mean_keywords=2.0, seed=5, name="wide")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = LinearScanIndex(dataset)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) == 4000
    assert retained / len(dataset) < 1
