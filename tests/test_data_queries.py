"""Tests for the paper-style query workload generator."""

import itertools

import pytest

from repro.data.generators import uniform_dataset
from repro.data.queries import QueryWorkload, generate_queries
from repro.errors import InvalidParameterError


@pytest.fixture(scope="module")
def ds():
    return uniform_dataset(500, 60, mean_keywords=3.0, seed=31)


class TestValidation:
    def test_bad_percentiles(self, ds):
        with pytest.raises(InvalidParameterError):
            QueryWorkload(ds, 3, percentile_range=(0.4, 0.4))
        with pytest.raises(InvalidParameterError):
            QueryWorkload(ds, 3, percentile_range=(-0.1, 0.4))
        with pytest.raises(InvalidParameterError):
            QueryWorkload(ds, 3, percentile_range=(0.0, 1.1))

    def test_needs_a_keyword(self, ds):
        with pytest.raises(InvalidParameterError):
            QueryWorkload(ds, 0)

    def test_band_too_small(self, ds):
        with pytest.raises(InvalidParameterError):
            QueryWorkload(ds, 50, percentile_range=(0.0, 0.01)).generate(1)


class TestGeneration:
    def test_count_and_size(self, ds):
        queries = generate_queries(ds, 5, 12, seed=1)
        assert len(queries) == 12
        assert all(q.size == 5 for q in queries)

    def test_locations_inside_mbr(self, ds):
        rect = ds.mbr()
        for q in generate_queries(ds, 3, 20, seed=2):
            assert rect.contains_point(q.location)

    def test_keywords_from_percentile_band(self, ds):
        ranked = ds.keywords_by_frequency()
        band = set(ranked[: max(1, int(0.4 * len(ranked)))])
        for q in generate_queries(ds, 3, 20, seed=3):
            assert q.keywords <= band

    def test_queries_always_coverable(self, ds):
        for q in generate_queries(ds, 6, 20, seed=4):
            assert not ds.missing_keywords(q.keywords)

    def test_determinism(self, ds):
        a = generate_queries(ds, 3, 10, seed=5)
        b = generate_queries(ds, 3, 10, seed=5)
        assert [(q.location, q.keywords) for q in a] == [
            (q.location, q.keywords) for q in b
        ]

    def test_different_seeds_differ(self, ds):
        a = generate_queries(ds, 3, 10, seed=5)
        b = generate_queries(ds, 3, 10, seed=6)
        assert [(q.location, q.keywords) for q in a] != [
            (q.location, q.keywords) for q in b
        ]

    def test_iterator_protocol_matches_generate(self, ds):
        workload = QueryWorkload(ds, 4, seed=8)
        streamed = list(itertools.islice(iter(workload), 5))
        generated = workload.generate(5)
        assert [(q.location, q.keywords) for q in streamed] == [
            (q.location, q.keywords) for q in generated
        ]

    def test_custom_band(self, ds):
        ranked = ds.keywords_by_frequency()
        lo, hi = 0.5, 0.9
        band = set(ranked[int(lo * len(ranked)) : int(hi * len(ranked))])
        for q in generate_queries(ds, 2, 10, percentile_range=(lo, hi), seed=9):
            assert q.keywords <= band
