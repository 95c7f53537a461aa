"""Tests for datasets: construction, statistics, serialization."""

import gc
import io
import math
import platform
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import SearchContext
from repro.bench.macro.datasets import DatasetSpec, build_dataset
from repro.errors import DatasetFormatError
from repro.geometry.point import Point
from repro.index.keyword_trees import KeywordTreeIndex
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.vocabulary import Vocabulary
from repro.shard import ShardedIndex


def sample_dataset():
    return Dataset.from_records(
        [
            (0.0, 0.0, ["hotel", "pool"]),
            (1.0, 2.0, ["hotel"]),
            (3.0, 1.0, ["spa", "pool", "gym"]),
        ],
        name="sample",
    )


class TestConstruction:
    def test_from_records_interns_words(self):
        ds = sample_dataset()
        assert len(ds) == 3
        assert len(ds.vocabulary) == 4
        hotel = ds.vocabulary.id_of("hotel")
        assert hotel in ds[0].keywords and hotel in ds[1].keywords

    def test_dense_oid_enforced(self):
        v = Vocabulary(["a"])
        bad = [SpatialObject.create(5, 0, 0, [0])]
        with pytest.raises(DatasetFormatError):
            Dataset(bad, v)

    @pytest.mark.parametrize(
        "location, keywords, bad",
        [
            (Point(math.nan, 0.0), frozenset({0}), "nan"),
            (Point("1", 0.0), frozenset({0}), "'1'"),
            (Point(0.0, 0.0), frozenset({True}), "True"),
            (Point(0.0, 0.0), frozenset({-1}), "-1"),
            (Point(0.0, 0.0), {1}, "{1}"),
            (Point(0.0, 0.0), frozenset({7}), "7"),
        ],
        ids=[
            "nan-coordinate",
            "str-coordinate",
            "bool-keyword",
            "negative-keyword",
            "set-keywords",
            "keyword-outside-vocabulary",
        ],
    )
    def test_malformed_object_rejected(self, location, keywords, bad):
        v = Vocabulary(["a", "b"])
        objects = [
            SpatialObject.create(0, 1.0, 1.0, [0, 1]),
            SpatialObject(1, location, keywords),
        ]
        with pytest.raises(DatasetFormatError) as info:
            Dataset(objects, v)
        assert "object 1" in str(info.value)
        assert bad in str(info.value)

    def test_iteration_and_indexing(self):
        ds = sample_dataset()
        assert [o.oid for o in ds] == [0, 1, 2]
        assert ds[1].location.x == 1.0

    def test_repr(self):
        assert "sample" in repr(sample_dataset())


class TestDerived:
    def test_mbr(self):
        rect = sample_dataset().mbr()
        assert (rect.min_x, rect.min_y, rect.max_x, rect.max_y) == (0, 0, 3, 2)

    def test_mbr_cached_instance(self):
        ds = sample_dataset()
        assert ds.mbr() is ds.mbr()

    def test_empty_dataset_has_no_mbr(self):
        ds = Dataset([], Vocabulary())
        with pytest.raises(DatasetFormatError):
            ds.mbr()

    def test_keyword_frequencies(self):
        ds = sample_dataset()
        freq = ds.keyword_frequencies()
        assert freq[ds.vocabulary.id_of("hotel")] == 2
        assert freq[ds.vocabulary.id_of("gym")] == 1

    def test_keywords_by_frequency_ranking(self):
        ds = sample_dataset()
        ranked = ds.keywords_by_frequency()
        top_two = {ds.vocabulary.word_of(k) for k in ranked[:2]}
        assert top_two == {"hotel", "pool"}

    def test_statistics(self):
        stats = sample_dataset().statistics()
        assert stats.num_objects == 3
        assert stats.num_unique_words == 4
        assert stats.num_words == 6
        assert stats.avg_keywords_per_object == pytest.approx(2.0)
        assert stats.as_row()["objects"] == 3


class TestSerialization:
    def test_round_trip_via_stream(self):
        ds = sample_dataset()
        buffer = io.StringIO()
        ds.dump(buffer)
        loaded = Dataset.parse(buffer.getvalue().splitlines(), name="sample")
        assert len(loaded) == len(ds)
        for a, b in zip(ds, loaded):
            assert a.location == b.location
            assert {ds.vocabulary.word_of(k) for k in a.keywords} == {
                loaded.vocabulary.word_of(k) for k in b.keywords
            }

    def test_round_trip_via_file(self, tmp_path):
        ds = sample_dataset()
        path = tmp_path / "sample.tsv"
        ds.save(path)
        loaded = Dataset.load(path)
        assert loaded.name == "sample"
        assert len(loaded) == 3

    def test_parse_skips_comments_and_blanks(self):
        text = ["# comment", "", "1.0\t2.0\ta b"]
        ds = Dataset.parse(text)
        assert len(ds) == 1

    def test_parse_rejects_bad_field_count(self):
        with pytest.raises(DatasetFormatError):
            Dataset.parse(["1.0\t2.0"])

    def test_parse_rejects_bad_coordinates(self):
        with pytest.raises(DatasetFormatError):
            Dataset.parse(["x\t2.0\ta"])

    def test_parse_rejects_keywordless_objects(self):
        with pytest.raises(DatasetFormatError):
            Dataset.parse(["1.0\t2.0\t "])

    def test_round_trip_preserves_statistics(self, tmp_path):
        from repro.data.generators import uniform_dataset

        ds = uniform_dataset(50, 10, seed=2)
        path = tmp_path / "u.tsv"
        ds.save(path)
        loaded = Dataset.load(path)
        assert loaded.statistics() == ds.statistics()

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython",
        reason="tracemalloc sizes are a CPython detail",
    )
    def test_loaded_dataset_retains_under_100_bytes_per_object(self, tmp_path):
        """The columns, postings and vocabulary of a loaded dataset, not
        one Python object graph per object (about 500 bytes each)."""
        spec = DatasetSpec("hotel-4k", "hotel", 4000, seed=5)
        path = tmp_path / "hotel.tsv"
        build_dataset(spec).save(path)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = Dataset.load(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(loaded) == 4000
        assert retained / len(loaded) < 100

    def test_oid_outside_the_dataset_raises(self):
        """An oid is not a list position: ``-1`` names no object."""
        ds = sample_dataset()
        for oid in (-1, len(ds)):
            with pytest.raises(IndexError):
                ds[oid]
        assert ds[len(ds) - 1].oid == len(ds) - 1


class TestColumns:
    def test_loading_and_indexing_build_no_objects(self, tmp_path, monkeypatch):
        """Loading, keyword trees, an 8-shard facade and the postings all
        read the columns; a ``SpatialObject`` is built only on demand."""
        path = tmp_path / "uniform.tsv"
        build_dataset(DatasetSpec("u", "uniform", 600, seed=3)).save(path)
        built = []
        init = SpatialObject.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["oid"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(SpatialObject, "__init__", counted)
        loaded = Dataset.load(path)
        KeywordTreeIndex.build(loaded)
        ShardedIndex.build(loaded, num_shards=8)
        assert SearchContext(loaded).inverted is not None
        assert built == []
        assert loaded[7].oid == 7 and built == [7]

    def test_columns_hold_sorted_keyword_ids(self):
        ds = sample_dataset()
        assert ds.keyword_ids.typecode == "i" and ds.xs.typecode == "d"
        assert list(ds.keyword_offsets) == [0, 2, 3, 6]
        for oid in range(len(ds)):
            ids = list(ds.keywords_of(oid))
            assert ids == sorted(ds[oid].keywords)


#: Coordinates with signed zeros and repeats; words with repeats.
coordinates = st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-300, 12345.678])
line_words = st.lists(st.sampled_from(["a", "b", "c", "dd", "e"]), min_size=1, max_size=6)
object_line = st.tuples(coordinates, coordinates, line_words)
noise_line = st.sampled_from(["", "# a comment", "#\tcomment\twith tabs"])
text_lines_strategy = st.lists(st.one_of(object_line, noise_line), max_size=30)


class TestLoaderProperty:
    @given(text_lines_strategy)
    @settings(max_examples=80, deadline=None)
    def test_parse_matches_the_oracle_and_dumps_canonically(self, lines):
        text = [
            line if isinstance(line, str) else "%r\t%r\t%s" % (line[0], line[1], " ".join(line[2]))
            for line in lines
        ]
        ds = Dataset.parse(text)
        # The oracle: first-seen interning, repeated words collapsed.
        ids = {}
        rows = [line for line in lines if not isinstance(line, str)]
        expected = []
        for oid, (x, y, words) in enumerate(rows):
            keywords = frozenset(ids.setdefault(w, len(ids)) for w in words)
            expected.append((oid, repr(x), repr(y), keywords))
        assert list(ds.vocabulary) == list(ids)
        assert len(ds) == len(rows)
        got = [
            (o.oid, repr(o.location.x), repr(o.location.y), o.keywords)
            for o in map(ds.__getitem__, range(len(ds)))
        ]
        assert got == expected
        assert [(o.oid, o.keywords) for o in ds] == [(e[0], e[3]) for e in expected]
        out = io.StringIO()
        ds.dump(out)
        assert out.getvalue() == "".join(
            "%r\t%r\t%s\n" % (x, y, " ".join(sorted(set(words)))) for x, y, words in rows
        )
