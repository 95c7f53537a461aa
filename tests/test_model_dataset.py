"""Tests for datasets: construction, statistics, serialization."""

import io
import math
import platform
import sys

import pytest

from repro.errors import DatasetFormatError
from repro.geometry.point import Point
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.vocabulary import Vocabulary


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
        reason="frozenset table sizes are a CPython detail",
    )
    def test_loaded_keyword_sets_are_right_sized(self, tmp_path):
        """A loaded keyword set takes no more room than a copy of a set.

        Grown element by element, a 5- to 7-member frozenset would take a
        32-slot table where 16 slots hold it.
        """
        path = tmp_path / "wide.tsv"
        lines = []
        for n in (5, 6, 7):
            words = " ".join("w%d" % i for i in range(n))
            lines.append("%d.0\t0.0\t%s\n" % (n, words))
        path.write_text("".join(lines))
        loaded = Dataset.load(path)
        assert sorted(len(o.keywords) for o in loaded) == [5, 6, 7]
        for obj in loaded:
            assert sys.getsizeof(obj.keywords) <= sys.getsizeof(
                frozenset(set(obj.keywords))
            )
