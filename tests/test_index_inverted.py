"""Tests for the inverted index."""

from repro.geometry.point import Point
from repro.index.inverted import InvertedIndex
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
