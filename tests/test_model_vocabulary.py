"""Tests for keyword interning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import UnknownKeywordError
from repro.model.vocabulary import Vocabulary


class TestVocabulary:
    def test_add_assigns_dense_ids(self):
        v = Vocabulary()
        assert v.add("a") == 0
        assert v.add("b") == 1
        assert v.add("c") == 2

    def test_add_is_idempotent(self):
        v = Vocabulary()
        assert v.add("a") == 0
        assert v.add("a") == 0
        assert len(v) == 1

    def test_init_from_iterable(self):
        v = Vocabulary(["x", "y", "x"])
        assert len(v) == 2
        assert v.id_of("y") == 1

    def test_round_trip(self):
        v = Vocabulary(["hotel", "pool", "wifi"])
        for word in v:
            assert v.word_of(v.id_of(word)) == word

    def test_unknown_word_raises(self):
        v = Vocabulary(["a"])
        with pytest.raises(UnknownKeywordError):
            v.id_of("nope")

    def test_unknown_id_raises(self):
        v = Vocabulary(["a"])
        with pytest.raises(UnknownKeywordError):
            v.word_of(5)
        with pytest.raises(UnknownKeywordError):
            v.word_of(-1)

    def test_ids_of_and_words_of(self):
        v = Vocabulary(["a", "b", "c"])
        ids = v.ids_of(["a", "c"])
        assert ids == frozenset({0, 2})
        assert {v.word_of(k) for k in ids} == {"a", "c"}

    def test_contains(self):
        v = Vocabulary(["a"])
        assert "a" in v
        assert "b" not in v

    def test_equality(self):
        assert Vocabulary(["a", "b"]) == Vocabulary(["a", "b"])
        assert Vocabulary(["a", "b"]) != Vocabulary(["b", "a"])

    def test_repr(self):
        assert "2 words" in repr(Vocabulary(["a", "b"]))

    @given(st.lists(st.text(min_size=1, max_size=6), max_size=30))
    def test_ids_are_dense_and_stable(self, words):
        v = Vocabulary()
        ids = [v.add(w) for w in words]
        assert set(ids) == set(range(len(v)))
        for w, i in zip(words, ids):
            assert v.id_of(w) == v.add(w) == i or v.word_of(i) == w
