"""Keyword interning: string keywords ⇄ dense integer ids.

Every structure downstream (objects, inverted lists, per-keyword trees,
query keyword sets) works on small integers instead of strings, so a
dataset carries one :class:`Vocabulary` translating between the two
worlds.  Ids are assigned densely in first-seen order, which keeps them
usable as list indexes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.errors import UnknownKeywordError

__all__ = ["Vocabulary"]


class Vocabulary:
    """A bidirectional keyword ⇄ id mapping with dense ids."""

    __slots__ = ("_word_to_id", "_id_to_word")

    def __init__(self, words: Iterable[str] = ()):
        self._word_to_id: Dict[str, int] = {}
        self._id_to_word: List[str] = []
        for word in words:
            self.add(word)

    def add(self, word: str) -> int:
        """Intern ``word`` and return its id (existing id if already known)."""
        existing = self._word_to_id.get(word)
        if existing is not None:
            return existing
        new_id = len(self._id_to_word)
        self._word_to_id[word] = new_id
        self._id_to_word.append(word)
        return new_id

    def id_of(self, word: str) -> int:
        """The id of a known word; raises :class:`UnknownKeywordError`."""
        try:
            return self._word_to_id[word]
        except KeyError:
            raise UnknownKeywordError(word) from None

    def word_of(self, keyword_id: int) -> str:
        """The word for a known id; raises :class:`UnknownKeywordError`."""
        if 0 <= keyword_id < len(self._id_to_word):
            return self._id_to_word[keyword_id]
        raise UnknownKeywordError(str(keyword_id))

    def ids_of(self, words: Iterable[str]) -> frozenset[int]:
        """Ids of many known words as a frozenset."""
        return frozenset(self.id_of(w) for w in words)

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def __len__(self) -> int:
        return len(self._id_to_word)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._id_to_word == other._id_to_word

    def __repr__(self) -> str:
        return "Vocabulary(%d words)" % len(self)
