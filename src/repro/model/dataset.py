"""Datasets: an object collection, its vocabulary and its statistics.

A :class:`Dataset` is the unit the rest of the library operates on — the
indexes are built over one, the generators produce one, the benchmark
harness sweeps over several.  A simple line-oriented text format
(``x<TAB>y<TAB>word word ...``) supports saving/loading so experiments are
repeatable without regenerating data.

A dataset is stored as flat columns indexed by oid, not as one Python
object graph per object: the coordinates ``xs`` and ``ys`` as
``array("d")``, and every object's keyword ids, ascending, back to back
in one ``array("i")`` that ``keyword_offsets`` (``n + 1`` entries) cuts
into objects.  ``dataset[oid]`` builds the object's
:class:`~repro.model.objects.SpatialObject` on demand.  The keyword →
oids postings (:class:`Postings`) are built once, with the columns, so a
dataset is immutable after construction and safe to share read-only
across threads.
"""

from __future__ import annotations

import io
import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import DatasetFormatError
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.model.objects import SpatialObject
from repro.model.vocabulary import Vocabulary

__all__ = ["Dataset", "DatasetStatistics", "Postings", "group_by_keyword", "text_lines"]


def text_lines(path: str | Path) -> Iterator[str]:
    """The lines of the UTF-8 text file at ``path``.

    Bytes that are not UTF-8 decode to lone surrogates
    (``surrogateescape``), which no UTF-8 text holds, so the first line
    carrying one raises :class:`DatasetFormatError` naming the file and
    the line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DatasetFormatError(
                        "%s line %d: not UTF-8 text" % (path, lineno)
                    ) from None
            yield line


def group_by_keyword(
    ids: Sequence[int], offsets: Sequence[int], rows: Optional[Sequence[int]] = None
) -> Tuple[array, array, array]:
    """Group rows by keyword, by counting sort over keyword columns.

    Row ``r`` carries the keyword ids ``ids[offsets[r]:offsets[r + 1]]``;
    without ``rows`` every row is grouped, in order.  The columns are
    read in place.  Returns ``(keywords, offsets, grouped)``, all
    ``array("i")``: the ids carried by any of ``rows``, ascending; and
    for the keyword at slot ``s``, ``grouped[offsets[s]:offsets[s + 1]]``
    lists the rows that carry it, in the order of ``rows``.  An id or
    row past ``2**31 - 1`` raises :class:`OverflowError`.
    """
    if rows is None:
        rows = range(len(offsets) - 1)
        counts: Dict[int, int] = dict(Counter(ids))
    else:
        counts = dict(
            Counter(chain.from_iterable(ids[offsets[r] : offsets[r + 1]] for r in rows))
        )
    # Turn each keyword's count into the next free place of its range;
    # the second pass drops every row into place.
    keywords = array("i", sorted(counts))
    slots = array("i", [0])
    total = 0
    for k in keywords:
        counts[k], total = total, total + counts[k]
        slots.append(total)
    grouped = array("i", [0]) * total
    for r in rows:
        for k in ids[offsets[r] : offsets[r + 1]]:
            at = counts[k]
            grouped[at] = r
            counts[k] = at + 1
    return keywords, slots, grouped


class Postings(NamedTuple):
    """Keyword → oids posting lists in three flat ``array("i")``.

    The layout of :func:`group_by_keyword`: the carried keyword ids
    ascending, one offset per keyword, and the oids of every posting
    list, each ascending, back to back.
    """

    keywords: array
    offsets: array
    oids: array

    def slot(self, k: int) -> int:
        """The slot of keyword ``k``, or -1 when no object carries it."""
        keywords = self.keywords
        at = bisect_left(keywords, k)
        return at if at < len(keywords) and keywords[at] == k else -1


@dataclass(frozen=True, slots=True)
class DatasetStatistics:
    """The dataset statistics reported in the paper's Table 1."""

    num_objects: int
    num_unique_words: int
    num_words: int
    avg_keywords_per_object: float

    def as_row(self) -> Dict[str, float]:
        """The statistics as a flat dict (for report tables)."""
        return {
            "objects": self.num_objects,
            "unique_words": self.num_unique_words,
            "words": self.num_words,
            "avg_obj_keywords": round(self.avg_keywords_per_object, 3),
        }


def _checked_rows(
    objects: Iterable[SpatialObject], vocabulary_size: int
) -> Iterator[Tuple[float, float, FrozenSet[int]]]:
    """``(x, y, keywords)`` of each object, refusing malformed ones.

    A bad keyword id would fail untyped inside the index build (or, as
    ``True``, pass for 1), and the oids must be the rows.
    """
    for expected_oid, obj in enumerate(objects):
        if obj.oid != expected_oid:
            raise DatasetFormatError(
                "object ids must be dense and ordered; found oid %d at "
                "position %d" % (obj.oid, expected_oid)
            )
        keywords = obj.keywords
        if not isinstance(keywords, frozenset):
            raise DatasetFormatError(
                "object %d: keywords must be a frozenset of keyword ids, "
                "got %r" % (expected_oid, keywords)
            )
        for k in keywords:
            # ``type`` rather than ``isinstance``: bool is an int.
            if type(k) is not int or not 0 <= k < vocabulary_size:
                raise DatasetFormatError(
                    "object %d: keyword id %r is not an int in [0, %d)"
                    % (expected_oid, k, vocabulary_size)
                )
        yield obj.location.x, obj.location.y, keywords


class Dataset:
    """An immutable-after-construction collection of geo-textual objects."""

    __slots__ = (
        "name",
        "vocabulary",
        "xs",
        "ys",
        "keyword_ids",
        "keyword_offsets",
        "postings",
        "_mbr",
    )

    def __init__(
        self,
        objects: Iterable[SpatialObject],
        vocabulary: Vocabulary,
        name: str = "dataset",
    ):
        self._set_columns(name, vocabulary, _checked_rows(objects, len(vocabulary)))

    def _set_columns(
        self,
        name: str,
        vocabulary: Vocabulary,
        rows: Iterable[Tuple[float, float, Iterable[int]]],
    ) -> None:
        """Pack ``(x, y, keyword ids)`` rows, by oid, and group the postings.

        Every index, context and solver takes a Dataset, so this is where
        a non-finite coordinate is refused; it would otherwise get an
        answer.
        """
        xs = array("d")
        ys = array("d")
        keyword_ids = array("i")
        keyword_offsets = array("i", [0])
        isfinite = math.isfinite
        for oid, (x, y, keywords) in enumerate(rows):
            try:
                finite = isfinite(x) and isfinite(y)
            except TypeError:  # not a real number at all
                finite = False
            if not finite:
                raise DatasetFormatError(
                    "object %d: coordinates must be finite numbers, got (%r, %r)"
                    % (oid, x, y)
                )
            xs.append(x)
            ys.append(y)
            keyword_ids.extend(sorted(keywords))
            keyword_offsets.append(len(keyword_ids))
        self.name = name
        self.vocabulary = vocabulary
        self.xs = xs
        self.ys = ys
        self.keyword_ids = keyword_ids
        self.keyword_offsets = keyword_offsets
        # A dataset's oids are its rows.
        self.postings = Postings(*group_by_keyword(keyword_ids, keyword_offsets))
        self._mbr: MBR | None = None

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def from_records(
        records: Iterable[tuple[float, float, Iterable[str]]],
        name: str = "dataset",
    ) -> "Dataset":
        """Build a dataset from ``(x, y, words)`` records, interning words.

        Keyword ids are assigned in first-seen word order; a word
        repeated within a record counts once.
        """
        vocabulary = Vocabulary()
        intern = vocabulary.add
        dataset = Dataset.__new__(Dataset)
        dataset._set_columns(
            name,
            vocabulary,
            ((x, y, {intern(w) for w in words}) for x, y, words in records),
        )
        return dataset

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.xs)

    def _build(self, oid: int) -> SpatialObject:
        offsets = self.keyword_offsets
        return SpatialObject(
            oid,
            Point(self.xs[oid], self.ys[oid]),
            frozenset(self.keyword_ids[offsets[oid] : offsets[oid + 1]]),
        )

    def __iter__(self) -> Iterator[SpatialObject]:
        """The objects in oid order, each built as it is reached."""
        return map(self._build, range(len(self.xs)))

    def __getitem__(self, oid: int) -> SpatialObject:
        """The object ``oid``, built from the columns.

        Raises :class:`IndexError` outside ``[0, len)``: an oid is not a
        list position, so ``-1`` names no object.
        """
        if not 0 <= oid < len(self.xs):
            raise IndexError("oid %r is not in [0, %d)" % (oid, len(self.xs)))
        return self._build(oid)

    def keywords_of(self, oid: int) -> array:
        """The keyword ids of object ``oid``, ascending (a column slice)."""
        offsets = self.keyword_offsets
        return self.keyword_ids[offsets[oid] : offsets[oid + 1]]

    def __repr__(self) -> str:
        return "Dataset(%r, %d objects, %d words)" % (
            self.name,
            len(self),
            len(self.vocabulary),
        )

    # -- the postings --------------------------------------------------------

    def missing_keywords(self, keyword_ids: Iterable[int]) -> FrozenSet[int]:
        """The subset of ``keyword_ids`` carried by no object at all."""
        slot = self.postings.slot
        return frozenset(k for k in keyword_ids if slot(k) < 0)

    def relevant_oids(self, keyword_ids: Iterable[int]) -> List[int]:
        """The oids of :meth:`relevant_objects`, in its order."""
        postings = self.postings
        offsets, oids = postings.offsets, postings.oids
        seen: set[int] = set()
        out: List[int] = []
        for k in keyword_ids:
            slot = postings.slot(k)
            if slot < 0:
                continue
            for oid in oids[offsets[slot] : offsets[slot + 1]]:
                if oid not in seen:
                    seen.add(oid)
                    out.append(oid)
        return out

    def relevant_objects(self, keyword_ids: Iterable[int]) -> List[SpatialObject]:
        """All objects carrying at least one keyword of ``keyword_ids``.

        This is the paper's relevant-object set ``O_q``; each object is
        returned once even if it matches several keywords, in the order
        of ``keyword_ids`` and, per keyword, by ascending oid.
        """
        return list(map(self._build, self.relevant_oids(keyword_ids)))

    # -- derived data ----------------------------------------------------------

    def mbr(self) -> MBR:
        """The bounding rectangle of all object locations (cached)."""
        if self._mbr is None:
            if not len(self):
                raise DatasetFormatError("empty dataset has no MBR")
            self._mbr = MBR(min(self.xs), min(self.ys), max(self.xs), max(self.ys))
        return self._mbr

    def keyword_frequencies(self) -> Dict[int, int]:
        """Map keyword id → number of objects carrying it."""
        keywords, offsets, _ = self.postings
        return {k: offsets[s + 1] - offsets[s] for s, k in enumerate(keywords)}

    def keywords_by_frequency(self) -> List[int]:
        """Keyword ids sorted by descending document frequency.

        Ties broken by id so the order is deterministic; the paper's query
        generator samples keywords from percentile ranges of this ranking.
        """
        freq = self.keyword_frequencies()
        return sorted(freq, key=lambda k: (-freq[k], k))

    def statistics(self) -> DatasetStatistics:
        """Table-1 style statistics of this dataset."""
        num_words = len(self.keyword_ids)
        n = len(self)
        return DatasetStatistics(
            num_objects=n,
            num_unique_words=len(self.postings.keywords),
            num_words=num_words,
            avg_keywords_per_object=(num_words / n) if n else 0.0,
        )

    # -- serialization -----------------------------------------------------

    def dump(self, stream: io.TextIOBase) -> None:
        """Write the dataset in the line-oriented text format."""
        word_of = self.vocabulary.word_of
        ids, offsets = self.keyword_ids, self.keyword_offsets
        for oid, (x, y) in enumerate(zip(self.xs, self.ys)):
            words = sorted(map(word_of, ids[offsets[oid] : offsets[oid + 1]]))
            stream.write("%r\t%r\t%s\n" % (x, y, " ".join(words)))

    def save(self, path: str | Path) -> None:
        """Write the dataset to ``path`` in the text format."""
        with open(path, "w", encoding="utf-8") as f:
            self.dump(f)

    @staticmethod
    def parse(stream: Iterable[str], name: str = "dataset") -> "Dataset":
        """Read a dataset from lines in the text format."""

        def records() -> Iterator[tuple[float, float, List[str]]]:
            for lineno, line in enumerate(stream, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise DatasetFormatError(
                        "line %d: expected 3 tab-separated fields, got %d"
                        % (lineno, len(parts))
                    )
                try:
                    x = float(parts[0])
                    y = float(parts[1])
                except ValueError as exc:
                    raise DatasetFormatError(
                        "line %d: bad coordinates: %s" % (lineno, exc)
                    ) from exc
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise DatasetFormatError(
                        "line %d: coordinates must be finite, got %r %r"
                        % (lineno, parts[0], parts[1])
                    )
                words = [w for w in parts[2].split(" ") if w]
                if not words:
                    raise DatasetFormatError("line %d: object has no keywords" % lineno)
                yield (x, y, words)

        return Dataset.from_records(records(), name=name)

    @staticmethod
    def load(path: str | Path, name: str | None = None) -> "Dataset":
        """Read a dataset from the text file at ``path``."""
        path = Path(path)
        return Dataset.parse(
            text_lines(path), name=name if name is not None else path.stem
        )
