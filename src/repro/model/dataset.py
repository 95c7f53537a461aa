"""Datasets: an object collection, its vocabulary and its statistics.

A :class:`Dataset` is the unit the rest of the library operates on — the
indexes are built over one, the generators produce one, the benchmark
harness sweeps over several.  A simple line-oriented text format
(``x<TAB>y<TAB>word word ...``) supports saving/loading so experiments are
repeatable without regenerating data.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence

from repro.errors import DatasetFormatError
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.model.objects import SpatialObject
from repro.model.vocabulary import Vocabulary

__all__ = ["Dataset", "DatasetStatistics", "text_lines"]


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


class Dataset:
    """An immutable-after-construction collection of geo-textual objects."""

    __slots__ = ("name", "objects", "vocabulary", "_mbr")

    def __init__(
        self,
        objects: Sequence[SpatialObject],
        vocabulary: Vocabulary,
        name: str = "dataset",
    ):
        self.name = name
        self.objects: List[SpatialObject] = list(objects)
        self.vocabulary = vocabulary
        self._mbr: MBR | None = None
        # Every index, context and solver takes a Dataset, so this one
        # pass is where malformed objects are refused: a NaN coordinate
        # would otherwise get an answer, and a bad keyword id would fail
        # untyped inside the index build (or, as ``True``, pass for 1).
        size = len(vocabulary)
        isfinite = math.isfinite
        for expected_oid, obj in enumerate(self.objects):
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
                if type(k) is not int or not 0 <= k < size:
                    raise DatasetFormatError(
                        "object %d: keyword id %r is not an int in [0, %d)"
                        % (expected_oid, k, size)
                    )
            location = obj.location
            try:
                finite = isfinite(location.x) and isfinite(location.y)
            except TypeError:  # not a real number at all
                finite = False
            if not finite:
                raise DatasetFormatError(
                    "object %d: coordinates must be finite numbers, got (%r, %r)"
                    % (expected_oid, location.x, location.y)
                )

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def from_records(
        records: Iterable[tuple[float, float, Iterable[str]]],
        name: str = "dataset",
    ) -> "Dataset":
        """Build a dataset from ``(x, y, words)`` records, interning words."""
        vocabulary = Vocabulary()
        objects: List[SpatialObject] = []
        for oid, (x, y, words) in enumerate(records):
            # Copied from a set, a frozenset's table is sized to its
            # members; grown element by element it over-allocates (a
            # 5-member one takes 32 slots instead of 16).
            keyword_ids = frozenset({vocabulary.add(w) for w in words})
            objects.append(SpatialObject(oid, Point(x, y), keyword_ids))
        return Dataset(objects, vocabulary, name=name)

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[SpatialObject]:
        return iter(self.objects)

    def __getitem__(self, oid: int) -> SpatialObject:
        return self.objects[oid]

    def __repr__(self) -> str:
        return "Dataset(%r, %d objects, %d words)" % (
            self.name,
            len(self.objects),
            len(self.vocabulary),
        )

    # -- derived data ----------------------------------------------------------

    def mbr(self) -> MBR:
        """The bounding rectangle of all object locations (cached)."""
        if self._mbr is None:
            if not self.objects:
                raise DatasetFormatError("empty dataset has no MBR")
            self._mbr = MBR.from_points(o.location for o in self.objects)
        return self._mbr

    def keyword_frequencies(self) -> Dict[int, int]:
        """Map keyword id → number of objects carrying it."""
        freq: Dict[int, int] = {}
        for obj in self.objects:
            for k in obj.keywords:
                freq[k] = freq.get(k, 0) + 1
        return freq

    def keywords_by_frequency(self) -> List[int]:
        """Keyword ids sorted by descending document frequency.

        Ties broken by id so the order is deterministic; the paper's query
        generator samples keywords from percentile ranges of this ranking.
        """
        freq = self.keyword_frequencies()
        return sorted(freq, key=lambda k: (-freq[k], k))

    def statistics(self) -> DatasetStatistics:
        """Table-1 style statistics of this dataset."""
        num_words = sum(len(o.keywords) for o in self.objects)
        used_words = set()
        for obj in self.objects:
            used_words.update(obj.keywords)
        n = len(self.objects)
        return DatasetStatistics(
            num_objects=n,
            num_unique_words=len(used_words),
            num_words=num_words,
            avg_keywords_per_object=(num_words / n) if n else 0.0,
        )

    # -- serialization -----------------------------------------------------

    def dump(self, stream: io.TextIOBase) -> None:
        """Write the dataset in the line-oriented text format."""
        for obj in self.objects:
            words = sorted(self.vocabulary.word_of(k) for k in obj.keywords)
            stream.write(
                "%r\t%r\t%s\n" % (obj.location.x, obj.location.y, " ".join(words))
            )

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
