"""Loaders for external geo-textual data files.

The paper's real datasets (Hotel, GN, Web) circulate in ad-hoc delimited
formats; this module lets a user who *has* such files run the library on
them without reformatting: :func:`load_delimited` parses any
line-oriented file given a delimiter and the column positions of x, y and
the keywords, and :func:`from_coordinate_keyword_pairs` ingests already
parsed records.

Rows that fail to parse can either abort (default — silent data loss is
worse than a loud stop) or be counted and skipped (``on_error="skip"``)
for the dirty files real corpora tend to be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DatasetFormatError, InvalidParameterError
from repro.model.dataset import Dataset

__all__ = ["DelimitedFormat", "load_delimited", "from_coordinate_keyword_pairs"]


@dataclass(frozen=True)
class DelimitedFormat:
    """Column layout of a delimited geo-textual file.

    ``keyword_column`` of None means "every column after the coordinate
    columns is a keyword"; otherwise that single column holds the
    keywords joined by ``keyword_separator``.
    """

    delimiter: str = "\t"
    x_column: int = 0
    y_column: int = 1
    keyword_column: Optional[int] = 2
    keyword_separator: str = " "
    skip_header_lines: int = 0
    comment_prefix: str = "#"
    lowercase_keywords: bool = True

    def __post_init__(self) -> None:
        if self.x_column == self.y_column:
            raise InvalidParameterError("x and y columns must differ")
        if self.skip_header_lines < 0:
            raise InvalidParameterError("skip_header_lines must be non-negative")


def _parse_line(
    line: str, fmt: DelimitedFormat, lineno: int
) -> Tuple[float, float, List[str]]:
    parts = line.split(fmt.delimiter)
    try:
        x = float(parts[fmt.x_column])
        y = float(parts[fmt.y_column])
    except (ValueError, IndexError) as exc:
        raise DatasetFormatError("line %d: bad coordinates (%s)" % (lineno, exc)) from exc
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DatasetFormatError(
            "line %d: coordinates must be finite, got %r %r" % (lineno, x, y)
        )
    if fmt.keyword_column is None:
        used = {fmt.x_column, fmt.y_column}
        raw = [p for i, p in enumerate(parts) if i not in used]
    else:
        try:
            raw = parts[fmt.keyword_column].split(fmt.keyword_separator)
        except IndexError as exc:
            raise DatasetFormatError(
                "line %d: missing keyword column %d" % (lineno, fmt.keyword_column)
            ) from exc
    words = [w.strip() for w in raw if w.strip()]
    if fmt.lowercase_keywords:
        words = [w.lower() for w in words]
    if not words:
        raise DatasetFormatError("line %d: object has no keywords" % lineno)
    return x, y, words


def load_delimited(
    path: str | Path,
    fmt: DelimitedFormat = DelimitedFormat(),
    name: Optional[str] = None,
    on_error: str = "raise",
    limit: Optional[int] = None,
) -> Dataset:
    """Parse a delimited geo-textual file into a :class:`Dataset`.

    ``on_error`` is ``"raise"`` (default) or ``"skip"``; ``limit`` caps
    the number of objects read (handy for sampling huge corpora).
    """
    if on_error not in ("raise", "skip"):
        raise InvalidParameterError("on_error must be 'raise' or 'skip'")
    path = Path(path)

    def records() -> Iterator[Tuple[float, float, List[str]]]:
        loaded = 0
        with open(path, "r", encoding="utf-8") as stream:
            for lineno, line in enumerate(stream, start=1):
                if lineno <= fmt.skip_header_lines:
                    continue
                line = line.rstrip("\n")
                if not line or (
                    fmt.comment_prefix and line.startswith(fmt.comment_prefix)
                ):
                    continue
                if limit is not None and loaded >= limit:
                    return
                try:
                    yield _parse_line(line, fmt, lineno)
                except DatasetFormatError:
                    if on_error == "raise":
                        raise
                    continue
                loaded += 1

    dataset = Dataset.from_records(
        records(), name=name if name is not None else path.stem
    )
    if not len(dataset):
        raise DatasetFormatError("no parsable objects in %s" % path)
    return dataset


def from_coordinate_keyword_pairs(
    pairs: Iterable[Tuple[Tuple[float, float], Sequence[str]]],
    name: str = "imported",
) -> Dataset:
    """Build a dataset from ``((x, y), keywords)`` records.

    The adapter for data already living in Python structures (API
    results, dataframes iterated row-wise, …).
    """
    return Dataset.from_records(
        ((x, y, list(words)) for (x, y), words in pairs), name=name
    )
