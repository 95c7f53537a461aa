"""Query workload generation following the paper's recipe.

For a dataset ``O`` and a requested keyword count ``k`` the paper
generates a query by

- drawing ``q.λ`` uniformly at random from the MBR of the objects, and
- ranking all keywords by descending frequency and drawing ``k`` distinct
  keywords from a percentile band of that ranking (the paper uses the
  most frequent 40%: percentile range [0, 0.4]).

:class:`QueryWorkload` reproduces this and adds a guard the real
experiments need too: every generated query is checked coverable (a
keyword no object carries would make the query trivially infeasible).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

from repro.errors import DatasetFormatError, InvalidParameterError
from repro.model.dataset import Dataset, text_lines
from repro.model.query import Query
from repro.model.vocabulary import Vocabulary
from repro.utils.rng import substream

__all__ = ["QueryWorkload", "generate_queries", "load_query_file"]


@dataclass(frozen=True)
class QueryWorkload:
    """A reproducible stream of queries against one dataset."""

    dataset: Dataset
    num_keywords: int
    percentile_range: Tuple[float, float] = (0.0, 0.4)
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.percentile_range
        if not (0.0 <= lo < hi <= 1.0):
            raise InvalidParameterError(
                "percentile range must satisfy 0 ≤ lo < hi ≤ 1, got %r"
                % (self.percentile_range,)
            )
        if self.num_keywords < 1:
            raise InvalidParameterError("queries need at least one keyword")

    def _keyword_pool(self) -> List[int]:
        """Keyword ids in the requested frequency-percentile band."""
        ranked = self.dataset.keywords_by_frequency()
        lo, hi = self.percentile_range
        start = int(lo * len(ranked))
        stop = max(start + 1, int(hi * len(ranked)))
        pool = ranked[start:stop]
        if len(pool) < self.num_keywords:
            raise InvalidParameterError(
                "percentile band holds %d keywords; query needs %d"
                % (len(pool), self.num_keywords)
            )
        return pool

    def generate(self, count: int) -> List[Query]:
        """``count`` queries, deterministic in the workload seed."""
        rng = substream(self.seed, "queries/%s/%d" % (self.dataset.name, self.num_keywords))
        pool = self._keyword_pool()
        mbr = self.dataset.mbr()
        out: List[Query] = []
        for _ in range(count):
            out.append(self._one(rng, pool, mbr))
        return out

    def __iter__(self) -> Iterator[Query]:
        """An endless deterministic query stream."""
        rng = substream(self.seed, "queries/%s/%d" % (self.dataset.name, self.num_keywords))
        pool = self._keyword_pool()
        mbr = self.dataset.mbr()
        while True:
            yield self._one(rng, pool, mbr)

    def _one(self, rng: random.Random, pool: Sequence[int], mbr) -> Query:
        x = rng.uniform(mbr.min_x, mbr.max_x)
        y = rng.uniform(mbr.min_y, mbr.max_y)
        keywords = rng.sample(list(pool), self.num_keywords)
        return Query.create(x, y, keywords)


def generate_queries(
    dataset: Dataset,
    num_keywords: int,
    count: int,
    percentile_range: Tuple[float, float] = (0.0, 0.4),
    seed: int = 0,
) -> List[Query]:
    """One-shot convenience wrapper around :class:`QueryWorkload`."""
    workload = QueryWorkload(
        dataset=dataset,
        num_keywords=num_keywords,
        percentile_range=percentile_range,
        seed=seed,
    )
    return workload.generate(count)


def load_query_file(path: str | Path, vocabulary: Vocabulary) -> List[Query]:
    """Read a query batch from a text file (``coskq-query --batch``).

    Same shape as the dataset format: one query per line,
    ``x<TAB>y<TAB>word word ...``; blank lines and ``#`` comments are
    skipped.  Words resolve against ``vocabulary`` (unknown words raise
    the usual :class:`~repro.errors.UnknownKeywordError`).
    """
    queries: List[Query] = []
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DatasetFormatError(
                "query line %d: expected 3 tab-separated fields, got %d"
                % (lineno, len(parts))
            )
        try:
            x = float(parts[0])
            y = float(parts[1])
        except ValueError as exc:
            raise DatasetFormatError(
                "query line %d: bad coordinates: %s" % (lineno, exc)
            ) from exc
        words = [w for w in parts[2].split(" ") if w]
        if not words:
            raise DatasetFormatError(
                "query line %d: query has no keywords" % lineno
            )
        queries.append(Query.from_words(x, y, words, vocabulary))
    if not queries:
        raise DatasetFormatError("query file %s holds no queries" % path)
    return queries
