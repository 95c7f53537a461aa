"""A bounded memoizing wrapper around any :class:`SpatialTextIndex`.

The distance owner-driven search hammers a small set of index
primitives — ``keyword_nn``, ``nearest_neighbor_set`` and the disk/region
retrievals — and a production query stream repeats them constantly:
nearby queries share nearest neighbors, repeated queries share their
whole ``N(q)``.  :class:`CachingIndex` memoizes those lookups behind the
same :class:`~repro.index.protocol.SpatialTextIndex` surface, so every
algorithm (and the whole :mod:`repro.exec` resilience stack) benefits
without change.

Design constraints the wrapper honors:

- **Canonical keys.**  Every cache key is built from primitive values
  (coordinates, radii, frozen keyword sets) rather than object identity,
  so two :class:`~repro.geometry.point.Point` instances at the same
  location share an entry.  Region keys sort their circles — disk
  intersection is order-independent.
- **Defensive snapshots.**  Mutable return values (lists, dicts) are
  stored as immutable snapshots and handed back as fresh copies, so a
  caller that sorts or mutates its result can never poison later hits.
- **Bounded memory.**  One shared LRU across all methods, ``capacity``
  entries; evictions are counted, never silent.
- **Honest stats.**  ``stats`` carries hits/misses/evictions plus the
  ``uncached`` count of pass-through calls; hit rates feed the
  ``parallel_study`` benchmark and batch reports.

``nearest_relevant_iter`` is deliberately *not* cached: it returns a
lazy, possibly unbounded iterator that callers consume partially, so
memoizing it would either change laziness semantics or buffer an
unbounded prefix.  It delegates directly and counts as ``uncached``.

- **Thread safety.**  The LRU map and its counters are guarded by one
  lock so the threaded serving daemon (:mod:`repro.serve`) can share a
  cache across request handlers and read consistent ``/stats``
  snapshots.  The expensive ``compute`` of a miss runs *outside* the
  lock (two racing misses may compute twice; the first insert wins and
  both callers see the canonical snapshot), so concurrency is never
  serialized on index work.  The lock is created per instance and never
  pickled — caches are built worker-side from a
  :class:`~repro.parallel.spec.CacheSpec`, never shipped.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import InvalidParameterError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.protocol import SpatialTextIndex
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.query import Query

__all__ = ["CacheStats", "CachingIndex", "DEFAULT_CACHE_CAPACITY"]

#: Default LRU capacity (entries across all memoized methods).
DEFAULT_CACHE_CAPACITY = 4096


@dataclass
class CacheStats:
    """Counters for one cache: lookups served, recomputed, evicted."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Calls on methods the cache deliberately passes through.
    uncached: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cacheable lookups served from memory (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self, prefix: str = "") -> Dict[str, int]:
        """Flat integer counters, optionally key-prefixed for merging."""
        return {
            prefix + "hits": self.hits,
            prefix + "misses": self.misses,
            prefix + "evictions": self.evictions,
            prefix + "uncached": self.uncached,
        }


def _circle_key(circle: Circle) -> Tuple[float, float, float]:
    return (circle.center.x, circle.center.y, circle.radius)


class CachingIndex:
    """Memoize index lookups behind the :class:`SpatialTextIndex` surface.

    Structurally conforms to the protocol, so it drops into
    :meth:`~repro.algorithms.base.SearchContext.with_index` and every
    solver runs against it unchanged.  Correctness requires solvers to
    treat the index as read-only — enforced by lint rule R7
    (``docs/STATIC_ANALYSIS.md``).
    """

    def __init__(
        self,
        inner: SpatialTextIndex,
        capacity: int = DEFAULT_CACHE_CAPACITY,
    ):
        if capacity < 1:
            raise InvalidParameterError("cache capacity must be >= 1")
        self.inner = inner
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[object, ...], object]" = OrderedDict()
        # Guards _entries and stats; see "Thread safety" in the module
        # docstring.  An RLock so clear()/len() compose under callers
        # that already hold it.
        self._lock = threading.RLock()

    @classmethod
    def build(cls, dataset: Dataset, max_entries: int = 16) -> "CachingIndex":
        """Caches wrap a built index; direct builds are a usage error."""
        raise InvalidParameterError(
            "CachingIndex wraps an existing index: CachingIndex(inner)"
        )

    # -- the LRU core -----------------------------------------------------------

    def _memoized(
        self, key: Tuple[object, ...], compute: Callable[[], object]
    ) -> object:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None or key in self._entries:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.stats.misses += 1
        # The miss computes outside the lock: index lookups are the
        # expensive part, and serializing them would defeat the threaded
        # server.  A racing miss may compute the same value; the first
        # insert wins and stays canonical.
        value = compute()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None or key in self._entries:
                return existing
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry (stats are kept — they describe the lifetime)."""
        with self._lock:
            self._entries.clear()

    def stats_dict(self, prefix: str = "") -> Dict[str, int]:
        """A consistent counter snapshot (all four read under the lock)."""
        with self._lock:
            return self.stats.as_dict(prefix)

    def __len__(self) -> int:
        return len(self.inner)

    # -- memoized SpatialTextIndex surface --------------------------------------

    def keyword_nn(
        self, point: Point, keyword_id: int
    ) -> Tuple[float, SpatialObject] | None:
        key = ("nn", point.x, point.y, keyword_id)
        return self._memoized(
            key, lambda: self.inner.keyword_nn(point, keyword_id)
        )

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, SpatialObject]]:
        # Lazy iterator: cannot be memoized without changing semantics.
        with self._lock:
            self.stats.uncached += 1
        return self.inner.nearest_relevant_iter(point, keywords, within)

    def nearest_neighbor_set(
        self, query: Query
    ) -> Dict[int, Tuple[float, SpatialObject]]:
        key = ("nnset", query.location.x, query.location.y, query.keywords)
        snapshot = self._memoized(
            key, lambda: dict(self.inner.nearest_neighbor_set(query))
        )
        return dict(snapshot)

    def relevant_in_circle(
        self, circle: Circle, keywords: FrozenSet[int]
    ) -> List[SpatialObject]:
        key = ("circle", _circle_key(circle), keywords)
        snapshot = self._memoized(
            key, lambda: tuple(self.inner.relevant_in_circle(circle, keywords))
        )
        return list(snapshot)

    def objects_in_circle(self, circle: Circle) -> List[SpatialObject]:
        key = ("objects", _circle_key(circle))
        snapshot = self._memoized(
            key, lambda: tuple(self.inner.objects_in_circle(circle))
        )
        return list(snapshot)

    def __repr__(self) -> str:
        return "CachingIndex(%r, capacity=%d, hits=%d, misses=%d)" % (
            self.inner,
            self.capacity,
            self.stats.hits,
            self.stats.misses,
        )
