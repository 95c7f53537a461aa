"""The cross-query result cache: whole answers, memoized per worker.

:class:`ResultCache` memoizes whole solves: production CoSKQ traffic is
heavily skewed (the same hotspot query arrives over and over), and
re-running an exponential exact search for a byte-identical query is
pure waste.  It is the program's one memoization layer: the solvers'
index work is one lazy ``nearest_relevant_iter`` stream per query, and
the lookups keyed on the query's own location repeat only when the
whole query repeats, which this cache answers outright.  Keys follow
the paper's query identity — the pair ``(q.λ, q.ψ)`` — extended with
the solver label and cost name, because the *same* query answered by a
different algorithm or objective is a different answer.

When result reuse is **unsound** (and therefore refused or bypassed):

- under chaos injection — a cached answer would skip the fault plan
  (:class:`~repro.parallel.spec.WorkerEnv` rejects the combination);
- for nondeterministic or stateful solvers — everything in the registry
  is deterministic by construction (lint rule R2) and index-read-only
  (lint rule R7), which is exactly what makes this cache sound;
- for degraded fallback answers — the key holds no deadline or budget,
  so a degraded answer would be served to later requests that have the
  time for the strongest stage;
- when per-solve provenance matters: a cached hit returns the original
  result object, whose ``provenance.elapsed_ms``/``attempts`` describe
  the *first* solve, not the hit.  Costs and objects are identical;
  telemetry is historical.  ``docs/PARALLELISM.md`` discusses this.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["CacheStats", "ResultCache", "CachedSolver", "result_key"]


@dataclass
class CacheStats:
    """Counters for one cache: lookups served, recomputed, evicted."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self, prefix: str = "") -> Dict[str, int]:
        """Flat integer counters, optionally key-prefixed for merging."""
        return {
            prefix + "hits": self.hits,
            prefix + "misses": self.misses,
            prefix + "evictions": self.evictions,
        }


def result_key(
    query: Query, solver_label: str, cost_name: Optional[str]
) -> Tuple[object, ...]:
    """The canonical cache key: ``(q.λ, frozenset(q.ψ), solver, cost)``."""
    return (
        query.location.x,
        query.location.y,
        query.keywords,
        solver_label,
        cost_name,
    )


class ResultCache:
    """A bounded LRU from :func:`result_key` to :class:`CoSKQResult`.

    Thread-safe: lookups, inserts and the counters share one lock, so
    the threaded serving daemon (:mod:`repro.serve`) can consult the
    cache from every request handler and still read consistent
    ``/stats`` snapshots.  Results are immutable, so a hit needs no
    defensive copy; the lock only covers the LRU bookkeeping.  The lock
    is per instance and never pickled — caches are built worker-side
    from a :class:`~repro.parallel.spec.CacheSpec`.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise InvalidParameterError("result cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[object, ...], CoSKQResult]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: Tuple[object, ...]) -> Optional[CoSKQResult]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry

    def put(self, key: Tuple[object, ...], result: CoSKQResult) -> None:
        with self._lock:
            self._entries[key] = result
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def stats_dict(self, prefix: str = "") -> Dict[str, int]:
        """A consistent counter snapshot (all three read under the lock)."""
        with self._lock:
            return self.stats.as_dict(prefix)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return "ResultCache(%d/%d, hits=%d)" % (
            len(self._entries),
            self.capacity,
            self.stats.hits,
        )


class CachedSolver:
    """Drop-in solver wrapper that consults a :class:`ResultCache`.

    Duck-types the solver interface (``solve`` + ``name``), so it can be
    timed, batched and chained exactly like the solver it wraps.  Only
    full-strength answers are cached: failures and degraded fallback
    answers must re-execute, because the key holds no deadline or budget
    (a deadline blow-up yesterday says nothing about the retry budget
    today).
    """

    def __init__(
        self,
        solver,
        cache: ResultCache,
        cost_name: Optional[str] = None,
    ):
        self.solver = solver
        self.cache = cache
        self.name = str(getattr(solver, "name", type(solver).__name__))
        if cost_name is None:
            cost = getattr(solver, "cost", None)
            cost_name = getattr(cost, "name", None)
        self.cost_name = cost_name

    def solve(self, query: Query) -> CoSKQResult:
        key = result_key(query, self.name, self.cost_name)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        result = self.solver.solve(query)
        if result.provenance is None or not result.provenance.degraded:
            self.cache.put(key, result)
        return result

    def __repr__(self) -> str:
        return "CachedSolver(%s, %r)" % (self.name, self.cache)
