"""Per-owner distance memoization for the owner-driven exact search.

``OwnerDrivenExact._best_for_owner`` fixes one owner and one candidate
list, then bisects over the diameter cap — and every bisection probe
re-asks the *same* distance questions: is candidate ``i`` within the cap
of the owner?  of the already-chosen candidates?  The naive path
recomputes each answer with ``Point.distance_to`` attribute chasing,
turning N probes into N·O(k²) hypots over an unchanging geometry.

A :class:`DistanceOracle` is built **once per owner** from the candidate
list.  It packs the coordinates flat, eagerly fills the candidate↔owner
distance vector (one ``hypot`` per candidate), and memoizes candidate
pairwise-distance rows lazily (one ``hypot`` per pair, computed at most
once across *all* probes).  Every stored distance is the exact
``math.hypot`` value the scalar code produces, so cap comparisons made
through the oracle are bit-identical to the code they replace — the
memoization changes *when* a distance is computed, never its value.

The oracle additionally caches the per-keyword candidate tables of the
constrained cover search (:mod:`repro.algorithms.cover`).  The tables
are cap-independent — deduplication keys on exact coordinates plus the
relevant keyword trace, so co-located duplicates share anchor distances
and filtering a deduplicated table by cap equals deduplicating the
cap-filtered list — which lets each probe reduce the anchor filter to a
vector compare over the memoized owner distances.

Soundness requires the candidate geometry to be frozen for the oracle's
lifetime; that holds because solvers never mutate shared search state
(lint rule R7) and the oracle lives inside a single ``solve()`` call.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.kernels.flat import distances_from, pack_objects

__all__ = ["DistanceOracle"]


class DistanceOracle:
    """Memoized distances between one anchor and a fixed candidate list."""

    __slots__ = (
        "objects",
        "xs",
        "ys",
        "anchor_d",
        "_rows",
        "_tables",
        "_indices",
        "_kw_masks",
    )

    def __init__(
        self,
        anchor_location,
        candidates: Sequence,
        xs: Optional[array] = None,
        ys: Optional[array] = None,
        anchor_d: Optional[array] = None,
    ) -> None:
        self.objects: Tuple = tuple(candidates)
        if xs is None or ys is None:
            xs, ys = pack_objects(self.objects)
        #: Packed candidate coordinates.  Callers that already hold the
        #: coordinates flat (the solver's owner stream prefix) pass them
        #: in to skip re-chasing ``obj.location`` per candidate; the
        #: arrays must mirror ``candidates`` element-for-element.
        self.xs, self.ys = xs, ys
        #: Exact owner↔candidate distances, filled eagerly (each one is
        #: needed by the very first probe's anchor filter anyway).  A
        #: caller whose candidate selection already computed the exact
        #: ``math.hypot`` anchor distances (the lens gather) passes them
        #: in; they must equal what ``distances_from`` would produce.
        if anchor_d is None:
            anchor_d = distances_from(
                anchor_location.x, anchor_location.y, self.xs, self.ys
            )
        self.anchor_d: array = anchor_d
        self._rows: Dict[int, array] = {}
        self._tables: Dict[FrozenSet[int], Dict[int, List[int]]] = {}
        self._indices: Dict[int, int] = {
            obj.oid: i for i, obj in enumerate(self.objects)
        }
        self._kw_masks: Optional[Tuple[int, ...]] = None

    def keyword_masks(self) -> Tuple[int, ...]:
        """Per-candidate keyword bitmasks, indexed like ``objects``.

        Built lazily on first use (the masked cover search is the only
        consumer) and cached for the oracle's lifetime — sound for the
        same frozen-geometry reason as the distance rows.  The import is
        deferred so the kernels layer stays import-free of the rest of
        the package at module load.
        """
        cached = self._kw_masks
        if cached is None:
            from repro.index.signatures import mask_of

            cached = tuple(mask_of(o.keywords) for o in self.objects)
            self._kw_masks = cached
        return cached

    def __len__(self) -> int:
        return len(self.objects)

    def index_of(self, obj) -> int:
        """The candidate index of ``obj`` (by object id)."""
        return self._indices[obj.oid]

    def row(self, i: int) -> array:
        """Distances from candidate ``i`` to every candidate (memoized)."""
        cached = self._rows.get(i)
        if cached is None:
            cached = distances_from(self.xs[i], self.ys[i], self.xs, self.ys)
            self._rows[i] = cached
        return cached

    def pair_distance(self, i: int, j: int) -> float:
        """Exact distance between candidates ``i`` and ``j``."""
        row = self._rows.get(i)
        if row is not None:
            return row[j]
        row = self._rows.get(j)
        if row is not None:
            return row[i]
        return self.row(i)[j]

    def first_beyond(self, i: int, others: Sequence[int], cap: float) -> Optional[float]:
        """The first distance from candidate ``i`` to ``others`` above ``cap``.

        Scans ``others`` in order and stops at the first candidate
        farther than ``cap`` from ``i``; None when all are within it.
        """
        row = self.row(i)
        for j in others:
            d = row[j]
            if d > cap:
                return d
        return None

    def max_anchor_distance(self) -> float:
        """``max_i d(anchor, candidate_i)`` (0.0 with no candidates)."""
        best = 0.0
        for d in self.anchor_d:
            if d > best:
                best = d
        return best

    def diameter_with_anchor(self, indices: Sequence[int]) -> float:
        """Diameter of ``{anchor} ∪ {candidates[i] for i in indices}``.

        A max over exact stored hypot values, hence equal to
        :func:`repro.cost.base.pairwise_max_distance` over the same
        objects (max of identical floats is order-independent).
        """
        best = 0.0
        anchor_d = self.anchor_d
        for i in indices:
            d = anchor_d[i]
            if d > best:
                best = d
        for a in range(len(indices)):
            row = self.row(indices[a])
            for b in range(a + 1, len(indices)):
                d = row[indices[b]]
                if d > best:
                    best = d
        return best

    # -- cover tables ---------------------------------------------------------

    def cover_tables(
        self, uncovered: FrozenSet[int]
    ) -> Optional[Dict[int, List[int]]]:
        """Cap-independent per-keyword candidate index tables.

        The tables :func:`repro.algorithms.cover.find_constrained_cover`
        branches over, before its per-cap anchor filter: candidates are
        deduplicated by exact location plus relevant keyword trace, and
        each keyword's list is sorted richest-trace-first with oid
        tie-break.  Returns None when some
        keyword of ``uncovered`` has no candidate at all (no cap can
        make a cover exist).  Cached per ``uncovered`` set, so all
        bisection probes of one owner share a single construction.
        """
        cached = self._tables.get(uncovered)
        if cached is not None or uncovered in self._tables:
            return cached
        by_keyword: Dict[int, List[int]] = {t: [] for t in uncovered}
        seen_traces: set = set()
        for i, obj in enumerate(self.objects):
            trace = obj.keywords & uncovered
            if not trace:
                continue
            key = (self.xs[i], self.ys[i], trace)
            if key in seen_traces:
                continue
            seen_traces.add(key)
            for t in trace:
                by_keyword[t].append(i)
        objects = self.objects
        result: Optional[Dict[int, List[int]]] = by_keyword
        for t, lst in by_keyword.items():
            if not lst:
                result = None
                break
            lst.sort(key=lambda i: (-len(objects[i].keywords & uncovered), objects[i].oid))
        self._tables[uncovered] = result
        return result
