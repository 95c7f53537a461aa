"""Flat struct-of-arrays distance kernels (stdlib ``array('d')`` only).

Hot loops across the solvers and the indexes pay two overheads the
paper's C++ never did: per-pair attribute chasing (``obj.location.x``)
and a correctly rounded ``math.hypot`` per comparison even when a cheap
squared-distance bound already decides the comparison.  The kernels in
this module operate on packed coordinate arrays and use a *guarded*
squared-distance fast path that is provably **bit-identical** to the
naive ``math.hypot`` loops they replace:

- ``dx*dx + dy*dy`` has relative error at most ``3·2⁻⁵³`` (two exact-ish
  products and one addition, each correctly rounded), while
  ``math.hypot`` is correctly rounded.  So a squared comparison against
  a band of relative width ``1e-9`` — seven orders of magnitude wider
  than the arithmetic error — classifies a pair *conclusively* on either
  side of the band, and only pairs falling inside the band (or at
  non-normal magnitudes, where relative-error analysis breaks down) fall
  back to the exact ``math.hypot`` comparison the naive code performs.
- Running maxima (:func:`pairwise_max`, :func:`max_distance_from`) skip a pair only when its squared distance
  proves the exact distance cannot *strictly* improve the incumbent,
  which preserves both the returned value and the naive loop's
  first-strict-improvement tie-breaking.

Every distance this module ever *returns* is a plain ``math.hypot``
value — the single distance definition of :mod:`repro.geometry.point` —
so downstream comparisons see exactly the floats the scalar code
produced.  See ``docs/PERFORMANCE.md`` for the full soundness argument.

This module is the sanctioned home for inline ``math.hypot`` distance
math; solver modules are barred from it by lint rule R8
(``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "pack_objects",
    "max_distance_from",
    "pairwise_max",
    "pairwise_max_at",
    "first_beyond",
    "lens_lower_bound",
    "lens_scan",
    "cap_bands",
]

#: Relative guard band around a squared-distance threshold.  Pairs whose
#: squared distance lands outside ``[t²·(1-ε), t²·(1+ε)]`` are decided
#: without computing the exact distance; the band is ~10⁷ times wider
#: than the worst-case arithmetic error, so the classification is sound.
_GUARD_LO = 1.0 - 1e-9
_GUARD_HI = 1.0 + 1e-9

#: Below this magnitude a squared distance may be subnormal and the
#: relative-error argument above no longer applies; such comparisons
#: take the exact path.  (See the denormal note in
#: :meth:`repro.geometry.circle.Circle.contains`.)
_NORMAL_FLOOR = 1e-300

# -- packing -------------------------------------------------------------------


def pack_objects(objects: Iterable) -> Tuple[array, array]:
    """Pack spatial objects (``obj.location``) into ``(xs, ys)`` arrays."""
    xs = array("d")
    ys = array("d")
    for o in objects:
        loc = o.location
        xs.append(loc.x)
        ys.append(loc.y)
    return xs, ys


# -- guard-band plumbing --------------------------------------------------------


def _improvement_guard(best: float) -> float:
    """Squared threshold below which no pair can strictly beat ``best``.

    Returns ``-1.0`` (forcing the exact path for every pair) when the
    squared incumbent is non-normal or infinite, where the relative
    error bound does not hold.
    """
    g = best * best * _GUARD_LO
    if g > _NORMAL_FLOOR and not math.isinf(g):
        return g
    return -1.0


def cap_bands(cap: float) -> Tuple[float, float, bool]:
    """``(lo2, hi2, fast)`` guard bands for comparisons against ``cap``.

    When ``fast`` is true, a squared distance below ``lo2`` proves the
    exact distance is ``< cap`` and one above ``hi2`` proves it is
    ``> cap``; anything between (or when ``fast`` is false) must use the
    exact ``math.hypot`` comparison.
    """
    c2 = cap * cap
    if c2 > _NORMAL_FLOOR and not math.isinf(c2):
        return c2 * _GUARD_LO, c2 * _GUARD_HI, True
    return 0.0, 0.0, False


# -- kernels --------------------------------------------------------------------


def max_distance_from(x: float, y: float, xs: Sequence[float], ys: Sequence[float]) -> float:
    """``max_i hypot((x,y) - (xs[i], ys[i]))`` (0.0 for empty input)."""
    best = 0.0
    guard = -1.0
    for i in range(len(xs)):
        dx = x - xs[i]
        dy = y - ys[i]
        if dx * dx + dy * dy > guard:
            d = math.hypot(dx, dy)
            if d > best:
                best = d
                guard = _improvement_guard(best)
    return best


def pairwise_max(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The diameter of the packed point set (0.0 below two points).

    Bit-identical to the quadratic ``math.hypot`` scan: a pair is
    skipped only when its squared distance proves the exact distance
    cannot strictly exceed the incumbent maximum.
    """
    best = 0.0
    guard = -1.0
    n = len(xs)
    for i in range(n):
        xi = xs[i]
        yi = ys[i]
        for j in range(i + 1, n):
            dx = xi - xs[j]
            dy = yi - ys[j]
            if dx * dx + dy * dy > guard:
                d = math.hypot(dx, dy)
                if d > best:
                    best = d
                    guard = _improvement_guard(best)
    return best


def pairwise_max_at(indices: Sequence[int], xs: Sequence[float], ys: Sequence[float]) -> float:
    """:func:`pairwise_max` of the packed points at ``indices``.

    The realized diameter of an owner-driven set given by stream
    indices: its owner↔member pairs are the members' owner distances.
    """
    return pairwise_max([xs[i] for i in indices], [ys[i] for i in indices])


def first_beyond(
    x: float,
    y: float,
    indices: Sequence[int],
    xs: Sequence[float],
    ys: Sequence[float],
    cap: float,
) -> Optional[float]:
    """The first distance from ``(x, y)`` to the points at ``indices`` above ``cap``.

    Scans ``indices`` in order and returns the exact ``math.hypot``
    distance to the first point farther than ``cap``, or None when all
    are within it.  The reported distance is the first, not the
    smallest, one above the cap.
    """
    hypot = math.hypot
    for j in indices:
        d = hypot(x - xs[j], y - ys[j])
        if d > cap:
            return d
    return None


def lens_lower_bound(r: float, budget: float) -> float:
    """Conservative floor on the query distance of any lens member.

    For the lens ``C(q, r) ∩ C(owner, budget)`` with the owner at stored
    query distance ``r``: by the triangle inequality any true lens
    member satisfies ``d(o, q) >= d(owner, q) - d(o, owner) >= r -
    budget``.  The bound is computed on *stored* (correctly rounded)
    distances with the module's relative guard margins, so a point whose
    stored query distance falls below it is guaranteed to fail the exact
    ``hypot(o, owner) <= budget`` test — skipping it can never change
    membership.  Clamped to 0.0 (no pruning) when the margin-widened
    difference is not positive.
    """
    lo = (r * _GUARD_LO - budget * _GUARD_HI) / _GUARD_HI
    return lo if lo > 0.0 else 0.0


def lens_scan(
    carriers: Sequence[Sequence[int]],
    want: int,
    start: int,
    end: int,
    cx: float,
    cy: float,
    xs: Sequence[float],
    ys: Sequence[float],
    cap: float,
) -> Optional[Tuple[List[int], array]]:
    """Fail-fast masked disk selection that also returns exact distances.

    ``carriers[b]`` lists, ascending, the indices of the packed points
    carrying bit ``1 << b``; every bit of ``want`` has such a list.
    The wanted bits are scanned rarest first (fewest carriers in
    ``[start, end)``), each testing its carriers against the closed disk
    ``hypot((cx, cy) - p_i) <= cap``, and the scan returns None as soon
    as one wanted bit has no carrier inside the disk.  Otherwise it
    returns ``(indices, distances)``: every index in ``[start, end)``
    that carries a wanted bit and lies in the disk, ascending, with its
    correctly rounded ``math.hypot`` center distance — the value a later
    scalar ``distance_to`` call would produce, so callers (the owner's
    cover search, :mod:`repro.algorithms.cover`) can keep it instead of
    recomputing.

    Each point is decided once, however many wanted bits it carries.
    Membership matches ``center.distance_to(p) <= cap`` exactly: the
    guarded squared test only skips the ``hypot`` where rejection is
    already certain (a squared distance that overflows to ``inf`` is
    such a rejection whenever the band is finite); accepted points
    always pay the one ``hypot`` their stored distance needs.
    """
    ranked = []
    for b in range(len(carriers)):
        if want >> b & 1:
            lst = carriers[b]
            lo = bisect_left(lst, start)
            hi = bisect_left(lst, end, lo)
            if lo >= hi:
                return None
            ranked.append((hi - lo, b, lo, hi))
    ranked.sort()
    _, hi2, fast = cap_bands(cap)
    hypot = math.hypot
    # Index -> exact distance, or -1.0 once rejected.
    decided: Dict[int, float] = {}
    hits: List[int] = []
    for _, b, lo, hi in ranked:
        lst = carriers[b]
        inside = False
        for k in range(lo, hi):
            i = lst[k]
            d = decided.get(i)
            if d is None:
                dx = cx - xs[i]
                dy = cy - ys[i]
                if fast and dx * dx + dy * dy > hi2:
                    d = -1.0
                else:
                    d = hypot(dx, dy)
                    if d <= cap:
                        hits.append(i)
                    else:
                        d = -1.0
                decided[i] = d
            if d >= 0.0:
                inside = True
        if not inside:
            return None
    hits.sort()
    return hits, array("d", [decided[i] for i in hits])

