"""Constrained keyword-cover search used by the exact algorithms.

The owner-driven exact algorithms reduce each owner candidate to the
question: *is there a set of objects, drawn from a pruned region, that
covers the remaining keywords while keeping every pairwise distance within
a cap?*  :func:`find_constrained_cover` answers it with a depth-first
search over a :class:`~repro.kernels.oracle.DistanceOracle` built around
the owner that

- branches on the rarest uncovered keyword (narrowest search tree),
- enforces the pairwise cap incrementally (a candidate violating the cap
  against the owner or any already-chosen object is pruned immediately),
- deduplicates co-located candidates with the same relevant keyword
  trace (distinct locations interact differently with the cap, so only
  exact duplicates are dropped, which preserves completeness).

Because the cost of a set is fixed by its distance owners, the caller
needs only *some* valid completion, never the best one — the search stops
at the first success.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.index.signatures import mask_of, shared_keywords
from repro.kernels.oracle import DistanceOracle
from repro.model.objects import SpatialObject

__all__ = ["find_constrained_cover", "iter_covers", "CoverBudgetExceeded"]


class CoverBudgetExceeded(Exception):
    """Raised when a cover search exceeds its node budget (safety valve)."""


def find_constrained_cover(
    uncovered: FrozenSet[int],
    oracle: DistanceOracle,
    pair_cap: Optional[float],
    node_budget: int = 2_000_000,
) -> Optional[List[SpatialObject]]:
    """A set of the oracle's candidates covering ``uncovered`` under the cap.

    The oracle's anchor is the object already committed to the set (the
    distance owner); every chosen candidate must be within ``pair_cap``
    of the anchor and of every other chosen candidate.  ``pair_cap`` of
    None disables the distance constraint (pure set cover).

    Every distance the search needs is a memoized oracle lookup shared
    across repeated calls — the bisection probes of the owner-driven
    exact search — and the per-keyword tables are built once per
    ``uncovered`` set.  The cap-independent tables come from the
    oracle's cache; the anchor filter collapses to one vector compare
    over the memoized owner-distance row.  Deduplication commutes with
    the cap filter because the dedup key includes the exact location —
    co-located duplicates share their anchor distance, so whichever
    representative survives, its cap verdict is the class's verdict.

    Returns the chosen candidates (without the anchor) or None when no
    valid cover exists.  Raises :class:`CoverBudgetExceeded` if the
    search visits more than ``node_budget`` nodes — callers treat this as
    "give up on this owner", which for the exact algorithms is prevented
    by their pruning making regions small.
    """
    if not uncovered:
        return []
    tables = oracle.cover_tables(frozenset(uncovered))
    if tables is None:
        return None
    if pair_cap is None:
        by_keyword = {t: list(lst) for t, lst in tables.items()}
    else:
        anchor_d = oracle.anchor_d
        by_keyword = {}
        for t, lst in tables.items():
            kept = [i for i in lst if anchor_d[i] <= pair_cap]
            if not kept:
                return None
            by_keyword[t] = kept
    budget = [node_budget]
    chosen: List[int] = []
    # The tables are fixed for the whole probe, so the branch order is
    # too: sorted once here, each node takes its first uncovered keyword.
    order = [(1 << t, t) for _, t in sorted((len(lst), t) for t, lst in by_keyword.items())]
    if _search_indexed_masked(
        mask_of(frozenset(uncovered)),
        by_keyword,
        chosen,
        set(),
        pair_cap,
        budget,
        oracle,
        oracle.keyword_masks(),
        order,
    ):
        return [oracle.objects[i] for i in chosen]
    return None


def _search_indexed_masked(
    uncovered_mask: int,
    by_keyword: Dict[int, List[int]],
    chosen: List[int],
    chosen_oids: Set[int],
    pair_cap: Optional[float],
    budget: List[int],
    oracle: DistanceOracle,
    masks: Sequence[int],
    order: Sequence[Tuple[int, int]],
) -> bool:
    """Depth-first cover search over candidate *indices*.

    The uncovered set is a bitmask, and ``masks`` are the oracle's
    per-candidate keyword masks, indexed like ``oracle.objects``.
    ``order`` lists ``(bit, keyword)`` for every table keyword by
    ascending ``(len(by_keyword[t]), t)``, so its first uncovered entry
    is the rarest uncovered keyword.  Every candidate must be within
    ``pair_cap`` of every candidate chosen so far; each distance is a
    memoized oracle lookup, computed at most once per owner.  Each
    visited node costs one unit of ``budget``.
    """
    if not uncovered_mask:
        return True
    budget[0] -= 1
    if budget[0] < 0:
        raise CoverBudgetExceeded()
    branch_keyword = next(t for bit, t in order if uncovered_mask & bit)
    objects = oracle.objects
    for idx in by_keyword[branch_keyword]:
        obj = objects[idx]
        if obj.oid in chosen_oids:
            continue
        if pair_cap is not None and oracle.any_pair_beyond(idx, chosen, pair_cap):
            continue
        chosen.append(idx)
        chosen_oids.add(obj.oid)
        remaining = uncovered_mask & ~masks[idx]
        if _search_indexed_masked(
            remaining, by_keyword, chosen, chosen_oids, pair_cap, budget, oracle, masks, order
        ):
            return True
        chosen.pop()
        chosen_oids.discard(obj.oid)
    return False


def iter_covers(
    keywords: FrozenSet[int],
    candidates: Sequence[SpatialObject],
):
    """Yield every irredundant cover of ``keywords`` from ``candidates``.

    Each yielded list covers ``keywords``; every object in it covers at
    least one keyword not covered by the objects before it, so each cover
    has at most ``|keywords|`` members and no cover is yielded twice.
    Used by the brute-force oracle, so clarity beats speed here.
    """
    by_keyword: Dict[int, List[SpatialObject]] = {t: [] for t in keywords}
    for obj in candidates:
        for t in shared_keywords(obj.keywords, keywords):
            by_keyword[t].append(obj)
    if any(not lst for lst in by_keyword.values()):
        return

    def rec(uncovered: FrozenSet[int], chosen: List[SpatialObject]):
        if not uncovered:
            yield list(chosen)
            return
        branch = min(uncovered, key=lambda t: (len(by_keyword[t]), t))
        for obj in by_keyword[branch]:
            if any(o.oid == obj.oid for o in chosen):
                continue
            chosen.append(obj)
            yield from rec(uncovered - obj.keywords, chosen)
            chosen.pop()

    # Distinct branch orders can reach the same object set; deduplicate.
    seen: set[Tuple[int, ...]] = set()
    for cover in rec(frozenset(keywords), []):
        key = tuple(sorted(o.oid for o in cover))
        if key not in seen:
            seen.add(key)
            yield cover
