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

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import BudgetExceededError
from repro.index.signatures import mask_of, shared_keywords
from repro.kernels.oracle import DistanceOracle
from repro.model.objects import SpatialObject

__all__ = ["find_constrained_cover", "iter_covers"]


def find_constrained_cover(
    uncovered: FrozenSet[int],
    oracle: DistanceOracle,
    pair_cap: float,
    node_budget: int = 2_000_000,
    counters: Optional[Dict[str, int]] = None,
) -> Tuple[Optional[List[SpatialObject]], float]:
    """A set of the oracle's candidates covering ``uncovered`` under the cap.

    The oracle's anchor is the object already committed to the set (the
    distance owner); every chosen candidate must be within ``pair_cap``
    of the anchor and of every other chosen candidate (``inf`` makes it
    a pure set cover).

    Every distance the search needs is a memoized oracle lookup shared
    across repeated calls — the bisection probes of the owner-driven
    exact search — and the per-keyword tables are built once per
    ``uncovered`` set.  The cap-independent tables come from the
    oracle's cache; the anchor filter collapses to one vector compare
    over the memoized owner-distance row.  Deduplication commutes with
    the cap filter because the dedup key includes the exact location —
    co-located duplicates share their anchor distance, so whichever
    representative survives, its cap verdict is the class's verdict.

    Returns ``(cover, beyond)``: the chosen candidates (without the
    anchor), or None when no valid cover exists, and the smallest
    anchor or pair distance the search rejected for exceeding the cap
    (``inf`` when it rejected none).  At any cap in ``[pair_cap,
    beyond)`` every comparison the search made comes out the same, so a
    failed search fails there too: no cover has a diameter below
    ``beyond``.  Raises :class:`~repro.errors.BudgetExceededError`,
    carrying ``counters``, if the search visits more than
    ``node_budget`` nodes; the exact algorithms' pruning keeps their
    regions small enough that it does not.
    """
    if not uncovered:
        return [], math.inf
    tables = oracle.cover_tables(frozenset(uncovered))
    if tables is None:
        return None, math.inf
    anchor_d = oracle.anchor_d
    by_keyword: Dict[int, List[int]] = {}
    for t, lst in tables.items():
        kept = [i for i in lst if anchor_d[i] <= pair_cap]
        if not kept:
            return None, min(anchor_d[i] for i in lst)
        by_keyword[t] = kept
    # The tables are fixed for the whole probe, so the branch order is
    # too: sorted once here, each node takes its first uncovered keyword.
    order = [(1 << t, t) for _, t in sorted((len(lst), t) for t, lst in by_keyword.items())]
    objects = oracle.objects
    masks = oracle.keyword_masks()
    first_beyond = oracle.first_beyond
    chosen: List[int] = []
    chosen_oids: Set[int] = set()
    nodes_left = node_budget
    beyond = math.inf

    def search(uncovered_mask: int) -> bool:
        """Depth-first search over candidate indices and keyword bitmasks.

        Every candidate must be within ``pair_cap`` of every candidate
        chosen so far; each distance is a memoized oracle lookup,
        computed at most once per owner, and the smallest one rejected
        is kept in ``beyond``.  Each visited node costs one unit of the
        node budget.
        """
        nonlocal nodes_left, beyond
        if not uncovered_mask:
            return True
        nodes_left -= 1
        if nodes_left < 0:
            raise BudgetExceededError(
                "cover_nodes", node_budget, node_budget + 1, counters=counters
            )
        branch_keyword = next(t for bit, t in order if uncovered_mask & bit)
        for idx in by_keyword[branch_keyword]:
            oid = objects[idx].oid
            if oid in chosen_oids:
                continue
            d = first_beyond(idx, chosen, pair_cap)
            if d is not None:
                if d < beyond:
                    beyond = d
                continue
            chosen.append(idx)
            chosen_oids.add(oid)
            if search(uncovered_mask & ~masks[idx]):
                return True
            chosen.pop()
            chosen_oids.discard(oid)
        return False

    if search(mask_of(frozenset(uncovered))):
        return [objects[i] for i in chosen], beyond
    for lst in tables.values():
        for i in lst:
            d = anchor_d[i]
            if pair_cap < d < beyond:
                beyond = d
    return None, beyond


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
