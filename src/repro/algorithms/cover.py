"""Constrained keyword-cover search used by the exact algorithms.

The owner-driven exact algorithms reduce each owner candidate to the
question: *is there a set of objects, drawn from a pruned region, that
covers the remaining keywords while keeping every pairwise distance within
a cap?*  :func:`find_constrained_cover` answers it with a depth-first
search that

- branches on the rarest uncovered keyword (narrowest search tree),
- enforces the pairwise cap incrementally (a candidate violating the cap
  against any already-chosen object is pruned immediately),
- deduplicates candidates that are dominated for this sub-search (same
  relevant keyword trace, and no object between them and every anchor is
  not tracked — domination here is purely trace equality plus the cap
  test, which preserves completeness).

Because the cost of a set is fixed by its distance owners, the caller
needs only *some* valid completion, never the best one — the search stops
at the first success.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.index.signatures import bits_of, mask_of, shared_keywords
from repro.kernels.oracle import DistanceOracle
from repro.model.objects import SpatialObject

__all__ = ["find_constrained_cover", "iter_covers", "CoverBudgetExceeded"]


class CoverBudgetExceeded(Exception):
    """Raised when a cover search exceeds its node budget (safety valve)."""


def find_constrained_cover(
    uncovered: FrozenSet[int],
    candidates: Sequence[SpatialObject],
    anchors: Sequence[SpatialObject],
    pair_cap: Optional[float],
    node_budget: int = 2_000_000,
    oracle: Optional[DistanceOracle] = None,
) -> Optional[List[SpatialObject]]:
    """A set of candidates covering ``uncovered`` under the pairwise cap.

    ``anchors`` are objects already committed to the set (the distance
    owners); every chosen candidate must be within ``pair_cap`` of every
    anchor and of every other chosen candidate.  ``pair_cap`` of None
    disables the distance constraint (pure set cover).

    ``oracle`` may carry a :class:`~repro.kernels.oracle.DistanceOracle`
    built by the caller over exactly ``candidates`` with ``anchors[0]``
    as its anchor (single-anchor searches only).  Then every distance
    the search needs is a memoized array lookup shared across repeated
    calls — the bisection probes of the owner-driven exact search — and
    the per-keyword tables are built once instead of per call.  Results
    and node-budget accounting are identical with or without it.

    Returns the chosen candidates (without the anchors) or None when no
    valid cover exists.  Raises :class:`CoverBudgetExceeded` if the
    search visits more than ``node_budget`` nodes — callers treat this as
    "give up on this owner", which for the exact algorithms is prevented
    by their pruning making regions small.
    """
    if not uncovered:
        return []

    if oracle is not None and len(anchors) == 1:
        return _find_cover_with_oracle(uncovered, pair_cap, node_budget, oracle)

    by_keyword = _candidates_by_keyword(uncovered, candidates, anchors, pair_cap)
    if by_keyword is None:
        return None
    budget = [node_budget]
    chosen: List[SpatialObject] = []
    if _search_masked(mask_of(uncovered), by_keyword, chosen, set(), pair_cap, budget):
        return list(chosen)
    return None


def _find_cover_with_oracle(
    uncovered: FrozenSet[int],
    pair_cap: Optional[float],
    node_budget: int,
    oracle: DistanceOracle,
) -> Optional[List[SpatialObject]]:
    """The oracle-backed cover search (same answers, memoized distances).

    The cap-independent per-keyword tables come from the oracle's cache;
    the anchor filter collapses to one vector compare over the memoized
    owner-distance row.  Deduplication commutes with the cap filter
    because the dedup key includes the exact location — co-located
    duplicates share their anchor distance, so whichever representative
    survives, its cap verdict is the class's verdict.
    """
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


def _candidates_by_keyword(
    uncovered: FrozenSet[int],
    candidates: Sequence[SpatialObject],
    anchors: Sequence[SpatialObject],
    pair_cap: Optional[float],
) -> Optional[Dict[int, List[SpatialObject]]]:
    """Per-keyword candidate lists, pre-filtered against the anchors.

    Returns None when some keyword has no candidate at all (no cover can
    exist).  Candidates are deduplicated by their relevant keyword trace
    *only when co-located*, since distinct locations interact differently
    with the pairwise cap.
    """
    anchor_locations = [a.location for a in anchors]
    by_keyword: Dict[int, List[SpatialObject]] = {t: [] for t in uncovered}
    # The dedup key carries the trace bitmask (a bijection with the trace
    # set) and richness is its popcount.
    u_mask = mask_of(uncovered)
    seen_mask_traces: set[Tuple[float, float, int]] = set()
    for obj in candidates:
        trace_mask = mask_of(obj.keywords) & u_mask
        if not trace_mask:
            continue
        if pair_cap is not None and any(
            obj.location.distance_to(loc) > pair_cap for loc in anchor_locations
        ):
            continue
        key = (obj.location.x, obj.location.y, trace_mask)
        if key in seen_mask_traces:
            continue
        seen_mask_traces.add(key)
        for t in bits_of(trace_mask):
            by_keyword[t].append(obj)
    for t, lst in by_keyword.items():
        if not lst:
            return None
        # Richer candidates first: maximizes coverage per branch.
        lst.sort(key=lambda o: (-(mask_of(o.keywords) & u_mask).bit_count(), o.oid))
    return by_keyword


def _search_masked(
    uncovered_mask: int,
    by_keyword: Dict[int, List[SpatialObject]],
    chosen: List[SpatialObject],
    chosen_oids: Set[int],
    pair_cap: Optional[float],
    budget: List[int],
) -> bool:
    """Depth-first cover search with the uncovered set as a bitmask.

    Branches on the rarest uncovered keyword, minimizing
    ``(len(by_keyword[t]), t)`` (a unique minimum regardless of
    iteration order); every candidate must be within ``pair_cap`` of
    every object chosen so far.  Each visited node costs one unit of
    ``budget``.
    """
    if not uncovered_mask:
        return True
    budget[0] -= 1
    if budget[0] < 0:
        raise CoverBudgetExceeded()
    branch_keyword = min(bits_of(uncovered_mask), key=lambda t: (len(by_keyword[t]), t))
    for obj in by_keyword[branch_keyword]:
        if obj.oid in chosen_oids:
            continue
        if pair_cap is not None and any(
            obj.location.distance_to(o.location) > pair_cap for o in chosen
        ):
            continue
        chosen.append(obj)
        chosen_oids.add(obj.oid)
        remaining = uncovered_mask & ~mask_of(obj.keywords)
        if _search_masked(remaining, by_keyword, chosen, chosen_oids, pair_cap, budget):
            return True
        chosen.pop()
        chosen_oids.discard(obj.oid)
    return False


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
    """:func:`_search_masked` over candidate *indices* with memoized distances.

    ``masks`` are the oracle's per-candidate keyword masks, indexed like
    ``oracle.objects``.  ``order`` lists ``(bit, keyword)`` for every
    table keyword by ascending ``(len(by_keyword[t]), t)``, so its first
    uncovered entry is the rarest uncovered keyword.  Same recursion
    structure, candidate order, cap checks and budget accounting as
    :func:`_search_masked`; only the distance evaluations differ — each
    is computed at most once per owner instead of once per probe.
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
