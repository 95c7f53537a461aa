"""Constrained keyword-cover search used by the exact algorithms.

The owner-driven exact algorithms reduce each owner candidate to the
question: *is there a set of objects, drawn from the owner's lens, that
covers the remaining keywords while keeping every pairwise distance within
a cap?*  :func:`find_constrained_cover` answers it with a depth-first
search that reads the query's owner stream
(:class:`~repro.algorithms.owner_appro.OwnerStream`) directly: candidates
are stream indices, keyword traces are stream bit masks, and each pair
distance is computed from the stream's packed coordinates when the
search asks for it.  The search

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
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import BudgetExceededError
from repro.index.signatures import bits_of, shared_keywords
from repro.kernels import first_beyond
from repro.model.objects import SpatialObject

__all__ = ["CoverTables", "cover_tables", "find_constrained_cover", "iter_covers"]

#: One owner's cover tables: ``(bit, stream indices, owner distances)``
#: per wanted bit, ascending by bit.
CoverTables = List[Tuple[int, List[int], List[float]]]


def cover_tables(
    want: int,
    hits: Sequence[int],
    owner_d: Sequence[float],
    xs: Sequence[float],
    ys: Sequence[float],
    masks: Sequence[int],
    oids: Sequence[int],
) -> Optional[CoverTables]:
    """The per-bit candidate tables one owner's cover search branches over.

    ``hits`` are stream indices, in stream order, with their exact owner
    distances ``owner_d``; ``xs``, ``ys``, ``masks`` and ``oids`` are
    the stream's arrays.  A hit's trace is ``masks[i] & want``.
    Co-located hits with the same trace are deduplicated on
    ``(x, y, trace)``, keeping the first in stream order — the lowest oid,
    since the stream lists equal query distances by oid.  Each bit's
    table is sorted richest trace first, oid breaking ties.  The tables
    are cap-independent: co-located duplicates share their owner
    distance, so deduplicating commutes with every probe's owner filter,
    and one owner builds them once for all its probes.  Returns None
    when some bit of ``want`` has no carrier at all.
    """
    # Bit -> (sort key..., index, owner distance) entries; ``bits_of``
    # runs ascending, so the tables come out by bit.
    rows: Dict[int, List[Tuple[int, int, int, float]]] = {
        1 << b: [] for b in bits_of(want)
    }
    seen = set()
    for i, d in zip(hits, owner_d):
        trace = masks[i] & want
        if not trace:
            continue
        key = (xs[i], ys[i], trace)
        if key in seen:
            continue
        seen.add(key)
        entry = (-trace.bit_count(), oids[i], i, d)
        if trace & (trace - 1):
            for b in bits_of(trace):
                rows[1 << b].append(entry)
        else:
            # Most traces carry a single bit.
            rows[trace].append(entry)
    tables: CoverTables = []
    for bit, entries in rows.items():
        if not entries:
            return None
        entries.sort()
        tables.append((bit, [e[2] for e in entries], [e[3] for e in entries]))
    return tables


def find_constrained_cover(
    tables: CoverTables,
    pair_cap: float,
    xs: Sequence[float],
    ys: Sequence[float],
    masks: Sequence[int],
    node_budget: int = 2_000_000,
    counters: Optional[Dict[str, int]] = None,
) -> Tuple[Optional[List[int]], float]:
    """Stream indices from ``tables`` covering every table's bit under the cap.

    ``tables`` come from :func:`cover_tables` for one owner; the owner is
    the object already committed to the set.  Every chosen candidate
    must be within ``pair_cap`` of the owner (its table distance) and of
    every other chosen candidate (``inf`` makes it a pure set cover).
    Each probe filters the tables by the owner cap and sorts the
    branch order by ``(filtered size, bit)`` once.  The pair check
    (:func:`~repro.kernels.flat.first_beyond`) computes each distance to
    the chosen candidates in order and stops at the first one above the
    cap.

    Returns ``(cover, beyond)``: the chosen stream indices (without the
    owner), or None when no valid cover exists, and the smallest owner
    or pair distance the search rejected for exceeding the cap (``inf``
    when it rejected none).  At any cap in ``[pair_cap, beyond)`` every
    comparison the search made comes out the same, so a failed search
    fails there too: no cover has a diameter below ``beyond``.  Raises
    :class:`~repro.errors.BudgetExceededError`, carrying ``counters``, if
    the search visits more than ``node_budget`` nodes; the exact
    algorithms' pruning keeps their regions small enough that it does
    not.
    """
    want = 0
    kept: Dict[int, List[int]] = {}
    sizes: List[Tuple[int, int]] = []
    for bit, ids, ds in tables:
        lst = [i for i, d in zip(ids, ds) if d <= pair_cap]
        if not lst:
            return None, min(ds)
        kept[bit] = lst
        sizes.append((len(lst), bit))
        want |= bit
    # The filtered tables are fixed for the whole probe, so the branch
    # order is too: sorted once here, each node takes its first
    # uncovered bit.
    order = [bit for _, bit in sorted(sizes)]
    chosen: List[int] = []
    nodes_left = node_budget
    beyond = math.inf

    def search(uncovered: int) -> bool:
        """Depth-first search over stream indices and bit masks.

        Every candidate must be within ``pair_cap`` of every candidate
        chosen so far; the smallest distance rejected is kept in
        ``beyond``.  Each visited node costs one unit of the node budget.
        """
        nonlocal nodes_left, beyond
        if not uncovered:
            return True
        nodes_left -= 1
        if nodes_left < 0:
            raise BudgetExceededError(
                "cover_nodes", node_budget, node_budget + 1, counters=counters
            )
        branch = next(bit for bit in order if uncovered & bit)
        # A chosen candidate clears every bit it carries, so it is never
        # in the table of a bit still uncovered below it.
        for i in kept[branch]:
            d = first_beyond(xs[i], ys[i], chosen, xs, ys, pair_cap)
            if d is not None:
                if d < beyond:
                    beyond = d
                continue
            chosen.append(i)
            if search(uncovered & ~masks[i]):
                return True
            chosen.pop()
        return False

    if search(want):
        return chosen, beyond
    for _, _, ds in tables:
        for d in ds:
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
