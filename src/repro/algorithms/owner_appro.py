"""The distance owner-driven approximation scheme.

Shared engine for the paper's two approximate algorithms (MaxSum-Appro
and Dia-Appro).  The scheme:

1. Initialize the incumbent with ``N(q)``.
2. Iterate *query distance owner* candidates ``o`` — relevant objects in
   ascending ``d(o, q)`` — skipping those below ``d_f`` (no feasible set
   has its farthest member closer than ``d_f``) and stopping as soon as
   the owner distance alone already costs at least the incumbent.
3. For each owner, build one feasible set inside the disk ``C(q, d(o,q))``
   greedily: repeatedly add the candidate *nearest to the owner* that
   covers an uncovered keyword.  Keeping the completion close to the
   owner is what bounds the set diameter and yields the paper's 1.375
   (MaxSum) and sqrt(3) (Dia) approximation ratios.
4. Return the cheapest set seen.

Feasibility inside the disk is guaranteed: every ``NN(q, t)`` lies within
``d_f ≤ d(o, q)`` of the query.

Owners come from one ``nearest_relevant_iter(q, q.ψ)`` stream, and
both ``N(q)`` (its first carrier of each keyword) and ``C(q, d(o, q))``
(the part read so far) are prefixes of it, so :class:`OwnerStream`
records the stream once per query and ``N(q)`` and every owner are
served from it — one index walk per query (shared with the exact search,
:mod:`repro.algorithms.owner_exact`, and Unified-A).
"""

from __future__ import annotations

import bisect
from array import array
from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple

from repro.algorithms.base import CoSKQAlgorithm, NNSet, SearchContext
from repro.index.signatures import mask_of
from repro.kernels import lens_lower_bound, lens_scan, max_distance_from
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["OwnerRingApproximation", "OwnerStream", "greedy_completion_near"]

class OwnerStream:
    """One query's owner stream, recorded as the owner loop reads it.

    Iterating yields ``nearest_relevant_iter(q, q.ψ)`` entries in stream
    order, pulling from the index only on demand; each iteration replays
    the recorded entries first, so ``N(q)`` is read from the stream
    (:meth:`NNSet.from_stream`) before the owner loop walks it.  Each
    pulled entry is kept with its exact stream distance, packed x/y and
    keyword mask, and its index joins the carrier list of every query
    keyword it carries, so an owner at distance ``r`` finds ``C(q, r)``
    — every completion's home — as the first :meth:`disk_end` entries
    instead of walking the index again.  Masks have one bit per query keyword (:meth:`mask_of`),
    so they stay small ints however large the vocabulary.
    ``checkpoint`` is the solver's deadline probe, called once per entry
    read.
    """

    def __init__(
        self, context: SearchContext, query: Query, checkpoint: Callable[[], None]
    ):
        # An infeasible query raises before the index is touched.
        context.check_feasible(query)
        self._entries = context.index.nearest_relevant_iter(
            query.location, query.keywords
        )
        self._checkpoint = checkpoint
        # (bit, keyword, carriers of the keyword) per query keyword.
        self._slots = tuple((1 << i, t, []) for i, t in enumerate(sorted(query.keywords)))
        self.objects: List[SpatialObject] = []
        self.dists: List[float] = []
        self.xs = array("d")
        self.ys = array("d")
        self.masks: List[int] = []
        #: ``carriers[b]`` lists, ascending, the entries carrying bit ``1 << b``.
        self.carriers: Tuple[List[int], ...] = tuple(c for _, _, c in self._slots)

    def mask_of(self, keywords: FrozenSet[int]) -> int:
        """The query keywords among ``keywords``, as a stream mask."""
        mask = 0
        for bit, t, _ in self._slots:
            if t in keywords:
                mask |= bit
        return mask

    def _pull(self) -> bool:
        """Record the stream's next entry; False once it is exhausted."""
        entry = next(self._entries, None)
        if entry is None:
            return False
        dist, obj = entry
        i = len(self.dists)
        keywords = obj.keywords
        mask = 0
        for bit, t, carriers in self._slots:
            if t in keywords:
                mask |= bit
                carriers.append(i)
        self.objects.append(obj)
        self.dists.append(dist)
        self.xs.append(obj.location.x)
        self.ys.append(obj.location.y)
        self.masks.append(mask)
        return True

    def __iter__(self) -> Iterator[Tuple[float, SpatialObject]]:
        i = 0
        while i < len(self.dists) or self._pull():
            self._checkpoint()
            yield self.dists[i], self.objects[i]
            i += 1

    def disk_end(self, r: float) -> int:
        """How many entries lie in the closed disk ``C(q, r)``.

        Pulls every entry at distance ``r`` first, so ties with the
        owner (which is itself at ``r``) are inside the disk.
        """
        while (not self.dists or self.dists[-1] <= r) and self._pull():
            self._checkpoint()
        return bisect.bisect_right(self.dists, r)

    def in_disk(self, r: float, want: int) -> List[SpatialObject]:
        """The entries of ``C(q, r)`` carrying a ``want`` bit, in stream order."""
        masks = self.masks
        objects = self.objects
        return [objects[i] for i in range(self.disk_end(r)) if masks[i] & want]

    def lens(
        self, owner: SpatialObject, r: float, budget: float, want: int
    ) -> Optional[Tuple[List[int], array]]:
        """Entries of ``C(q, r) ∩ C(owner, budget)`` carrying a ``want`` bit.

        Returns ``(indices, owner distances)`` in stream order, or None
        as soon as some ``want`` keyword has no carrier in the lens
        (:func:`lens_scan`: rarest keyword first, each entry decided
        once).  The bisect floor (:func:`lens_lower_bound`) only skips
        entries certain to fail the exact owner-disk test.
        """
        end = self.disk_end(r)
        start = bisect.bisect_left(self.dists, lens_lower_bound(r, budget), 0, end)
        loc = owner.location
        return lens_scan(
            self.carriers, want, start, end, loc.x, loc.y, self.xs, self.ys, budget
        )


def greedy_completion_near(
    anchor: SpatialObject,
    uncovered: frozenset[int],
    candidates: List[SpatialObject],
) -> List[SpatialObject] | None:
    """Cover ``uncovered`` greedily with candidates nearest to ``anchor``.

    Repeatedly picks the candidate closest to ``anchor`` (ties by oid)
    that covers at least one still-uncovered keyword.  Returns the
    chosen objects, or None when the candidates cannot cover everything.
    """
    chosen: List[SpatialObject] = []
    # One sort up front; each pass consumes the next useful candidate.
    ordered = sorted(
        candidates,
        key=lambda o: (anchor.location.distance_to(o.location), o.oid),
    )
    taken = [False] * len(ordered)
    # "Covers a still-uncovered keyword" is a nonzero AND and consuming
    # the coverage is ``&= ~covered``.
    remaining_mask = mask_of(uncovered)
    masks = [mask_of(o.keywords) for o in ordered]
    # Bounded: every pass either consumes one candidate or returns, so
    # the loop runs at most len(ordered) iterations.
    while remaining_mask:  # repro: noqa(R11) — bounded by len(ordered)
        progressed = False
        for i, obj in enumerate(ordered):
            if taken[i]:
                continue
            covered_mask = masks[i] & remaining_mask
            if covered_mask:
                taken[i] = True
                chosen.append(obj)
                remaining_mask &= ~covered_mask
                progressed = True
                break
        if not progressed:
            return None
    return chosen


class OwnerRingApproximation(CoSKQAlgorithm):
    """Owner-candidate iteration + nearest-to-owner greedy completion."""

    name = "owner-appro"
    exact = False

    def solve(
        self, query: Query, initial_upper_bound: Optional[float] = None
    ) -> CoSKQResult:
        # ``initial_upper_bound`` is accepted for interface uniformity
        # and ignored: the approximation bound argues about this search's
        # own incumbent, not an external one.
        self._reset_counters()
        stream = OwnerStream(self.context, query, self._checkpoint)
        nn = NNSet.from_stream(query, stream)
        best: List[SpatialObject] = list(nn.objects)
        best_cost = self._evaluate(query, best)
        d_f = nn.d_f
        for dist, owner in stream:
            if dist < d_f:
                # Cannot be the farthest member of any feasible set.
                continue
            if self.cost.combine(dist, 0.0) >= best_cost:
                # Owner distance alone already meets the incumbent; all
                # later owners are farther, so stop.
                break
            self._bump("owners_tried")
            uncovered = query.keywords - owner.keywords
            if not uncovered:
                candidate_set: Optional[List[SpatialObject]] = [owner]
            else:
                candidate_set = self._complete_from_stream(
                    stream, owner, dist, stream.mask_of(uncovered), best_cost
                )
            if candidate_set is None:
                continue
            cost_value = self._evaluate(query, candidate_set)
            if cost_value < best_cost:
                best_cost = cost_value
                best = candidate_set
        return self._result(best, best_cost)

    def _complete_from_stream(
        self,
        stream: OwnerStream,
        owner: SpatialObject,
        owner_dist: float,
        remaining: int,
        cost_bound: float,
    ) -> List[SpatialObject] | None:
        """The greedy completion of ``owner``, aborted once it cannot win.

        Walks the in-budget slice of ``C(q, r)`` in ``greedy_completion_near``
        order: the first entry covering a still-uncovered keyword is the
        greedy pick.  The picks are forced, so once the partial set
        already costs at least ``cost_bound`` the owner cannot win and
        the completion is aborted.  An entry farther than the budget
        from the owner would abort on sight, which is why the slice can
        stop at the budget.
        """
        budget = self.cost.pairwise_budget(owner_dist, cost_bound)
        lens = stream.lens(owner, owner_dist, budget, remaining)
        if lens is None:
            # An uncovered keyword has no carrier within the budget, yet
            # ``r >= d_f`` puts one in C(q, r): the greedy would reach it
            # beyond the budget, and it prices the set out.
            self._bump("completions_aborted")
            return None
        hits, owner_d = lens
        objects = stream.objects
        xs = stream.xs
        ys = stream.ys
        masks = stream.masks
        chosen: List[SpatialObject] = [owner]
        # Flat coordinates of the chosen set: each greedy pick's diameter
        # update is one packed-array kernel call.
        chosen_xs = array("d", (owner.location.x,))
        chosen_ys = array("d", (owner.location.y,))
        diam_so_far = 0.0
        for _, _, i in sorted(zip(owner_d, (objects[i].oid for i in hits), hits)):
            covered = masks[i] & remaining
            if not covered:
                continue
            d = max_distance_from(xs[i], ys[i], chosen_xs, chosen_ys)
            if d > diam_so_far:
                diam_so_far = d
            if self.cost.combine(owner_dist, diam_so_far) >= cost_bound:
                self._bump("completions_aborted")
                return None
            chosen.append(objects[i])
            chosen_xs.append(xs[i])
            chosen_ys.append(ys[i])
            remaining &= ~covered
            if not remaining:
                return chosen
        # Not reached: every wanted keyword has a carrier among the hits.
        return None
