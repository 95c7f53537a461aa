"""The distance owner-driven exact search.

Shared engine for the paper's two exact algorithms (MaxSum-Exact and
Dia-Exact).  The key observation of the paper: the cost of a set ``S`` is
fully determined by its *distance owners* — the farthest-from-query
member (query distance owner, at distance ``r``) and the pair realizing
the maximum pairwise distance (``d12``) — as ``combine(r, d12)``.  So
instead of searching the exponential space of sets, search the space of
owners:

1. Seed the incumbent with ``N(q)`` (optionally with the owner-driven
   *approximate* solution via ``seed_with_appro`` — the paper seeds with
   its approximation; our ablation finds the exact search's own early
   owners tighten ``curCost`` just as fast, so plain ``N(q)`` is the
   default here).
2. Enumerate query-distance-owner candidates ``o`` in ascending
   ``d(o, q)``, restricted to the ring ``d_f ≤ d(o, q)`` and stopping
   once the owner distance alone prices every remaining owner out
   (``combine(d, 0) ≥ curCost``).
3. For a fixed owner, the optimal set is the feasible set inside
   ``C(q, r)`` containing ``o`` with the smallest diameter.  Candidate
   completions live in ``C(q, r) ∩ C(o, budget)`` where ``budget`` is the
   diameter at which the owner's sets stop beating the incumbent — the
   lens-region pruning of the paper.  The minimum achievable diameter ``d12`` is a
   realized owner↔candidate or candidate↔candidate distance, and the
   search finds it by probing diameter caps: a cap is *feasible* iff a
   constrained cover exists (every pairwise distance ≤ cap), and
   feasibility is monotone in the cap.  A successful probe snaps the
   upper end of the bracket to the *realized* diameter of the cover it
   found; a failed probe snaps the lower end to the smallest distance it
   rejected, below which no cap can succeed.  Both ends are realized
   distances, so the bracket closes on ``d12`` itself — the value the
   paper's enumeration of pairwise distance owner pairs walks to.
4. The true cost of every constructed set updates the incumbent.

The search is exact at float precision, with no tolerance: its answer
costs exactly what the brute-force optimum costs.

``N(q)``, the owners and every lens are read from the query's one
index stream (:class:`~repro.algorithms.owner_appro.OwnerStream`).

Constructor switches (`seed_with_appro`, `filter_candidates`,
`ring_pruning`) exist solely for the pruning-ablation benchmark; with
`filter_candidates` off an owner's lens is its whole disk ``C(q, r)``.
"""

from __future__ import annotations

import math
from array import array
from typing import List, Optional, Tuple

from repro.algorithms.base import CoSKQAlgorithm, NNSet, SearchContext
from repro.algorithms.cover import find_constrained_cover
from repro.algorithms.owner_appro import OwnerRingApproximation, OwnerStream
from repro.cost.base import CostFunction, QueryAggregate
from repro.kernels import DistanceOracle
from repro.model.objects import SpatialObject
from repro.model.query import Query

__all__ = ["OwnerDrivenExact"]


class OwnerDrivenExact(CoSKQAlgorithm):
    """Exact CoSKQ search by distance-owner enumeration.

    Requires a cost whose query aggregate is MAX (MaxSum, Dia, Max —
    the costs the owner decomposition applies to).

    ``candidates_scanned`` (a work unit under an execution budget)
    counts the candidates of the owners whose candidates carry every
    uncovered keyword; other owners charge nothing for them.  A cover
    search that exceeds ``cover_node_budget`` nodes raises
    :class:`~repro.errors.BudgetExceededError` rather than return an
    answer it cannot prove optimal.
    """

    name = "owner-exact"
    exact = True

    def __init__(
        self,
        context: SearchContext,
        cost: CostFunction,
        seed_with_appro: bool = False,
        filter_candidates: bool = True,
        ring_pruning: bool = True,
        cover_node_budget: int = 2_000_000,
    ):
        if cost.query_aggregate is not QueryAggregate.MAX:
            raise ValueError(
                "owner-driven exact search needs a MAX query aggregate; "
                "got %s" % cost.query_aggregate
            )
        super().__init__(context, cost)
        self.seed_with_appro = seed_with_appro
        self.filter_candidates = filter_candidates
        self.ring_pruning = ring_pruning
        self.cover_node_budget = cover_node_budget

    # -- main loop -----------------------------------------------------------

    def solve(
        self, query: Query, initial_upper_bound: Optional[float] = None
    ) -> CoSKQResult:
        self._reset_counters()
        stream = OwnerStream(self.context, query, self._checkpoint)
        nn = NNSet.from_stream(query, stream)
        best: List[SpatialObject] = list(nn.objects)
        best_cost = self._evaluate(query, best)
        if self.seed_with_appro:
            appro = OwnerRingApproximation(self.context, self.cost)
            seeded = appro.solve(query)
            self._bump("seed_owners_tried", appro.counters.get("owners_tried", 0))
            if seeded.cost < best_cost:
                best_cost = seeded.cost
                best = list(seeded.objects)
        # The achieved incumbent (returned as-is when nothing beats it)
        # and the pruning bound are tracked separately: the external
        # bound is only ever a cutoff, never a result.
        bound = self._pruning_bound(best_cost, initial_upper_bound)

        d_f = nn.d_f if self.ring_pruning else 0.0
        for dist, owner in stream:
            if dist < d_f:
                continue
            if self.cost.combine(dist, 0.0) >= bound:
                break
            self._bump("owners_tried")
            outcome = self._best_for_owner(query, stream, owner, dist, bound)
            if outcome is not None:
                owner_set, owner_cost = outcome
                if owner_cost < best_cost:
                    best_cost = owner_cost
                    best = owner_set
                    if best_cost < bound:
                        bound = best_cost
        return self._result(best, best_cost)

    # -- per-owner optimization ------------------------------------------------

    def _best_for_owner(
        self,
        query: Query,
        stream: OwnerStream,
        owner: SpatialObject,
        r: float,
        cur_cost: float,
    ) -> Optional[Tuple[List[SpatialObject], float]]:
        """The cheapest feasible set owned by ``owner`` that beats ``cur_cost``."""
        uncovered = query.keywords - owner.keywords
        if not uncovered:
            singleton = [owner]
            return singleton, self._evaluate(query, singleton)

        budget = self.cost.pairwise_budget(r, cur_cost)
        if budget <= 0.0:
            return None

        # Without the lens filter the lens is the whole disk C(q, r).
        lens_budget = budget if self.filter_candidates else math.inf
        state = self._lens_state(stream, owner, r, lens_budget, uncovered, cur_cost)
        if state is None:
            return None
        oracle, lower = state

        if not math.isinf(budget):
            cap_hi = budget
        else:
            cap_hi = oracle.max_anchor_distance() * 2.0
        best_set, best_diam = self._probe(uncovered, owner, cap_hi, oracle)
        if best_set is None:
            return None
        self._bump("covers_found")

        # Fast path: any diameter up to the indifferent cap costs the
        # same as the lower bound — one probe settles the owner.
        cap0 = self.cost.indifferent_cap(r, lower)
        if best_diam > cap0:
            settled, lo = self._probe(uncovered, owner, cap0, oracle)
            if settled is not None:
                return settled, self._evaluate(query, settled)
            # The optimal diameter lies in [lo, best_diam]: every cap
            # below ``lo`` fails and ``best_diam`` is realized.  Probe
            # the midpoint, or ``lo`` once the midpoint rounds onto an
            # end; each probe snaps one end to a realized distance.
            while lo < best_diam:
                self._bump("bisection_probes")
                mid = (lo + best_diam) / 2.0
                if not lo < mid < best_diam:
                    mid = lo
                found, value = self._probe(uncovered, owner, mid, oracle)
                if found is None:
                    lo = value
                else:
                    best_set, best_diam = found, value
        return best_set, self._evaluate(query, best_set)

    def _lens_state(
        self,
        stream: OwnerStream,
        owner: SpatialObject,
        r: float,
        budget: float,
        uncovered: frozenset,
        cur_cost: float,
    ) -> Optional[Tuple[DistanceOracle, float]]:
        """The owner's candidate oracle and diameter lower bound, or None.

        Decided on the query's own stream before anything is built: None
        when the lens misses an uncovered keyword (:meth:`OwnerStream.lens`)
        or the lower bound already prices the owner out of ``cur_cost``.
        A survivor gets a :class:`DistanceOracle` over its oid-ordered
        candidates, built from the coordinates and exact owner distances
        the lens already holds.
        """
        want = stream.mask_of(uncovered)
        lens = stream.lens(owner, r, budget, want)
        if lens is None:
            return None
        hits, owner_d = lens
        self._bump("candidates_scanned", len(hits))
        # max_t min d(carrier of t, owner) is the owner distance at which
        # the hits, taken nearest first, first carry every keyword.
        masks = stream.masks
        covered = 0
        lower = 0.0
        for k in sorted(range(len(hits)), key=owner_d.__getitem__):
            covered |= masks[hits[k]]
            if not want & ~covered:
                lower = owner_d[k]
                break
        if self.cost.combine(r, lower) >= cur_cost:
            return None
        objects = stream.objects
        order = sorted(range(len(hits)), key=lambda k: objects[hits[k]].oid)
        candidates = [objects[hits[k]] for k in order]
        xs = array("d", [stream.xs[hits[k]] for k in order])
        ys = array("d", [stream.ys[hits[k]] for k in order])
        anchor_d = array("d", [owner_d[k] for k in order])
        return DistanceOracle(owner.location, candidates, xs, ys, anchor_d), lower

    def _probe(
        self,
        uncovered: frozenset,
        owner: SpatialObject,
        cap: float,
        oracle: DistanceOracle,
    ) -> Tuple[Optional[List[SpatialObject]], float]:
        """Try covering under a diameter cap.

        Returns ``(set, its realized diameter)`` on success and ``(None,
        the smallest rejected distance)`` on failure — no cap below that
        distance can succeed (:func:`find_constrained_cover`).
        """
        self._bump("cover_probes")
        cover, beyond = find_constrained_cover(
            uncovered, oracle, cap, self.cover_node_budget, self.counters
        )
        if cover is None:
            return None, beyond
        full = [owner] + cover
        return full, oracle.diameter_with_anchor([oracle.index_of(o) for o in cover])
