"""Bound-driven scatter-gather over a :class:`ShardedIndex`.

:class:`ScatterGather` wraps any registry solver.  Per query it

1. reads ``N(q)`` from the sharded facade's stream and scores it — the
   incumbent cost bound ``c`` (the same seed every owner-driven solver
   starts from);
2. optionally tightens ``c`` with a cheap
   :class:`~repro.algorithms.owner_appro.OwnerRingApproximation` pass on
   the single most promising shard whose keyword union covers the whole
   query (exact solvers only — an approximation is an upper bound on the
   optimum, so it can only shrink the search, never cut the answer);
3. prunes shards the bound proves irrelevant, and hands the survivors —
   as one restricted facade — to the inner solver.

Pruning rules and why they preserve bit-identity with the single-index
baseline (the full derivation is docs/SHARDING.md):

- **Mask rule** (always on): a shard whose keyword union misses every
  query keyword contains no relevant object.  Solvers only ever retrieve
  *relevant* objects from the spatial index, so dropping such shards is
  invisible to them.
- **Bound rule** (distance-eligible solvers): drop a shard when
  ``cost.combine(mbr.min_distance(q), 0) > c``.  Every object ``o`` in
  it then has ``combine(d(o,q), 0) > c ≥ optimum ≥ combine(d_f, 0)``
  (``combine`` is monotone in its first argument), so ``o`` can never be
  tried as an owner before the incumbent-cost break fires, and never
  falls inside a completion disk ``C(q, r)`` with ``combine(r, 0) < c``
  — the only two ways the owner-pattern solvers touch candidates.  The
  comparison carries a small relative slack so borderline shards are
  scanned rather than pruned: harmless for identity, immune to float
  noise in the bound arithmetic.

Solvers that reach *outside* the incumbent disk are not
distance-eligible and get the mask rule only: ``cao-appro1`` /
``cao-appro2`` complete from owner-anchored single-keyword streams that
no incumbent bounds, and any run under a ``MIN``-aggregate cost has no
monotone owner bound at all.  Solvers that draw candidates from the
inverted index (the sum family, top-k, brute force, branch-and-bound)
are unaffected by index restriction either way.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.algorithms.base import CoSKQAlgorithm, SearchContext
from repro.algorithms.registry import make_algorithm
from repro.algorithms.seeding import compute_seed
from repro.cost.base import CostFunction, QueryAggregate
from repro.errors import InvalidParameterError
from repro.index.signatures import covers, mask_of, overlaps
from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.shard.index import Shard, ShardedIndex
from repro.utils.floatcmp import prune_cutoff

__all__ = ["MASK_ONLY_SOLVERS", "ScatterGather"]

#: Solvers whose candidate retrieval is not bounded by the incumbent
#: disk (completions from owner-anchored single-keyword streams), so
#: only the mask rule may restrict their universe.
MASK_ONLY_SOLVERS = frozenset({"cao-appro1", "cao-appro2"})


class ScatterGather(CoSKQAlgorithm):  # repro: noqa(R1) — wrapper, not a registry solver; exact/name mirror the wrapped solver's in __init__
    """Run a registry solver over the surviving shards of a sharded index."""

    def __init__(
        self,
        context: SearchContext,
        algorithm: str,
        cost: Optional[CostFunction] = None,
    ):
        if not isinstance(context.index, ShardedIndex):
            raise InvalidParameterError(
                "ScatterGather needs a SearchContext over a ShardedIndex; "
                "got %r" % type(context.index).__name__
            )
        # Instantiated once to resolve the effective cost and exactness
        # (registry defaults included); per-query solves use a fresh
        # instance over the restricted facade.
        probe = make_algorithm(algorithm, context, cost)
        super().__init__(context, probe.cost)
        self.algorithm = algorithm
        self.exact = probe.exact
        self.ratio = probe.ratio
        self.ratio_cost = probe.ratio_cost
        self.name = probe.name

    # -- eligibility ---------------------------------------------------------

    @property
    def distance_eligible(self) -> bool:
        """Whether the bound rule may prune shards for this solver/cost."""
        return (
            self.cost.query_aggregate is not QueryAggregate.MIN
            and self.algorithm not in MASK_ONLY_SOLVERS
        )

    # -- solve ---------------------------------------------------------------

    def solve(
        self, query: Query, initial_upper_bound: Optional[float] = None
    ) -> CoSKQResult:
        self._reset_counters()
        index: ShardedIndex = self.context.index  # type: ignore[assignment]
        shards = index.shards
        self._bump("shards_total", len(shards))

        # The incumbent: N(q) read from the facade's merged stream
        # (identical to the single-tree N(q)), scored by the target
        # cost.  Raises InfeasibleQueryError exactly where the baseline
        # solver would.
        nn = self.context.nn_set(query)
        incumbent = self._evaluate(query, list(nn.objects))

        q_mask = mask_of(query.keywords)
        relevant = [
            shard for shard in shards if overlaps(q_mask, shard.summary.kw_mask)
        ]
        self._bump("shards_relevant", len(relevant))
        self._bump("shards_pruned_mask", len(shards) - len(relevant))

        survivors = relevant
        if self.distance_eligible:
            bound = incumbent
            if self.exact:
                bound = min(bound, self._seed_bound(query, q_mask, relevant, incumbent))
            if initial_upper_bound is not None:
                # An externally supplied feasible cost tightens the bound
                # rule too; prune_cutoff below re-applies the slack.
                bound = min(bound, initial_upper_bound)
            cutoff = prune_cutoff(bound)
            survivors = [
                shard
                for shard in relevant
                if self.cost.combine(
                    shard.summary.mbr.min_distance(query.location), 0.0
                )
                <= cutoff
            ]
            self._bump("shards_pruned_bound", len(relevant) - len(survivors))
        self._bump("shards_scanned", len(survivors))
        index.stats.bump("queries")  # repro: noqa(R10) — RLock-guarded observability counter, never read by search
        index.stats.bump("shards_scanned", len(survivors))  # repro: noqa(R10) — RLock-guarded observability counter
        index.stats.bump("shards_pruned", len(shards) - len(survivors))  # repro: noqa(R10) — RLock-guarded observability counter

        restricted = index.restricted([shard.shard_id for shard in survivors])
        inner = make_algorithm(
            self.algorithm, self.context.with_index(restricted), self.cost
        )
        inner.budget = self.budget
        # Only the *external* bound is forwarded: the engine's own seed
        # pass keeps tightening shard pruning alone, preserving the
        # engine's object-level identity with the single-index baseline.
        if initial_upper_bound is None:
            result = inner.solve(query)
        else:
            result = inner.solve(query, initial_upper_bound=initial_upper_bound)
        merged = dict(result.counters)
        for counter, amount in self.counters.items():
            merged[counter] = merged.get(counter, 0) + amount
        return CoSKQResult.of(
            result.objects, result.cost, result.algorithm, counters=merged
        )

    def _seed_bound(
        self,
        query: Query,
        q_mask: int,
        relevant: List[Shard],
        incumbent: float,
    ) -> float:
        """Appro pass on the most promising self-sufficient shard.

        Only shards whose keyword union covers the *whole* query can run
        the approximation alone; among those, the one whose MBR is
        closest to the query is the likeliest to hold a cheap feasible
        set.  The seeder itself comes from the shared seeding API
        (:func:`repro.algorithms.seeding.compute_seed`), so the
        structure→seeder dispatch lives in exactly one place.  Returns
        ``incumbent`` unchanged when no shard qualifies or no seeder
        exists for this cost.
        """
        covering = [
            shard for shard in relevant if covers(q_mask, shard.summary.kw_mask)
        ]
        if not covering:
            return incumbent
        target = min(
            covering,
            key=lambda shard: (
                shard.summary.mbr.min_distance(query.location),
                shard.shard_id,
            ),
        )
        index: ShardedIndex = self.context.index  # type: ignore[assignment]
        seed = compute_seed(
            self.context.with_index(index.restricted([target.shard_id])),
            self.cost,
            query,
            budget=self.budget,
        )
        if seed is None:
            return incumbent
        self._bump("seed_runs")
        return min(incumbent, seed.cost)
