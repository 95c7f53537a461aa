"""MaxSum-Exact: the paper's exact algorithm for the MaxSum cost.

The distance owner-driven exact engine configured with
:class:`MaxSumCost`.  For this cost the owner decomposition reads
``cost(S) = α·r + (1−α)·d12`` with ``r`` the query distance owner's
distance and ``d12`` the pairwise owners' distance, so minimizing the
achievable diameter per owner is exactly the paper's Step-2/Step-3
search over pairwise distance owners.  The engine's diameter search
snaps both ends of its bracket to realized distances, so it returns the
optimal ``d12`` itself, not an approximation of it; its in-budget
radius is ``(curCost − α·r) / (1−α)``, stepped onto the first float
that reaches ``curCost``.
"""

from __future__ import annotations

from repro.algorithms.base import SearchContext
from repro.algorithms.owner_exact import OwnerDrivenExact
from repro.cost.functions import MaxSumCost

__all__ = ["MaxSumExact"]


class MaxSumExact(OwnerDrivenExact):
    """Exact CoSKQ for the MaxSum cost (distance owner-driven)."""

    name = "maxsum-exact"

    def __init__(self, context: SearchContext, cost: MaxSumCost | None = None, **kwargs):
        super().__init__(context, cost if cost is not None else MaxSumCost(), **kwargs)
