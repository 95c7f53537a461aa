"""Dia-Exact: the paper's exact algorithm for the Dia cost.

The distance owner-driven exact engine configured with :class:`DiaCost`.
The max-combiner gives the engine its fast path: the indifferent cap is
``max(r, lb)`` exactly, so once a feasible completion with diameter at
most that cap exists, the owner's cost is settled and no diameter search
is needed (every diameter below ``r`` is cost-indifferent under
``max(r, d12)``).  Otherwise the engine's search closes on the optimal
``d12``, a realized distance, exactly.
"""

from __future__ import annotations

from repro.algorithms.base import SearchContext
from repro.algorithms.owner_exact import OwnerDrivenExact
from repro.cost.functions import DiaCost

__all__ = ["DiaExact"]


class DiaExact(OwnerDrivenExact):
    """Exact CoSKQ for the Dia cost (distance owner-driven)."""

    name = "dia-exact"

    def __init__(self, context: SearchContext, cost: DiaCost | None = None, **kwargs):
        super().__init__(context, cost if cost is not None else DiaCost(), **kwargs)
