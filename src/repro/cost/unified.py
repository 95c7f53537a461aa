"""The unified cost function ``cost_unified(S | α, φ1, φ2)``.

This is the extension module of the repository (see DESIGN.md §6): the
follow-up TKDE 2018 literature observes that every published CoSKQ cost is

    cost(S) = { [α · D_q(S|φ1)]^{φ2} + [(1−α) · D_p(S)]^{φ2} }^{1/φ2}

with ``D_q(S|φ1)`` the φ1-aggregate (sum, max, min — formally the
φ1-norm with φ1 ∈ {1, ∞, −∞}) of the query-object distances, ``D_p(S)``
the maximum pairwise distance, and φ2 ∈ {1, ∞} choosing between addition
and maximum.  Table 1 of that paper maps parameter settings to the named
costs; :meth:`UnifiedCost.named_equivalent` reproduces the mapping and the
property tests assert it numerically against
:mod:`repro.cost.functions`.
"""

from __future__ import annotations

from typing import Optional

from repro.cost.base import Combiner, QueryAggregate
from repro.cost.functions import _AlphaWeighted
from repro.utils.floatcmp import float_eq

__all__ = ["UnifiedCost", "INTERESTING_SETTINGS"]


class UnifiedCost(_AlphaWeighted):
    """The ``(α, φ1, φ2)``-parameterized cost family."""

    def __init__(
        self,
        alpha: float = 0.5,
        phi1: QueryAggregate = QueryAggregate.MAX,
        phi2: Combiner = Combiner.ADD,
    ):
        self.query_aggregate = phi1
        self.combiner = phi2
        super().__init__(alpha)
        self.name = "unified(a=%g,phi1=%s,phi2=%s)" % (
            alpha,
            phi1.value,
            phi2.value,
        )

    def named_equivalent(self) -> Optional[str]:
        """The name of the classical cost this setting instantiates.

        Follows Table 1 of the generalization: settings with α = 1 ignore
        the pairwise component entirely (sum / max / min); α ∈ (0, 1)
        yields the two-component costs.  Returns None for settings that
        have no classical name (they are still valid costs).

        The named costs in :mod:`repro.cost.functions` use the same α
        convention, so equivalence here is *numerical equality* for
        matching α, not merely equal ranking.
        """
        if float_eq(self.alpha, 1.0):
            return {
                QueryAggregate.SUM: "sum",
                QueryAggregate.MAX: "max",
                QueryAggregate.MIN: "min",
            }[self.query_aggregate]
        if self.combiner is Combiner.ADD:
            return {
                QueryAggregate.SUM: "summax",
                QueryAggregate.MAX: "maxsum",
                QueryAggregate.MIN: "minmax",
            }[self.query_aggregate]
        # φ2 = max with α = 0.5: max{D_q, D_p} scaled by 0.5 — same
        # ranking as the named max-combined costs; numerically equal to
        # the named cost only up to the 0.5 factor, except where noted.
        if float_eq(self.alpha, 0.5):
            return {
                QueryAggregate.SUM: "summax2",
                QueryAggregate.MAX: "dia",
                QueryAggregate.MIN: "minmax2",
            }[self.query_aggregate]
        return None


#: The seven instantiations the generalization's experiments study
#: (cost_Min is uninteresting, cost_SumMax2 is equivalent to cost_Sum).
INTERESTING_SETTINGS = (
    (0.5, QueryAggregate.MIN, Combiner.ADD),  # minmax
    (0.5, QueryAggregate.MIN, Combiner.MAX),  # minmax2
    (1.0, QueryAggregate.SUM, Combiner.ADD),  # sum
    (0.5, QueryAggregate.SUM, Combiner.ADD),  # summax
    (0.5, QueryAggregate.MAX, Combiner.ADD),  # maxsum
    (0.5, QueryAggregate.MAX, Combiner.MAX),  # dia
    (1.0, QueryAggregate.MAX, Combiner.ADD),  # max
)
