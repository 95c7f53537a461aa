"""The named CoSKQ cost functions.

The two costs of the SIGMOD 2013 paper:

- :class:`MaxSumCost` — ``max_{o∈S} d(o,q) + max_{o1,o2∈S} d(o1,o2)``.
  Cao et al. (SIGMOD 2011) introduced it as the α-weighted combination
  with α = 0.5; the unweighted form used here ranks sets identically
  (it is the α = 0.5 form scaled by 2).
- :class:`DiaCost` — ``max{max_{o∈S} d(o,q), max_{o1,o2∈S} d(o1,o2)}``,
  the diameter of ``S ∪ {q}``; introduced by the paper.

The remaining costs come from the surrounding literature (Cao et al. 2011
/ TODS 2015 and the TKDE 2018 generalization) and are provided as
extensions: Sum, SumMax, MinMax, MinMax2, Max and Min.
"""

from __future__ import annotations

from repro.cost.base import Combiner, CostFunction, QueryAggregate
from repro.errors import InvalidParameterError
from repro.utils.floatcmp import float_eq

__all__ = [
    "MaxSumCost",
    "DiaCost",
    "SumCost",
    "SumMaxCost",
    "MinMaxCost",
    "MinMax2Cost",
    "MaxCost",
    "MinCost",
    "cost_by_name",
    "ALL_COSTS",
]


class _AlphaWeighted(CostFunction):
    """Shared base for the α-weighted costs: ``α·D_q`` against ``(1−α)·D_p``.

    The paper fixes α = 0.5 and drops the common factor, which preserves
    the ranking of candidate sets; the weighted form keeps other alphas
    expressible.  An α within float tolerance of 1 drops the pairwise
    component and leaves the query component unweighted.
    """

    def __init__(self, alpha: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise InvalidParameterError("alpha must be in (0, 1], got %r" % (alpha,))
        self.alpha = alpha
        if float_eq(alpha, 1.0):
            self.pairwise_weight = None
        else:
            self.query_weight = alpha
            self.pairwise_weight = 1.0 - alpha
        super().__init__()


class MaxSumCost(_AlphaWeighted):
    """The paper's primary cost: farthest query distance plus diameter.

    With the default ``alpha = 0.5`` this ranks sets exactly like the
    unweighted ``max d(o,q) + diam`` form used in the paper's exposition.
    """

    name = "maxsum"
    query_aggregate = QueryAggregate.MAX
    combiner = Combiner.ADD


class DiaCost(CostFunction):
    """The paper's new cost: the diameter of ``S ∪ {q}``."""

    name = "dia"
    query_aggregate = QueryAggregate.MAX
    combiner = Combiner.MAX


class SumCost(CostFunction):
    """Sum of query distances (Cao et al.); ignores pairwise distances."""

    name = "sum"
    query_aggregate = QueryAggregate.SUM
    combiner = Combiner.ADD
    pairwise_weight = None


class SumMaxCost(_AlphaWeighted):
    """α·(sum of query distances) + (1−α)·diameter (Cao et al. TODS 2015)."""

    name = "summax"
    query_aggregate = QueryAggregate.SUM
    combiner = Combiner.ADD


class MinMaxCost(_AlphaWeighted):
    """α·(nearest query distance) + (1−α)·diameter (Cao et al. TODS 2015)."""

    name = "minmax"
    query_aggregate = QueryAggregate.MIN
    combiner = Combiner.ADD


class MinMax2Cost(CostFunction):
    """max{nearest query distance, diameter} (TKDE 2018 extension)."""

    name = "minmax2"
    query_aggregate = QueryAggregate.MIN
    combiner = Combiner.MAX


class MaxCost(CostFunction):
    """Farthest query distance only; ``N(q)`` is optimal for it."""

    name = "max"
    query_aggregate = QueryAggregate.MAX
    combiner = Combiner.ADD
    pairwise_weight = None


class MinCost(CostFunction):
    """Nearest query distance only.

    Of no practical interest (the whole dataset is a trivial minimizer);
    kept because the unified cost function can instantiate it and the
    tests exercise that mapping.
    """

    name = "min"
    query_aggregate = QueryAggregate.MIN
    combiner = Combiner.ADD
    pairwise_weight = None


#: Every named cost, mapped to its zero-argument constructor.
ALL_COSTS = {
    "maxsum": MaxSumCost,
    "dia": DiaCost,
    "sum": SumCost,
    "summax": SumMaxCost,
    "minmax": MinMaxCost,
    "minmax2": MinMax2Cost,
    "max": MaxCost,
    "min": MinCost,
}


def cost_by_name(name: str) -> CostFunction:
    """Instantiate a named cost function with its default parameters."""
    try:
        factory = ALL_COSTS[name]
    except KeyError:
        raise InvalidParameterError(
            "unknown cost %r; known: %s" % (name, sorted(ALL_COSTS))
        ) from None
    return factory()
