"""CoSKQ cost functions: the paper's MaxSum and Dia, plus extensions."""

from repro.cost.base import (
    Combiner,
    CostFunction,
    QueryAggregate,
    pairwise_max_distance,
    query_distances,
)
from repro.cost.functions import (
    ALL_COSTS,
    DiaCost,
    MaxCost,
    MaxSumCost,
    MinCost,
    MinMax2Cost,
    MinMaxCost,
    SumCost,
    SumMaxCost,
    cost_by_name,
)
from repro.cost.unified import INTERESTING_SETTINGS, UnifiedCost

__all__ = [
    "CostFunction",
    "QueryAggregate",
    "Combiner",
    "pairwise_max_distance",
    "query_distances",
    "MaxSumCost",
    "DiaCost",
    "SumCost",
    "SumMaxCost",
    "MinMaxCost",
    "MinMax2Cost",
    "MaxCost",
    "MinCost",
    "UnifiedCost",
    "cost_by_name",
    "ALL_COSTS",
    "INTERESTING_SETTINGS",
]
