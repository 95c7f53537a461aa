"""CoSKQ — collective spatial keyword queries, distance owner-driven.

A from-scratch reproduction of *"Collective Spatial Keyword Queries: A
Distance Owner-Driven Approach"* (Long, Wong, Wang, Fu — SIGMOD 2013):
the CoSKQ problem over geo-textual objects, the MaxSum and Dia cost
functions, the distance owner-driven exact and approximate algorithms,
the Cao et al. baselines, the IR-tree substrate they all run on, and the
paper's full experiment suite.

Quickstart::

    from repro import (
        hotel_like, SearchContext, Query, MaxSumExact, MaxSumAppro,
    )

    dataset = hotel_like(scale=0.1, seed=1)
    context = SearchContext(dataset)
    query = Query.from_words(500.0, 500.0, ["w0001", "w0002", "w0003"],
                             dataset.vocabulary)
    print(MaxSumExact(context).solve(query))
    print(MaxSumAppro(context).solve(query))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.algorithms import (
    ALGORITHM_NAMES,
    BranchBoundExact,
    BruteForceExact,
    CaoAppro1,
    CaoAppro2,
    CaoExact,
    CoSKQAlgorithm,
    DiaAppro,
    DiaExact,
    MaxSumAppro,
    MaxSumExact,
    NNSetAlgorithm,
    OwnerDrivenExact,
    OwnerRingApproximation,
    SearchContext,
    SumExact,
    SumGreedy,
    TopKCoSKQ,
    UnifiedAppro,
    UnifiedExact,
    make_algorithm,
)
from repro.cost import (
    ALL_COSTS,
    CostFunction,
    DiaCost,
    MaxSumCost,
    SumCost,
    UnifiedCost,
    cost_by_name,
)
from repro.data import (
    QueryWorkload,
    clustered_dataset,
    densify_keywords,
    generate_queries,
    gn_like,
    hotel_like,
    scale_dataset,
    uniform_dataset,
    web_like,
)
from repro.errors import (
    BudgetExceededError,
    CoSKQError,
    DatasetFormatError,
    DeadlineExceededError,
    ExecutionError,
    ExecutionFailedError,
    InfeasibleQueryError,
    InjectedFaultError,
    InvalidParameterError,
    SearchAbortedError,
    UnknownKeywordError,
)
from repro.exec import (
    BatchExecutor,
    ChaosIndex,
    ExecutionPolicy,
    ExecutionProvenance,
    FallbackChain,
    FaultPlan,
    ResilientExecutor,
    chaos_context,
)
from repro.geometry import MBR, Circle, Point
from repro.index import InvertedIndex, IRTree, LinearScanIndex
from repro.model import CoSKQResult, Dataset, Query, SpatialObject, Vocabulary

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "Point",
    "MBR",
    "Circle",
    "SpatialObject",
    "Vocabulary",
    "Dataset",
    "Query",
    "CoSKQResult",
    # indexes
    "IRTree",
    "InvertedIndex",
    "LinearScanIndex",
    # costs
    "CostFunction",
    "MaxSumCost",
    "DiaCost",
    "SumCost",
    "UnifiedCost",
    "cost_by_name",
    "ALL_COSTS",
    # algorithms
    "SearchContext",
    "CoSKQAlgorithm",
    "MaxSumExact",
    "MaxSumAppro",
    "DiaExact",
    "DiaAppro",
    "OwnerDrivenExact",
    "OwnerRingApproximation",
    "CaoExact",
    "CaoAppro1",
    "CaoAppro2",
    "BranchBoundExact",
    "NNSetAlgorithm",
    "SumExact",
    "SumGreedy",
    "TopKCoSKQ",
    "UnifiedExact",
    "UnifiedAppro",
    "BruteForceExact",
    "make_algorithm",
    "ALGORITHM_NAMES",
    # data
    "uniform_dataset",
    "clustered_dataset",
    "hotel_like",
    "gn_like",
    "web_like",
    "generate_queries",
    "QueryWorkload",
    "scale_dataset",
    "densify_keywords",
    # errors
    "CoSKQError",
    "InfeasibleQueryError",
    "UnknownKeywordError",
    "DatasetFormatError",
    "InvalidParameterError",
    "ExecutionError",
    "SearchAbortedError",
    "BudgetExceededError",
    "DeadlineExceededError",
    "InjectedFaultError",
    "ExecutionFailedError",
    # resilient execution
    "ExecutionPolicy",
    "FallbackChain",
    "ResilientExecutor",
    "ExecutionProvenance",
    "BatchExecutor",
    "FaultPlan",
    "ChaosIndex",
    "chaos_context",
]
