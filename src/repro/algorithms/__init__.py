"""CoSKQ algorithms: the paper's owner-driven solvers plus baselines."""

from repro.algorithms.base import CoSKQAlgorithm, NNSet, SearchContext
from repro.algorithms.bruteforce import BruteForceExact
from repro.algorithms.cao_appro import CaoAppro1, CaoAppro2
from repro.algorithms.cao_exact import BranchBoundExact, CaoExact
from repro.algorithms.cover import cover_tables, find_constrained_cover, iter_covers
from repro.algorithms.dia_appro import DIA_APPRO_RATIO, DiaAppro
from repro.algorithms.dia_exact import DiaExact
from repro.algorithms.maxsum_appro import MAXSUM_APPRO_RATIO, MaxSumAppro
from repro.algorithms.maxsum_exact import MaxSumExact
from repro.algorithms.nnset import NNSetAlgorithm
from repro.algorithms.owner_appro import OwnerRingApproximation
from repro.algorithms.owner_exact import OwnerDrivenExact
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.algorithms.topk import TopKCoSKQ
from repro.algorithms.sum_algorithms import SumExact, SumGreedy
from repro.algorithms.unified_appro import (
    UNIFIED_APPRO_RATIO_BOUNDS,
    UnifiedAppro,
    ratio_bound_for,
)
from repro.algorithms.unified_exact import UnifiedExact, make_exact_solver

__all__ = [
    "SearchContext",
    "NNSet",
    "CoSKQAlgorithm",
    "MaxSumExact",
    "MaxSumAppro",
    "MAXSUM_APPRO_RATIO",
    "DiaExact",
    "DiaAppro",
    "DIA_APPRO_RATIO",
    "OwnerDrivenExact",
    "OwnerRingApproximation",
    "BranchBoundExact",
    "CaoExact",
    "CaoAppro1",
    "CaoAppro2",
    "NNSetAlgorithm",
    "SumExact",
    "TopKCoSKQ",
    "SumGreedy",
    "UnifiedAppro",
    "UnifiedExact",
    "UNIFIED_APPRO_RATIO_BOUNDS",
    "ratio_bound_for",
    "make_exact_solver",
    "BruteForceExact",
    "cover_tables",
    "find_constrained_cover",
    "iter_covers",
    "make_algorithm",
    "ALGORITHM_NAMES",
]
