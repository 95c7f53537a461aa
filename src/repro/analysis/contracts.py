"""Opt-in runtime contracts for every CoSKQ solver.

Set ``REPRO_CHECK_CONTRACTS=1`` and call :func:`install` (the test
suite's ``conftest.py`` does this automatically) to wrap every
``solve()`` override in the :class:`~repro.algorithms.base.CoSKQAlgorithm`
hierarchy with post-conditions:

1. **Feasibility** — the returned set covers every query keyword.
2. **Cost honesty** — the reported cost equals an independent
   re-evaluation of the set under the algorithm's cost function.
3. **Exactness** — on instances small enough for the brute-force
   oracle, exact solvers must match the optimal cost.
4. **Ratio bounds** — approximations never beat the optimum, and ones
   with a published ratio (1.375 for MaxSum-Appro, √3 for Dia-Appro,
   3 and 2 for the Cao baselines) must stay within ``ratio × optimum``
   when running the cost the bound is proven for.

Any breach raises :class:`~repro.errors.ContractViolationError`, which
is also an ``AssertionError`` so test harnesses treat it as a failure.

Oracle checks are gated by instance size (:data:`ORACLE_RELEVANT_LIMIT`)
and memoized per ``(dataset, query, cost)`` so enabling contracts keeps
the suite tractable.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Dict, Iterator, Optional, Tuple, Type

from repro.algorithms.base import CoSKQAlgorithm
from repro.errors import ContractViolationError
from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.utils.floatcmp import float_eq, float_geq, float_leq

__all__ = [
    "ENV_FLAG",
    "ORACLE_RELEVANT_LIMIT",
    "COST_TOLERANCE",
    "enabled",
    "install",
    "uninstall",
    "check_result",
]

#: Environment variable that turns the contract layer on.
ENV_FLAG = "REPRO_CHECK_CONTRACTS"

#: Oracle checks only run when the query's relevant-object set is at
#: most this large (the brute force is exponential beyond it).
ORACLE_RELEVANT_LIMIT = 40

#: Tolerance for cost comparisons; looser than floatcmp.EPSILON because
#: costs are assembled through different arithmetic orders per solver.
COST_TOLERANCE = 1e-6

#: Memo of ``(dataset, optimal cost)`` keyed by (dataset id, query, cost
#: identity).  Each entry holds its dataset, so no other dataset can be
#: given that id while the entry stands.
_oracle_memo: Dict[Tuple[int, Query, str], Tuple[object, float]] = {}


def enabled() -> bool:
    """Whether the environment opts into runtime contract checking."""
    return os.environ.get(ENV_FLAG, "").strip() not in ("", "0", "false", "no")


def _cost_identity(cost: object) -> str:
    alpha = getattr(cost, "alpha", None)
    return "%s|%s|%r" % (type(cost).__name__, getattr(cost, "name", "?"), alpha)


def _oracle_cost(algorithm: CoSKQAlgorithm, query: Query) -> Optional[float]:
    """The optimal cost via brute force, or None when out of budget."""
    from repro.algorithms.bruteforce import BruteForceExact

    if isinstance(algorithm, BruteForceExact):
        return None  # it IS the oracle
    context = algorithm.context
    if len(context.dataset.relevant_oids(query.keywords)) > ORACLE_RELEVANT_LIMIT:
        return None
    key = (id(context.dataset), query, _cost_identity(algorithm.cost))
    if key not in _oracle_memo:
        oracle = BruteForceExact(context, algorithm.cost)
        _oracle_memo[key] = (context.dataset, oracle.solve(query).cost)
    return _oracle_memo[key][1]


def _ratio_applicable(algorithm: CoSKQAlgorithm) -> Optional[float]:
    """The declared ratio bound, if it holds for the running cost."""
    ratio = algorithm.ratio
    if ratio is None or algorithm.ratio_cost is None:
        return None
    if getattr(algorithm.cost, "name", None) != algorithm.ratio_cost:
        return None
    alpha = getattr(algorithm.cost, "alpha", None)
    if alpha is not None and not float_eq(alpha, 0.5):
        return None  # bounds are proven at the paper's default weighting
    return ratio


def _fail(algorithm: CoSKQAlgorithm, query: Query, message: str) -> None:
    raise ContractViolationError(
        "%s (algorithm=%s, query keywords=%s)"
        % (message, algorithm.name, sorted(query.keywords))
    )


def check_result(
    algorithm: CoSKQAlgorithm, query: Query, result: CoSKQResult
) -> None:
    """Assert the post-conditions of one ``solve()`` call."""
    if not result.objects:
        _fail(algorithm, query, "solve() returned an empty object set")
    covered = result.covered_keywords()
    if not query.keywords <= covered:
        _fail(
            algorithm,
            query,
            "infeasible result: keywords %s uncovered"
            % sorted(query.keywords - covered),
        )
    recomputed = algorithm.cost.evaluate(query, list(result.objects))
    if not float_eq(result.cost, recomputed, COST_TOLERANCE):
        _fail(
            algorithm,
            query,
            "reported cost %.12g != recomputed cost %.12g"
            % (result.cost, recomputed),
        )
    optimum = _oracle_cost(algorithm, query)
    if optimum is None:
        return
    if algorithm.exact:
        if not float_eq(result.cost, optimum, COST_TOLERANCE):
            _fail(
                algorithm,
                query,
                "exact solver returned cost %.12g but the optimum is %.12g"
                % (result.cost, optimum),
            )
        return
    if not float_geq(result.cost, optimum, COST_TOLERANCE):
        _fail(
            algorithm,
            query,
            "approximation returned cost %.12g below the optimum %.12g"
            % (result.cost, optimum),
        )
    ratio = _ratio_applicable(algorithm)
    if ratio is not None and not float_leq(result.cost, ratio * optimum, COST_TOLERANCE):
        _fail(
            algorithm,
            query,
            "approximation cost %.12g exceeds %.4g x optimum (%.12g)"
            % (result.cost, ratio, ratio * optimum),
        )


def _wrap_solve(
    original: Callable[..., CoSKQResult],
) -> Callable[..., CoSKQResult]:
    @functools.wraps(original)
    def checked_solve(self: CoSKQAlgorithm, query: Query) -> CoSKQResult:
        result = original(self, query)
        check_result(self, query, result)
        return result

    checked_solve._contract_original = original  # type: ignore[attr-defined]
    return checked_solve


def _iter_algorithm_classes() -> Iterator[Type[CoSKQAlgorithm]]:
    # Importing the registry materializes every algorithm class first.
    import repro.algorithms.registry  # noqa: F401 (import for side effect)

    stack = list(CoSKQAlgorithm.__subclasses__())
    seen = set()
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        yield cls


def install() -> int:
    """Wrap every ``solve()`` override with contract checks (idempotent).

    Returns the number of classes wrapped.  Classes defined after the
    call are not covered; call again to pick them up.
    """
    wrapped = 0
    for cls in _iter_algorithm_classes():
        solve = cls.__dict__.get("solve")
        if solve is None or hasattr(solve, "_contract_original"):
            continue
        cls.solve = _wrap_solve(solve)  # type: ignore[method-assign]
        wrapped += 1
    return wrapped


def uninstall() -> int:
    """Remove previously installed wrappers; returns how many."""
    removed = 0
    for cls in _iter_algorithm_classes():
        solve = cls.__dict__.get("solve")
        original = getattr(solve, "_contract_original", None)
        if original is not None:
            cls.solve = original  # type: ignore[method-assign]
            removed += 1
    _oracle_memo.clear()
    return removed
