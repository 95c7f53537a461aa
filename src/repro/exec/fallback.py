"""Declarative degradation chains and their provenance records.

The paper pairs every exact CoSKQ search with a constant-ratio
approximation precisely because unbounded exact search is unacceptable
at query time.  :class:`FallbackChain` turns that pairing into a serving
primitive: an ordered list of solvers, best answer first, cheapest last
— e.g. ``maxsum-exact → maxsum-appro → nn-set``.  When a stage aborts
(budget, deadline, injected fault), the executor degrades to the next
stage and stamps the eventual :class:`~repro.model.result.CoSKQResult`
with an :class:`ExecutionProvenance`: which solver answered, why each
predecessor failed (:class:`StageFailure`), and the answering solver's
guaranteed approximation ratio — so a degraded answer is still an
*audited* answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.algorithms.base import SearchContext
from repro.algorithms.registry import make_algorithm
from repro.cost.base import CostFunction
from repro.errors import InvalidParameterError, SearchAbortedError

__all__ = ["StageFailure", "ExecutionProvenance", "FallbackChain"]


@dataclass(frozen=True)
class StageFailure:
    """Why one stage of a fallback chain did not answer."""

    stage: str
    error_type: str
    message: str
    attempts: int = 1
    counters: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_exception(
        cls, stage: str, error: BaseException, attempts: int = 1
    ) -> "StageFailure":
        counters: Dict[str, int] = {}
        if isinstance(error, SearchAbortedError):
            counters = dict(error.counters)
        return cls(
            stage=stage,
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
            counters=counters,
        )

    def __str__(self) -> str:
        suffix = " after %d attempts" % self.attempts if self.attempts > 1 else ""
        return "%s: %s (%s)%s" % (self.stage, self.error_type, self.message, suffix)


@dataclass(frozen=True)
class ExecutionProvenance:
    """How an answer was produced: who answered, who failed, what holds.

    ``guaranteed_ratio`` is the answering solver's proven approximation
    ratio (1.0 for exact solvers, None when no published bound exists) —
    the quantitative meaning of "degraded but still useful".
    """

    answered_by: str
    degraded: bool
    guaranteed_ratio: Optional[float]
    failures: Tuple[StageFailure, ...] = ()
    attempts: int = 1
    elapsed_ms: Optional[float] = None

    def describe(self) -> str:
        """One line for CLIs and logs."""
        if not self.degraded:
            return "answered by %s" % self.answered_by
        ratio = (
            "ratio<=%.4g" % self.guaranteed_ratio
            if self.guaranteed_ratio is not None
            else "no ratio bound"
        )
        return "degraded to %s (%s); failed: %s" % (
            self.answered_by,
            ratio,
            "; ".join(str(f) for f in self.failures),
        )


class FallbackChain:
    """An ordered, declarative list of solvers, strongest first.

    Stages are any objects with ``solve(query)`` and a ``name`` — the
    Euclidean :class:`~repro.algorithms.base.CoSKQAlgorithm` family, the
    network solvers, or test doubles.  Build from instances, or
    declaratively from registry names with :meth:`of`; a chain spec
    string is parsed by :attr:`repro.parallel.spec.SolverSpec.stage_names`.
    """

    def __init__(self, stages: Sequence[object]):
        stages = list(stages)
        if not stages:
            raise InvalidParameterError("a fallback chain needs at least one stage")
        for stage in stages:
            if not callable(getattr(stage, "solve", None)):
                raise InvalidParameterError(
                    "fallback stage %r has no solve() method" % (stage,)
                )
        self.stages: Tuple[object, ...] = tuple(stages)

    @classmethod
    def of(
        cls,
        context: SearchContext,
        *names: str,
        cost: Optional[CostFunction] = None,
    ) -> "FallbackChain":
        """A chain of registered algorithms over one shared context.

        ``cost`` (when given) is applied to every cost-generic stage, so
        the chain degrades *within the same objective* — e.g.
        ``FallbackChain.of(ctx, "maxsum-exact", "maxsum-appro", "nn-set")``.
        """
        return cls([make_algorithm(name, context, cost=cost) for name in names])

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(
            str(getattr(stage, "name", type(stage).__name__))
            for stage in self.stages
        )

    def describe(self) -> str:
        return " -> ".join(self.names)

    def __iter__(self) -> Iterator[object]:
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return "FallbackChain(%s)" % self.describe()


def stage_ratio(stage: object) -> Optional[float]:
    """The guaranteed ratio a stage's answer carries (1.0 when exact)."""
    if getattr(stage, "exact", False):
        return 1.0
    ratio = getattr(stage, "ratio", None)
    return float(ratio) if ratio is not None else None
