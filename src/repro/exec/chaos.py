"""Deterministic fault injection for the resilience runtime.

The retry and fallback paths of :mod:`repro.exec` only matter when
things go wrong — so this module makes things go wrong *on purpose and
deterministically*.  A :class:`FaultPlan` is a seed-driven schedule of
faults; :class:`ChaosIndex` wraps any
:class:`~repro.index.protocol.SpatialTextIndex` and consults the plan
before delegating each call.  The index protocol is one stream
(``nearest_relevant_iter``), so a plan schedules faults by call number:

- ``fail_nth(n)`` — the n-th intercepted call (1-based) raises
  :class:`~repro.errors.InjectedFaultError`; ``fail_nth(1)`` is the
  canonical transient fault (one retry heals);
- ``fail_rate(p)`` — each call fails with probability ``p`` under the
  plan's seed (via :mod:`repro.utils.rng`, so runs are reproducible);
  ``fail_rate(1.0)`` is a dead backend (only giving up with
  ``ExecutionFailedError``, or an answer that needs no index, escapes
  it);
- ``latency(seconds, every=k)`` — every k-th call sleeps on the
  wrapper's clock before proceeding: real time by default, the clock a
  :class:`~repro.exec.executor.ResilientExecutor` reads by default; with
  a :class:`~repro.exec.clock.ManualClock` passed to both the "latency"
  is virtual, so deadline behavior is testable with zero real waiting.

Everything is observable: the wrapper logs ``(method, call_number)``
per call and the plan records which call numbers it sabotaged.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.algorithms.base import SearchContext
from repro.errors import InjectedFaultError, InvalidParameterError
from repro.exec.clock import Clock, MonotonicClock
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.protocol import SpatialTextIndex
from repro.model.dataset import Dataset
from repro.utils.rng import substream

__all__ = ["FaultPlan", "ChaosIndex", "chaos_context"]


class FaultPlan:
    """A deterministic, seed-driven schedule of injected faults.

    Builder-style: ``FaultPlan(seed=7).fail_nth(1).latency(0.05,
    every=3)``.  The same plan object is stateful across calls (it
    remembers which one-shot faults already fired); build a fresh plan
    per experiment run.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._fail_calls: Set[int] = set()
        self._fail_rate = 0.0
        self._latency_seconds = 0.0
        self._latency_every = 0
        self._rng = substream(seed, "chaos-fail-rate")
        #: Call numbers this plan actually sabotaged (for assertions).
        self.injected: List[int] = []

    # -- builders --------------------------------------------------------------

    def fail_nth(self, *call_numbers: int) -> "FaultPlan":
        """Fail these 1-based global call numbers, once each."""
        for n in call_numbers:
            if n < 1:
                raise InvalidParameterError("call numbers are 1-based")
            self._fail_calls.add(n)
        return self

    def fail_rate(self, probability: float) -> "FaultPlan":
        """Fail each call with this probability (seed-reproducible)."""
        if not 0.0 <= probability <= 1.0:
            raise InvalidParameterError("probability must be in [0, 1]")
        self._fail_rate = probability
        return self

    def latency(self, seconds: float, every: int = 1) -> "FaultPlan":
        """Sleep ``seconds`` on the clock before every ``every``-th call."""
        if seconds < 0.0 or every < 1:
            raise InvalidParameterError("latency needs seconds >= 0, every >= 1")
        self._latency_seconds = seconds
        self._latency_every = every
        return self

    # -- the decision point ----------------------------------------------------

    def before_call(self, method: str, call_number: int, clock: Clock) -> None:
        """Inject whatever this plan schedules for this call."""
        if self._latency_every and call_number % self._latency_every == 0:
            clock.sleep(self._latency_seconds)
        fail = False
        if call_number in self._fail_calls:
            self._fail_calls.discard(call_number)
            fail = True
        elif self._fail_rate > 0.0 and self._rng.random() < self._fail_rate:
            fail = True
        if fail:
            self.injected.append(call_number)
            raise InjectedFaultError(method, call_number)


class ChaosIndex:
    """A :class:`SpatialTextIndex` decorator that injects planned faults.

    Structurally conforms to the index protocol, so it drops into
    :class:`~repro.algorithms.base.SearchContext` (via
    :func:`chaos_context`) and every algorithm runs against it unchanged
    — which is the point: the solvers under test cannot tell a chaos
    run from a production incident.
    """

    def __init__(
        self,
        inner: SpatialTextIndex,
        plan: FaultPlan,
        clock: Optional[Clock] = None,
    ):
        self.inner = inner
        self.plan = plan
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.calls = 0
        #: ``(method, call_number)`` per intercepted call, in order.
        self.call_log: List[Tuple[str, int]] = []

    @classmethod
    def build(cls, dataset: Dataset) -> "ChaosIndex":
        """Chaos wraps a built index; direct builds are a usage error."""
        raise InvalidParameterError(
            "ChaosIndex wraps an existing index: ChaosIndex(inner, plan)"
        )

    def _intercept(self, method: str) -> None:
        self.calls += 1
        self.call_log.append((method, self.calls))
        self.plan.before_call(method, self.calls, self.clock)

    # -- the SpatialTextIndex surface, faulted then delegated ------------------

    def __len__(self) -> int:
        return len(self.inner)

    def nearest_relevant_iter(
        self, point: Point, keywords: FrozenSet[int], within: Circle | None = None
    ) -> Iterator[Tuple[float, int, int]]:
        self._intercept("nearest_relevant_iter")
        return self.inner.nearest_relevant_iter(point, keywords, within)

    def __repr__(self) -> str:
        return "ChaosIndex(%r, calls=%d)" % (self.inner, self.calls)


def chaos_context(
    context: SearchContext, plan: FaultPlan, clock: Optional[Clock] = None
) -> SearchContext:
    """A context whose spatial index is sabotaged by ``plan``.

    The dataset's keyword postings (pure keyword lookups) are shared
    unwrapped, so feasibility checks stay truthful — chaos targets the spatial search
    path, which is where the interesting failures live.
    """
    return context.with_index(ChaosIndex(context.index, plan, clock=clock))
