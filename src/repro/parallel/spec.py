"""Picklable, declarative specs for the parallel batch engine.

A :class:`ProcessPoolExecutor` worker cannot receive a live solver — a
built solver drags a :class:`~repro.algorithms.base.SearchContext`, its
indexes and (for resilient chains) clocks and budgets through pickle on
*every task*.  The parallel engine therefore ships *recipes*:

- :class:`WorkerEnv` — everything a worker builds **once** in its
  initializer: the dataset, the shard count, the cache configuration
  and an optional chaos schedule;
- :class:`SolverSpec` — a tiny frozen description of one solver (a
  registry name or a fallback-chain spec plus policy knobs) that rides
  along with each task; the runtime builds a fresh solver from it for
  every query.  It is the one recipe behind ``coskq-query`` (single and
  ``--batch``), the pool and ``coskq-serve``, and the only code that
  turns names and limits into a chain, a policy and an executor;
- :class:`CacheSpec` / :class:`ChaosSpec` — the cache and fault-plan
  configurations, reduced to primitives.

Everything here is a frozen dataclass of primitives, so pickling is
cheap and the specs double as dictionary keys inside the workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.algorithms.base import SearchContext
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.cost.functions import cost_by_name
from repro.errors import InvalidParameterError
from repro.exec.chaos import FaultPlan
from repro.exec.clock import Clock
from repro.exec.executor import ResilientExecutor
from repro.exec.fallback import FallbackChain
from repro.exec.policy import ExecutionPolicy
from repro.model.dataset import Dataset

__all__ = ["CacheSpec", "ChaosSpec", "SolverSpec", "WorkerEnv", "CACHE_MODES"]

#: Recognized cache modes: no caching, or cross-query result reuse
#: through :class:`~repro.parallel.cache.ResultCache` ("full").
CACHE_MODES = ("none", "full")


@dataclass(frozen=True)
class CacheSpec:
    """Whether a worker reuses whole answers."""

    mode: str = "none"

    def __post_init__(self) -> None:
        if self.mode not in CACHE_MODES:
            raise InvalidParameterError(
                "unknown cache mode %r; known: %s" % (self.mode, list(CACHE_MODES))
            )

    @property
    def caches_results(self) -> bool:
        return self.mode == "full"


@dataclass(frozen=True)
class ChaosSpec:
    """A per-query deterministic fault schedule for chaos batches.

    A single shared :class:`~repro.exec.chaos.FaultPlan` would make the
    injected failure set depend on how queries interleave across
    workers.  Instead each query ``i`` gets a **fresh** plan seeded from
    ``(seed, i)`` — so the failure set of a batch is a pure function of
    the batch, identical for 1, 2 or 4 workers (the chaos-interplay
    guarantee tested in ``tests/test_exec_chaos.py``).
    """

    seed: int = 0
    fail_rate: float = 0.0
    fail_nth: Tuple[int, ...] = ()
    #: Injected slowness: every ``latency_every``-th index call sleeps
    #: ``latency_s`` on the runtime's clock, the one its deadlines read
    #: (virtual under a ManualClock).  ``latency_every=0`` disables it.
    latency_s: float = 0.0
    latency_every: int = 0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.latency_every < 0:
            raise InvalidParameterError(
                "latency_s and latency_every must be >= 0"
            )
        if (self.latency_s > 0) != (self.latency_every > 0):
            raise InvalidParameterError(
                "latency_s and latency_every must be set together"
            )

    def plan_for(self, query_index: int) -> FaultPlan:
        """The fault plan of query ``query_index``, order-independent."""
        plan = FaultPlan(seed=(self.seed * 1_000_003 + query_index) & 0x7FFFFFFF)
        if self.fail_rate:
            plan.fail_rate(self.fail_rate)
        if self.fail_nth:
            plan.fail_nth(*self.fail_nth)
        if self.latency_every:
            plan.latency(self.latency_s, every=self.latency_every)
        return plan


@dataclass(frozen=True)
class SolverSpec:
    """A solver, reduced to what a worker needs to rebuild it.

    ``chain``/``deadline_ms``/``work_budget``/``max_retries`` select the
    resilient path (a :class:`~repro.exec.executor.ResilientExecutor`
    over a :class:`~repro.exec.fallback.FallbackChain` — deadlines and
    fallback degrade **per worker**, exactly as they do serially);
    otherwise the bare registry algorithm is built.

    A spec is checked when it is made, so every front end refuses a
    malformed one before it solves anything: the chain must name at
    least one registered algorithm, the cost must be a known one and
    the envelope one :class:`~repro.exec.policy.ExecutionPolicy`
    accepts.
    """

    algorithm: str = "maxsum-exact"
    chain: Optional[str] = None
    cost: Optional[str] = None
    deadline_ms: Optional[float] = None
    work_budget: Optional[int] = None
    max_retries: int = 0
    always_answer: bool = True
    #: The chain's stages: ``chain`` split on commas or arrows
    #: (``"maxsum-exact,nn-set"``, ``"maxsum-exact -> nn-set"``), else
    #: ``(algorithm,)``.
    stage_names: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: The envelope a resilient build runs its chain inside.
    policy: ExecutionPolicy = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names: Tuple[str, ...] = (self.algorithm,)
        if self.chain is not None:
            names = tuple(
                part.strip()
                for part in self.chain.replace("->", ",").split(",")
                if part.strip()
            )
        if not names:
            raise InvalidParameterError("empty fallback chain spec %r" % (self.chain,))
        for name in names:
            if name not in ALGORITHM_NAMES:
                raise InvalidParameterError(
                    "unknown algorithm %r; known: %s" % (name, list(ALGORITHM_NAMES))
                )
        if self.cost is not None:
            cost_by_name(self.cost)
        policy = ExecutionPolicy(
            deadline_ms=self.deadline_ms,
            work_budget=self.work_budget,
            max_retries=self.max_retries,
            always_answer=self.always_answer,
        )
        object.__setattr__(self, "stage_names", names)
        object.__setattr__(self, "policy", policy)

    @property
    def resilient(self) -> bool:
        return (
            self.chain is not None
            or self.deadline_ms is not None
            or self.work_budget is not None
            or self.max_retries > 0
        )

    @property
    def label(self) -> str:
        """The name the built solver will report (for batch alignment)."""
        if self.resilient:
            return "exec[%s]" % "|".join(self.stage_names)
        return self.algorithm

    def build(self, context: SearchContext, clock: Optional[Clock] = None):
        """Instantiate the described solver over ``context``.

        ``clock`` is the time source of a resilient build's deadline; it
        must be the clock any chaos latency in ``context`` sleeps on.
        """
        cost = cost_by_name(self.cost) if self.cost is not None else None
        if not self.resilient:
            return make_algorithm(self.algorithm, context, cost=cost)
        chain = FallbackChain.of(context, *self.stage_names, cost=cost)
        return ResilientExecutor(chain, self.policy, clock=clock)


@dataclass(frozen=True)
class WorkerEnv:
    """Everything one pool worker builds in its initializer.

    Shipped exactly once per worker (via ``initargs``), never per task.
    Under the ``fork`` start method the engine additionally pre-builds
    the index in the parent so children inherit it for free (see
    :mod:`repro.parallel.worker`).
    """

    dataset: Dataset
    cache: CacheSpec = field(default_factory=CacheSpec)
    chaos: Optional[ChaosSpec] = None
    #: ``> 0`` builds a :class:`~repro.shard.index.ShardedIndex` with
    #: that many STR shards instead of one index; bare (non-resilient,
    #: non-chaos) solver specs then run through the
    #: :class:`~repro.shard.engine.ScatterGather` pruning engine.
    shards: int = 0

    def __post_init__(self) -> None:
        if self.shards < 0:
            raise InvalidParameterError("shards must be >= 0")
        if self.chaos is not None and self.cache.caches_results:
            raise InvalidParameterError(
                "result caching under chaos is unsound: a cached answer "
                "skips the fault plan, so the injected failure set would "
                "depend on query order (see docs/PARALLELISM.md)"
            )
