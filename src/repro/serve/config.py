"""Declarative configuration for the CoSKQ serving daemon.

:class:`ServerConfig` is the whole daemon reduced to primitives — which
dataset, which fallback chain, which envelope each request runs inside,
how much concurrency the admission controller admits, and (for the
chaos-under-traffic harness) an optional per-request fault schedule.
Keeping it a frozen dataclass mirrors :mod:`repro.parallel.spec`: the
config doubles as documentation of every serving knob and is trivially
buildable from CLI flags or tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InvalidParameterError
from repro.parallel.spec import CacheSpec, ChaosSpec, SolverSpec

__all__ = [
    "ServerConfig",
    "DEFAULT_CHAIN",
    "DEFAULT_DEADLINE_MS",
    "DEFAULT_MAX_INFLIGHT",
]

#: The default degradation order: exact answer when time permits, the
#: paper's constant-ratio approximation when it does not, and the cheap
#: ``N(q)`` last resort that always answers.
DEFAULT_CHAIN = "maxsum-exact,maxsum-appro,nn-set"

#: Default per-request wall-clock envelope (milliseconds).
DEFAULT_DEADLINE_MS = 250.0

#: Default admission bound: requests solving concurrently before the
#: controller starts shedding with 429.
DEFAULT_MAX_INFLIGHT = 32


def _finite_positive(value: float) -> bool:
    # ``value <= 0`` is False for NaN, and +inf would disable the bound.
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class ServerConfig:
    """Every serving knob, reduced to primitives.

    ``max_inflight=0`` is drain mode: the admission controller sheds
    every ``/query`` request (``/healthz`` and ``/stats`` stay up), the
    shape a load balancer sees while an instance is being rotated out.

    ``max_deadline_ms`` caps per-request ``deadline_ms`` overrides so a
    client cannot demand an unbounded exact search; overrides above the
    cap are clamped, never rejected.

    ``chaos`` installs a deterministic per-request fault schedule
    (:class:`~repro.parallel.spec.ChaosSpec`): request ``n`` solves
    against an index sabotaged by ``chaos.plan_for(n)``, the same
    order-independence design the parallel engine uses.  Result caching
    under chaos is rejected for the same reason
    :class:`~repro.parallel.spec.WorkerEnv` rejects it — a cached answer
    would skip the fault plan.

    The config is checked when it is made: ``spec`` is the
    :class:`~repro.parallel.spec.SolverSpec` of the default request and
    ``cache`` the :class:`~repro.parallel.spec.CacheSpec`, so a
    malformed chain, cost, envelope or cache mode is refused before a
    daemon starts.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    chain: str = DEFAULT_CHAIN
    cost: Optional[str] = None
    deadline_ms: Optional[float] = DEFAULT_DEADLINE_MS
    work_budget: Optional[int] = None
    max_retries: int = 1
    always_answer: bool = True
    max_deadline_ms: Optional[float] = 5_000.0
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    retry_after_s: float = 0.05
    cache_mode: str = "none"
    #: ``> 0`` serves a :class:`~repro.shard.index.ShardedIndex` with
    #: that many STR shards behind the same request path; the immutable
    #: shard summaries are shared read-only across request threads
    #: (docs/SHARDING.md).
    shards: int = 0
    chaos: Optional[ChaosSpec] = field(default=None)
    #: Log one line per request to stderr (off by default: the load
    #: generator would drown the terminal).
    verbose: bool = False
    #: The default request's solver recipe, built from the fields above.
    spec: SolverSpec = field(init=False, repr=False, compare=False)
    #: The result-cache recipe of ``cache_mode``.
    cache: CacheSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_inflight < 0:
            raise InvalidParameterError("max_inflight must be >= 0 (0 = drain)")
        if self.max_deadline_ms is not None and not _finite_positive(
            self.max_deadline_ms
        ):
            raise InvalidParameterError("max_deadline_ms must be finite and positive")
        if not _finite_positive(self.retry_after_s):
            raise InvalidParameterError("retry_after_s must be finite and positive")
        spec = SolverSpec(
            chain=self.chain,
            cost=self.cost,
            deadline_ms=self.deadline_ms,
            work_budget=self.work_budget,
            max_retries=self.max_retries,
            always_answer=self.always_answer,
        )
        cache = CacheSpec(self.cache_mode)
        if self.chaos is not None and cache.caches_results:
            raise InvalidParameterError(
                "result caching under chaos is unsound: a cached answer "
                "skips the fault plan (see docs/PARALLELISM.md)"
            )
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "cache", cache)

    def clamp_deadline(self, deadline_ms: Optional[float]) -> Optional[float]:
        """A per-request deadline override, held under the server cap."""
        if deadline_ms is None:
            return self.deadline_ms
        if self.max_deadline_ms is not None:
            return min(deadline_ms, self.max_deadline_ms)
        return deadline_ms
