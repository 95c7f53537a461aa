"""Thread-safe serving telemetry: outcome counters + latency ring.

Every ``/query`` request ends in exactly one **outcome** from
:data:`OUTCOMES`; :class:`ServerStats` counts requests by outcome, by
HTTP status, by answering stage and by failure class, and keeps the most
recent latencies in a bounded ring buffer for the ``/stats``
percentiles.  One lock guards everything, so a snapshot taken mid-storm
is internally consistent — which is what lets the chaos-under-traffic
acceptance test reconcile ``/stats`` totals bit-for-bit against the load
generator's client-side tally.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Dict, Optional, Sequence

from repro.errors import InvalidParameterError
from repro.exec.clock import Clock, MonotonicClock
from repro.utils.stats import percentile

__all__ = ["OUTCOMES", "ServerStats"]

#: The exhaustive request-outcome taxonomy.  ``ok`` and ``degraded`` are
#: both successful answers (``degraded`` means a fallback stage, not the
#: chain's first stage, produced it); everything else names why no
#: answer was produced.  ``internal`` is the catch-all for unexpected
#: exceptions — the chaos acceptance test asserts it stays at zero.
OUTCOMES = (
    "ok",
    "degraded",
    "shed",
    "bad_request",
    "unknown_keyword",
    "infeasible",
    "failed",
    "internal",
)

#: Percentiles reported by :meth:`ServerStats.snapshot`.
_PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))

#: How many of the most recent request latencies the percentiles read.
_LATENCY_WINDOW = 2048


class ServerStats:
    """All serving counters behind one lock.

    ``record`` is called exactly once per ``/query`` request, *before*
    the response bytes are written — so by the time a client has read
    its response, the matching counter increment is already visible to
    any later ``/stats`` read.  That ordering is the whole
    reconciliation argument.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self._lock = threading.Lock()
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._started = self._clock.now()
        self.total = 0
        self.by_outcome: "Counter[str]" = Counter()
        self.by_status: "Counter[int]" = Counter()
        self.by_stage: "Counter[str]" = Counter()
        self.by_failure: "Counter[str]" = Counter()
        self._latencies: "deque[float]" = deque(maxlen=_LATENCY_WINDOW)

    def record(
        self,
        outcome: str,
        status: int,
        elapsed_ms: Optional[float] = None,
        stage: Optional[str] = None,
        failure_classes: Sequence[str] = (),
    ) -> None:
        """Count one finished request (thread-safe, one call per request)."""
        if outcome not in OUTCOMES:
            raise InvalidParameterError(
                "unknown outcome %r; known: %s" % (outcome, list(OUTCOMES))
            )
        with self._lock:
            self.total += 1
            self.by_outcome[outcome] += 1
            self.by_status[status] += 1
            if stage is not None:
                self.by_stage[stage] += 1
            for failure_class in failure_classes:
                self.by_failure[failure_class] += 1
            if elapsed_ms is not None:
                self._latencies.append(elapsed_ms)

    def snapshot(self) -> Dict[str, object]:
        """One consistent JSON-ready view of every counter."""
        with self._lock:
            latencies = sorted(self._latencies)
            payload: Dict[str, object] = {
                "uptime_s": self._clock.now() - self._started,
                "total": self.total,
                "by_outcome": {k: self.by_outcome[k] for k in OUTCOMES},
                "by_status": {
                    str(status): count
                    for status, count in sorted(self.by_status.items())
                },
                "by_stage": dict(sorted(self.by_stage.items())),
                "by_failure_class": dict(sorted(self.by_failure.items())),
            }
        latency: Dict[str, object] = {"window": len(latencies)}
        if latencies:
            for label, fraction in _PERCENTILES:
                latency[label + "_ms"] = percentile(latencies, fraction)
            latency["max_ms"] = latencies[-1]
        payload["latency"] = latency
        return payload

    def __repr__(self) -> str:
        with self._lock:
            return "ServerStats(total=%d, outcomes=%s)" % (
                self.total,
                dict(self.by_outcome),
            )
