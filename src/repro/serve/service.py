"""The HTTP-agnostic serving core: parse, admit, solve, degrade, count.

:class:`QueryService` is everything the daemon does minus the sockets,
so the whole degradation surface is testable without binding a port:

- the service holds one :class:`~repro.parallel.worker.WorkerRuntime`
  built from its :class:`~repro.serve.config.ServerConfig`, the runtime
  the batch engine and ``coskq-query`` use: the index is built **once**,
  at construction, and shared read-only by every request thread —
  sound because lint rules R7/R10 pin solvers to a read-only index, and
  the result cache carries its own lock;
- each request maps onto a :class:`~repro.parallel.spec.SolverSpec`,
  and the runtime builds its *own* fallback chain and
  :class:`~repro.exec.executor.ResilientExecutor` from it (solvers are
  stateful per solve — counters, budgets — so instances are never
  shared across threads; construction is cheap, the index is not
  rebuilt);
- requests degrade instead of erroring: a deadline-expired request
  returns the best fallback answer with its
  :class:`~repro.exec.fallback.ExecutionProvenance` serialized in the
  response, and every failure maps to one outcome of
  :data:`~repro.serve.stats.OUTCOMES` and one documented HTTP status
  (:data:`OUTCOME_STATUS`, the table in ``docs/SERVING.md``);
- the admission controller sheds load past ``max_inflight`` with 429 +
  ``Retry-After`` before any index work happens;
- under a :class:`~repro.parallel.spec.ChaosSpec`, request ``n`` solves
  against an index sabotaged by the deterministic plan ``plan_for(n)``
  — each request gets a fresh plan and wrapper, so chaos is
  thread-safe and order-independent by construction, and injected
  latency sleeps on the service's clock, the one its deadlines read.

``handle_query`` **never raises**: every exception — including an
unexpected one — becomes a JSON error response carrying the failure's
taxonomy type, and is counted before the response is returned.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    CoSKQError,
    DeadlineExceededError,
    ExecutionFailedError,
    InfeasibleQueryError,
    InvalidParameterError,
    UnknownKeywordError,
)
from repro.exec.clock import Clock, MonotonicClock
from repro.exec.fallback import ExecutionProvenance
from repro.model.dataset import Dataset
from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.parallel.cache import ResultCache
from repro.parallel.spec import SolverSpec, WorkerEnv
from repro.parallel.worker import WorkerRuntime
from repro.serve.admission import AdmissionController
from repro.serve.config import ServerConfig
from repro.serve.stats import ServerStats
from repro.shard.index import ShardedIndex

__all__ = [
    "OUTCOME_STATUS",
    "ServeResponse",
    "QueryService",
    "provenance_to_dict",
]

#: The documented outcome → HTTP status table (``docs/SERVING.md``).
#: ``failed`` upgrades from 503 to 504 when *every* stage failure in the
#: chain was a deadline abort — the whole request was simply out of
#: time, which a client treats differently from a broken backend.
OUTCOME_STATUS: Dict[str, int] = {
    "ok": 200,
    "degraded": 200,
    "bad_request": 400,
    "unknown_keyword": 404,
    "infeasible": 422,
    "shed": 429,
    "failed": 503,
    "internal": 500,
}

#: ``failed`` status when the chain died purely of deadline aborts.
STATUS_DEADLINE = 504


def _refuse_constant(name: str) -> float:
    """``json.loads`` hook: ``NaN`` and ``Infinity`` are not JSON numbers."""
    raise ValueError("%s is not a number" % name)


def _is_finite_number(value: object) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def provenance_to_dict(provenance: ExecutionProvenance) -> Dict[str, object]:
    """The JSON shape of an execution provenance record."""
    return {
        "answered_by": provenance.answered_by,
        "degraded": provenance.degraded,
        "guaranteed_ratio": provenance.guaranteed_ratio,
        "attempts": provenance.attempts,
        "elapsed_ms": provenance.elapsed_ms,
        "failures": [
            {
                "stage": failure.stage,
                "error_type": failure.error_type,
                "message": failure.message,
                "attempts": failure.attempts,
            }
            for failure in provenance.failures
        ],
    }


@dataclass(frozen=True)
class ServeResponse:
    """One finished request: HTTP status, JSON payload, optional hint."""

    status: int
    payload: Dict[str, object]
    retry_after_s: Optional[float] = None
    #: The outcome recorded in stats (mirrors ``payload["outcome"]``).
    outcome: str = "internal"
    headers: Tuple[Tuple[str, str], ...] = field(default=())

    def body(self) -> bytes:
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")


class QueryService:
    """The daemon's brain: one dataset, many concurrent degradable solves."""

    def __init__(
        self,
        dataset: Dataset,
        config: Optional[ServerConfig] = None,
        clock: Optional[Clock] = None,
    ):
        self.config = config if config is not None else ServerConfig()
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.dataset = dataset
        self.runtime = WorkerRuntime(
            WorkerEnv(
                dataset,
                cache=self.config.cache,
                chaos=self.config.chaos,
                shards=self.config.shards,
            ),
            clock=self.clock,
        )
        # Build the default request's solver once: a stage that cannot
        # take the configured cost refuses it here, not on every request.
        self.config.spec.build(self.runtime.context)
        self.admission = AdmissionController(
            self.config.max_inflight, retry_after_s=self.config.retry_after_s
        )
        self.stats = ServerStats(clock=self.clock)
        self._sequence = itertools.count(1)
        self._started = self.clock.now()

    # -- the request path --------------------------------------------------------

    def handle_query(self, body: bytes) -> ServeResponse:
        """One ``/query`` request, admission to answer; never raises."""
        started = self.clock.now()
        request_id = next(self._sequence)
        if not self.admission.try_acquire():
            response = self._error_response(
                request_id,
                started,
                outcome="shed",
                error_type="LoadShedError",
                message=(
                    "over the admission bound (%d in flight); retry after "
                    "the Retry-After hint" % self.config.max_inflight
                ),
                retry_after_s=self.admission.retry_after_s,
            )
            self._record(response, started, stage=None, failure_classes=())
            return response
        try:
            response = self._admitted(body, request_id, started)
        finally:
            self.admission.release()
        return response

    def _admitted(
        self, body: bytes, request_id: int, started: float
    ) -> ServeResponse:
        """Parse, solve and count one admitted request."""
        stage: Optional[str] = None
        failure_classes: Tuple[str, ...] = ()
        try:
            request = self._parse(body)
            query = Query.from_words(
                request["x"], request["y"], request["keywords"], self.dataset.vocabulary
            )
            spec = self._spec(request)
            result = self.runtime.solver_for(spec, request_id).solve(query)
            provenance = result.provenance
            degraded = bool(provenance is not None and provenance.degraded)
            outcome = "degraded" if degraded else "ok"
            stage = (
                provenance.answered_by if provenance is not None else result.algorithm
            )
            if provenance is not None:
                failure_classes = tuple(
                    failure.error_type for failure in provenance.failures
                )
            response = ServeResponse(
                status=OUTCOME_STATUS[outcome],
                outcome=outcome,
                payload={
                    "outcome": outcome,
                    "request_id": request_id,
                    "cost": result.cost,
                    "cost_name": spec.cost,
                    "algorithm": result.algorithm,
                    "objects": self._objects_payload(query, result),
                    "provenance": (
                        provenance_to_dict(provenance)
                        if provenance is not None
                        else None
                    ),
                    "elapsed_ms": (self.clock.now() - started) * 1000.0,
                },
            )
        except UnknownKeywordError as err:
            response = self._error_response(
                request_id, started, "unknown_keyword", type(err).__name__, str(err)
            )
            failure_classes = (type(err).__name__,)
        except InfeasibleQueryError as err:
            response = self._error_response(
                request_id, started, "infeasible", type(err).__name__, str(err)
            )
            failure_classes = (type(err).__name__,)
        except InvalidParameterError as err:
            response = self._error_response(
                request_id, started, "bad_request", type(err).__name__, str(err)
            )
            failure_classes = (type(err).__name__,)
        except ExecutionFailedError as err:
            stage_types = tuple(
                getattr(failure, "error_type", type(failure).__name__)
                for failure in err.failures
            )
            failure_classes = (type(err).__name__,) + stage_types
            status = OUTCOME_STATUS["failed"]
            if stage_types and all(
                error_type == DeadlineExceededError.__name__
                for error_type in stage_types
            ):
                status = STATUS_DEADLINE
            response = self._error_response(
                request_id,
                started,
                "failed",
                type(err).__name__,
                str(err),
                status=status,
                failures=[
                    {
                        "stage": getattr(failure, "stage", "?"),
                        "error_type": getattr(
                            failure, "error_type", type(failure).__name__
                        ),
                        "message": getattr(failure, "message", str(failure)),
                    }
                    for failure in err.failures
                ],
            )
        except CoSKQError as err:
            failure_classes = (type(err).__name__,)
            response = self._error_response(
                request_id, started, "failed", type(err).__name__, str(err)
            )
        except Exception as err:  # the daemon must never crash a thread
            failure_classes = (type(err).__name__,)
            response = self._error_response(
                request_id, started, "internal", type(err).__name__, str(err)
            )
        self._record(
            response, started, stage=stage, failure_classes=failure_classes
        )
        return response

    # -- request-path helpers ----------------------------------------------------

    def _parse(self, body: bytes) -> Dict[str, object]:
        """The request JSON, validated to primitives (raises typed errors)."""
        try:
            document = json.loads(body.decode("utf-8"), parse_constant=_refuse_constant)
        except (ValueError, UnicodeDecodeError) as err:
            raise InvalidParameterError("request body is not JSON: %s" % err)
        if not isinstance(document, dict):
            raise InvalidParameterError("request body must be a JSON object")
        for coordinate in ("x", "y"):
            if not _is_finite_number(document.get(coordinate)):
                raise InvalidParameterError(
                    "field %r must be a finite number" % coordinate
                )
        keywords = document.get("keywords")
        if (
            not isinstance(keywords, list)
            or not keywords
            or not all(isinstance(word, str) and word for word in keywords)
        ):
            raise InvalidParameterError(
                "field 'keywords' must be a non-empty list of words"
            )
        for name, kind in (
            ("chain", str),
            ("cost", str),
            ("deadline_ms", (int, float)),
            ("work_budget", int),
            ("max_retries", int),
        ):
            value = document.get(name)
            if value is not None and (
                not isinstance(value, kind) or isinstance(value, bool)
            ):
                raise InvalidParameterError("field %r has the wrong type" % name)
        max_retries = document.get("max_retries")
        if max_retries is not None and not 0 <= max_retries <= 8:
            raise InvalidParameterError("max_retries must be between 0 and 8")
        return document

    def _spec(self, request: Dict[str, object]) -> SolverSpec:
        """The request's solver recipe: its fields over the server's defaults."""
        overrides = {
            name: request[name]
            for name in ("chain", "cost", "work_budget", "max_retries")
            if request.get(name) is not None
        }
        return replace(
            self.config.spec,
            deadline_ms=self.config.clamp_deadline(request.get("deadline_ms")),
            **overrides,
        )

    def _objects_payload(
        self, query: Query, result: CoSKQResult
    ) -> List[Dict[str, object]]:
        vocabulary = self.dataset.vocabulary
        return [
            {
                "oid": obj.oid,
                "x": obj.location.x,
                "y": obj.location.y,
                "distance": query.distance_to(obj.location),
                "keywords": sorted(vocabulary.word_of(k) for k in obj.keywords),
            }
            for obj in result.objects
        ]

    def _error_response(
        self,
        request_id: int,
        started: float,
        outcome: str,
        error_type: str,
        message: str,
        status: Optional[int] = None,
        retry_after_s: Optional[float] = None,
        failures: Optional[List[Dict[str, object]]] = None,
    ) -> ServeResponse:
        error: Dict[str, object] = {"type": error_type, "message": message}
        if failures is not None:
            error["failures"] = failures
        return ServeResponse(
            status=status if status is not None else OUTCOME_STATUS[outcome],
            outcome=outcome,
            retry_after_s=retry_after_s,
            payload={
                "outcome": outcome,
                "request_id": request_id,
                "error": error,
                "elapsed_ms": (self.clock.now() - started) * 1000.0,
            },
        )

    def _record(
        self,
        response: ServeResponse,
        started: float,
        stage: Optional[str],
        failure_classes: Tuple[str, ...],
    ) -> None:
        """Count the finished request before its bytes leave the server."""
        self.stats.record(
            response.outcome,
            response.status,
            elapsed_ms=(self.clock.now() - started) * 1000.0,
            stage=stage,
            failure_classes=failure_classes,
        )

    def reject_bad_request(self, message: str) -> ServeResponse:
        """A counted bad_request for transport-level refusals (body size).

        The HTTP layer uses this for requests it refuses before the
        body ever reaches :meth:`handle_query`, so every ``/query``
        request — even a refused one — shows up in exactly one outcome
        counter and the reconciliation invariant holds.
        """
        started = self.clock.now()
        response = self._error_response(
            next(self._sequence),
            started,
            "bad_request",
            InvalidParameterError.__name__,
            message,
        )
        self._record(
            response,
            started,
            stage=None,
            failure_classes=(InvalidParameterError.__name__,),
        )
        return response

    # -- read-only endpoints -----------------------------------------------------

    def stats_payload(self) -> Dict[str, object]:
        """The ``/stats`` JSON: outcomes, stages, latencies, caches, admission."""
        payload = self.stats.snapshot()
        payload["admission"] = self.admission.snapshot()
        caches: Dict[str, object] = {"mode": self.config.cache_mode}
        if self.result_cache is not None:
            stats = self.result_cache.stats_dict()
            lookups = stats["hits"] + stats["misses"]
            stats["hit_rate"] = stats["hits"] / lookups if lookups else 0.0
            caches["result"] = stats
        payload["cache"] = caches
        payload["chain"] = self.config.chain
        payload["chaos"] = self.config.chaos is not None
        sharded = self.sharded_index
        if sharded is not None:
            payload["shards"] = {
                "requested": self.config.shards,
                "count": sharded.shard_count,
                "objects": [s.summary.count for s in sharded.shards],
                "stats": sharded.stats.as_dict(),
            }
        return payload

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The runtime's result cache, or None when caching is off."""
        return self.runtime.result_cache

    @property
    def sharded_index(self) -> Optional[ShardedIndex]:
        """The raw sharded facade, or None when serving a single index."""
        if self.config.shards <= 0:
            return None
        index = self.runtime.context.index
        assert isinstance(index, ShardedIndex)
        return index

    def health_payload(self) -> Dict[str, object]:
        """The ``/healthz`` JSON: liveness plus what this daemon serves."""
        mbr = self.dataset.mbr()
        return {
            "status": "ok",
            "uptime_s": self.clock.now() - self._started,
            "objects": len(self.dataset),
            "vocabulary": len(self.dataset.vocabulary),
            "bounds": [mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y],
            "chain": self.config.chain,
            "inflight": self.admission.inflight,
            "max_inflight": self.config.max_inflight,
            "shards": self.config.shards,
        }

    def vocabulary_payload(self, limit: int = 50) -> Dict[str, object]:
        """The ``/vocabulary`` JSON: most frequent words, for load clients."""
        if limit < 1:
            raise InvalidParameterError("limit must be >= 1")
        vocabulary = self.dataset.vocabulary
        frequencies = self.dataset.keyword_frequencies()
        ranked = self.dataset.keywords_by_frequency()[:limit]
        return {
            "total": len(vocabulary),
            "words": [
                {"word": vocabulary.word_of(k), "objects": frequencies[k]}
                for k in ranked
            ],
        }

    def __repr__(self) -> str:
        return "QueryService(%d objects, chain=%s)" % (
            len(self.dataset),
            self.config.chain,
        )
