"""The serving workload: ``coskq-serve`` over HTTP, driven by this process.

A run is ``BLOCKS`` blocks.  Each block:

1. **Set-up**: spawns ``python -m repro.serve`` on the pinned dataset and
   measures the daemon's on-CPU time from spawn to ``/healthz`` 200, in
   reference seconds (see :func:`timing.timed_start`).
2. **Warm-up** (untimed): a fixed number of back-to-back requests, so the
   result cache holds popular queries.
3. **Nominal** (open loop): requests due every ``1/NOMINAL_QPS`` s,
   whatever the daemon's speed.  Latency is timed from when each request
   was *due*, so a stall also charges the requests queued behind it; how
   late the generator ran is reported.
4. **Capacity** (closed loop): requests back to back.
5. Reads ``/stats`` and the daemon's peak memory, and stops it.

Every block replays the identical request stream on a fresh daemon, so
request *i* meets the same cache state in every block.  Its latency is
its median over the blocks, each in reference milliseconds: scaled by
the machine's speed when it was sent, from speed probes this process
runs while the daemon is idle (see :mod:`timing`).  Throughput is the
capacity requests answered per second of their service times, taken the
same way.

The client keeps one request in flight.  With two connections, requests
overlapping inside the daemon share its interpreter lock, and the
run-to-run spread of tail latency and throughput grew two- to fourfold.

Request bodies are pool queries drawn Zipf by rank (see
:func:`request_streams`).  Each request opens its own connection: with a
kept-alive connection the daemon's separate header and body writes meet
the client's delayed ACK and every response stalls ~40 ms, which would
hide everything else the workload measures.

The layer split comes from the program's own response fields and
``/stats``, not from spans inside the daemon: ``provenance.elapsed_ms``
is the fallback chain's time, the payload's ``elapsed_ms`` the whole
request inside the server.  A result-cache hit returns the stored
provenance, so a response whose ``provenance.elapsed_ms`` equals an
earlier one's for the same query, in the same block, is a hit.
"""

from __future__ import annotations

import bisect
import http.client
import json
import queue
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from gate import check_answer
from summary import percentile
from timing import PROBE_HALF_WINDOW, Spans, peak_rss_kb, probe_ns, speed_factors, timed_start
from workloads import POOL_SEED

__all__ = ["Daemon", "Zipf", "closed_loop", "open_loop", "run_serve"]

#: Daemons per run; ``setup_s`` is the median of their start-ups.
BLOCKS = 3
WARMUP_REQUESTS = 100
CAPACITY_REQUESTS = 300
#: The open-loop rate.  The blocks' nominal phases together last the
#: run's seconds; start-ups, warm-ups and capacity phases come on top.
#: At about a fifth of the daemon's capacity, a burst of contention on a
#: shared machine delays few requests behind it; at half, the median
#: itself measured queueing and tripled from run to run.
NOMINAL_QPS = 40.0
#: Zipf exponent of request popularity: about a third of measured
#: requests hit the result cache.  Near 60% hits the median sat on the
#: boundary between hit and miss latencies and moved by half from run to
#: run.
ZIPF_EXPONENT = 0.8
DEADLINE_MS = 1000
#: The open loop stops probing this long before a request is due.
PROBE_MARGIN_S = 0.0005
CHAIN_STAGES = ("maxsum-exact", "maxsum-appro", "nn-set")
SETUP_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0

Response = Tuple[int, bytes]


class Daemon:
    """One ``coskq-serve`` child process, started and ready."""

    def __init__(self, dataset: Path, env: Dict[str, str]):
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                str(dataset),
                "--port",
                "0",
                "--cache",
                "full",
                "--deadline-ms",
                str(DEADLINE_MS),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.pid = self.process.pid
        self.stderr: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        try:
            self.port = self._await_port(started)
            while get_json(self.port, "/healthz") is None:
                if time.perf_counter() - started > SETUP_TIMEOUT_S:
                    raise RuntimeError("daemon never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, started: float) -> int:
        while True:
            remaining = SETUP_TIMEOUT_S - (time.perf_counter() - started)
            try:
                line = self._lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                raise RuntimeError("daemon did not start within %.0f s" % SETUP_TIMEOUT_S)
            if line is None:
                raise RuntimeError("daemon exited: %s" % "".join(self.stderr).strip())
            match = re.search(r" on http://127\.0\.0\.1:([0-9]+)", line)
            if match:
                return int(match.group(1))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._drain.join(timeout=10)


def request(port: int, method: str, path: str, body: Optional[bytes] = None) -> Response:
    """One request on a fresh loopback connection; status 0 if it failed."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    headers = {"Connection": "close"}
    if body is not None:
        headers["Content-Type"] = "application/json"
    try:
        connection.request(method, path, body, headers)
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        connection.close()


def get_json(port: int, path: str) -> Optional[dict]:
    status, body = request(port, "GET", path)
    return json.loads(body) if status == 200 else None


class Zipf:
    """Seeded Zipf(s) draws over ranks ``0..n-1``."""

    def __init__(self, n: int, exponent: float, rng: random.Random):
        self._rng = rng
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / (rank + 1) ** exponent
            self._cumulative.append(total)

    def draw(self) -> int:
        u = self._rng.random() * self._cumulative[-1]
        return min(bisect.bisect_left(self._cumulative, u), len(self._cumulative) - 1)


def open_loop(
    requests: Sequence[int],
    rate: float,
    send: Callable[[int], Response],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Tuple[float, float, float, Response]]:
    """Send ``requests[i]`` when due, at ``start + i/rate``, on one connection.

    A request still waits past its due time while the one before it is
    in flight; that wait is the generator's lateness (``sent - due``) and
    part of the request's latency (``done - due``).  Returns ``(due,
    sent, done, response)`` per request, in order.
    """
    results = []
    start = clock()
    for i, request_ in enumerate(requests):
        due = start + i / rate
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        response = send(request_)
        results.append((due, sent, clock(), response))
    return results


def closed_loop(
    requests: Sequence[int],
    send: Callable[[int], Response],
    clock: Callable[[], float] = time.perf_counter,
    pause: Callable[[], None] = lambda: None,
) -> List[Tuple[float, float, float, Response]]:
    """Send each request as soon as the one before it returns.

    ``pause()`` runs, untimed, before each request.  Returns ``(due,
    sent, done, response)`` per request, like :func:`open_loop`; a
    request is due when it is sent.
    """
    results = []
    for request_ in requests:
        pause()
        sent = clock()
        response = send(request_)
        results.append((sent, sent, clock(), response))
    return results


class Record(NamedTuple):
    """One HTTP request of a serving run."""

    phase: str  # "warmup", "nominal" or "capacity"
    query: int  # pool index
    due: float
    sent: float
    done: float
    status: int  # 0 on a transport failure
    payload: Optional[dict]
    speed: float  # the machine's speed factor at the send

    @property
    def latency_ms(self) -> float:
        """Client latency from when the request was due."""
        return (self.done - self.due) * 1000.0


class Block(NamedTuple):
    """One daemon's life: its start-up, requests, ``/stats`` and memory."""

    ready_s: float  # reference seconds
    ready_wall_s: float
    records: List[Record]
    stats: Optional[dict]
    rss_kb: int


def request_streams(pool_size: int, seed: int, seconds: float):
    """Warm-up, nominal and capacity requests (pool indices) of a block.

    The multiset of each phase is drawn Zipf by pool rank with the fixed
    pool seed, so it is a pinned input; the run seed only shuffles each
    phase's order.
    """
    zipf = Zipf(pool_size, ZIPF_EXPONENT, random.Random(POOL_SEED))
    nominal = int(NOMINAL_QPS * seconds / BLOCKS)
    phases = [
        [zipf.draw() for _ in range(count)]
        for count in (WARMUP_REQUESTS, nominal, CAPACITY_REQUESTS)
    ]
    order = random.Random(seed)
    for phase in phases:
        order.shuffle(phase)
    return phases


def run_block(dataset: Path, env: Dict[str, str], bodies: List[bytes], streams) -> Block:
    """Start a daemon, send it the three phases, read ``/stats``, stop it.

    Speed probes (see :mod:`timing`) run in this process while the daemon
    is idle: before each phase, before every back-to-back request, and
    throughout the open loop's waits.  Probing instead of sleeping keeps
    the client's CPU awake: woken from sleep on a contended host, the
    client sent late by a margin that varied from run to run, and the
    spread of the open-loop median fell from 0.14 to 0.05 without it.
    """
    warmup, nominal, capacity = streams
    daemon, ready_s, ready_wall_s = timed_start(lambda: Daemon(dataset, env))
    probes: List[int] = []
    probe_at: List[int] = []

    def probe(count: int = 1) -> None:
        probes.extend(probe_ns() for _ in range(count))

    def wait(seconds: float) -> None:
        until = time.perf_counter() + seconds
        while time.perf_counter() + PROBE_MARGIN_S < until:
            probe()
        while time.perf_counter() < until:
            pass

    def send(idx: int) -> Response:
        probe_at.append(len(probes) - 1)
        return request(daemon.port, "POST", "/query", bodies[idx])

    try:
        probe(PROBE_HALF_WINDOW)
        warm = closed_loop(warmup, send)
        probe(PROBE_HALF_WINDOW)
        sent = open_loop(nominal, NOMINAL_QPS, send, sleep=wait)
        probe(PROBE_HALF_WINDOW)
        done = closed_loop(capacity, send, pause=probe)
        stats = get_json(daemon.port, "/stats")
        rss_kb = peak_rss_kb(daemon.process.pid)
    finally:
        daemon.stop()
    # Bodies are parsed only now, so the client spends no time on them
    # while it measures.
    timings = [("warmup", warmup, warm), ("nominal", nominal, sent), ("capacity", capacity, done)]
    sends = [
        (phase, query, due, sent_at, done_at, status, _parse(body))
        for phase, queries, results in timings
        for query, (due, sent_at, done_at, (status, body)) in zip(queries, results)
    ]
    records = [
        Record(*fields, speed) for fields, speed in zip(sends, speed_factors(probes, probe_at))
    ]
    return Block(ready_s, ready_wall_s, records, stats, rss_kb)


def run_serve(rows, pool, dataset: Path, env: Dict[str, str], seed: int, seconds: float, trace: bool):
    """One serving run; returns metrics, counts, violations (and spans)."""
    bodies = [
        json.dumps({"x": item.x, "y": item.y, "keywords": list(item.words)}).encode()
        for item in pool
    ]
    streams = request_streams(len(pool), seed, seconds)
    blocks = [run_block(dataset, env, bodies, streams) for _ in range(BLOCKS)]
    return analyze(blocks, rows, pool, trace)


def _parse(body: bytes) -> Optional[dict]:
    try:
        return json.loads(body)
    except ValueError:
        return None


def check_block(block: Block, rows, pool) -> Tuple[List[str], List[bool], bool]:
    """Gate one block's answers and ``/stats``; flag its cache hits.

    Returns the violations, a hit flag per record, and whether ``/stats``
    reconciled with the client's tally.
    """
    violations: List[str] = []
    tally: Dict[str, int] = {}
    seen: Dict[int, set] = {}
    hit = [False] * len(block.records)
    # Hit detection needs completion order: "an earlier response".
    for n, record in sorted(enumerate(block.records), key=lambda pair: pair[1].done):
        payload = record.payload
        if payload is not None and "outcome" in payload:
            tally[payload["outcome"]] = tally.get(payload["outcome"], 0) + 1
        if record.status != 200 or payload is None:
            continue
        oids = [obj["oid"] for obj in payload["objects"]]
        problem = check_answer(rows, pool[record.query], payload["cost"], oids)
        if problem is None and any(
            (obj["x"], obj["y"]) != (rows[obj["oid"]].x, rows[obj["oid"]].y)
            for obj in payload["objects"]
        ):
            problem = "object coordinates differ from the dataset"
        if problem is not None:
            violations.append("request %d (query %d): %s" % (n, record.query, problem))
        elapsed = payload["provenance"]["elapsed_ms"]
        hit[n] = elapsed in seen.setdefault(record.query, set())
        seen[record.query].add(elapsed)

    reconciled = False
    if block.stats is None:
        violations.append("/stats did not answer")
    else:
        server = {k: v for k, v in block.stats["by_outcome"].items() if v}
        received = sum(1 for r in block.records if r.status != 0)
        reconciled = server == tally and block.stats["total"] == received
        if not reconciled:
            violations.append(
                "/stats by_outcome %r does not reconcile with the client tally %r"
                % (server, tally)
            )
    return violations, hit, reconciled


def median_over_blocks(blocks: List[Block], phase: str, span: Callable[[Record], float]):
    """Per request of ``phase``, its median ``span`` over the blocks, in
    reference ms.

    A request that failed in any block counts as infinitely slow.
    """
    columns = zip(*([r for r in b.records if r.phase == phase] for b in blocks))
    return [
        statistics.median(span(r) * r.speed for r in column)
        if all(r.status == 200 for r in column)
        else float("inf")
        for column in columns
    ]


def analyze(blocks: List[Block], rows, pool, trace: bool) -> Dict[str, object]:
    """Metrics, per-layer numbers and gate violations of one serving run."""
    violations: List[str] = []
    hits: List[List[bool]] = []
    reconciled = True
    for number, block in enumerate(blocks):
        found, hit, block_reconciled = check_block(block, rows, pool)
        violations += ["block %d: %s" % (number, v) for v in found]
        hits.append(hit)
        reconciled = reconciled and block_reconciled

    latency = median_over_blocks(blocks, "nominal", lambda r: r.latency_ms)
    service = median_over_blocks(blocks, "capacity", lambda r: (r.done - r.sent) * 1000.0)
    answered = [ms for ms in service if ms != float("inf")]
    ready = [block.ready_s for block in blocks]

    # Per-layer numbers pool the measured requests of every block.
    measured = [
        (r, hit[n]) for block, hit in zip(blocks, hits)
        for n, r in enumerate(block.records) if r.phase != "warmup"
    ]
    ok = [(r, h) for r, h in measured if r.status == 200]
    misses = [r.payload for r, h in ok if not h]
    nominal = [(r, h) for r, h in ok if r.phase == "nominal"]

    def p(values, pct):
        values = list(values)
        return percentile(values, pct) if values else 0.0

    def cache_counts(layer: str) -> Tuple[int, int, int]:
        totals = [0, 0, 0]
        for block in blocks:
            counts = (block.stats or {}).get("cache", {}).get(layer, {})
            for i, key in enumerate(("hits", "misses", "evictions")):
                totals[i] += counts.get(key, 0)
        return totals[0], totals[1], totals[2]

    result_hits, result_misses, result_evictions = cache_counts("result")
    index_hits, index_misses, _ = cache_counts("index")
    answered_by = [payload["provenance"]["answered_by"] for payload in misses]
    per_layer = {
        "setup.ready_s": statistics.median(block.ready_wall_s for block in blocks),
        # The chain's time on result-cache misses: its solver calls.
        "algorithms.solve_ms_p50": p((m["provenance"]["elapsed_ms"] for m in misses), 50),
        "algorithms.solve_ms_p95": p((m["provenance"]["elapsed_ms"] for m in misses), 95),
        "exec.attempts_per_query": (
            statistics.fmean(m["provenance"]["attempts"] for m in misses) if misses else 0.0
        ),
        "exec.stage_failures": sum(len(m["provenance"]["failures"]) for m in misses),
        "cache.result_hit_rate": result_hits / max(result_hits + result_misses, 1),
        "cache.result_evictions": result_evictions,
        "cache.index_hit_rate": index_hits / max(index_hits + index_misses, 1),
        "serve.hit_latency_p50_ms": p((r.latency_ms for r, h in nominal if h), 50),
        "serve.miss_latency_p50_ms": p((r.latency_ms for r, h in nominal if not h), 50),
        "serve.server_ms_p50": p((r.payload["elapsed_ms"] for r, _ in ok), 50),
        "serve.server_ms_p99": p((r.payload["elapsed_ms"] for r, _ in ok), 99),
        "serve.transport_ms_p50": p(
            ((r.done - r.sent) * 1000.0 - r.payload["elapsed_ms"] for r, _ in ok), 50
        ),
        "serve.overhead_ms_p50": p(
            (m["elapsed_ms"] - m["provenance"]["elapsed_ms"] for m in misses), 50
        ),
        "serve.generator_late_p99_ms": p(
            ((r.sent - r.due) * 1000.0 for r, _ in measured if r.phase == "nominal"), 99
        ),
        "serve.shed": sum(1 for b in blocks for r in b.records if r.status == 429),
        "serve.stats_reconciled": 1 if reconciled else 0,
        "serve.degraded_rate": (
            sum(1 for r, _ in ok if r.payload["outcome"] == "degraded") / len(measured)
        ),
        # Spans are built from the records after the run: tracing adds
        # no work to the measured requests.
        "trace.overhead_pct": 0.0,
    }
    for stage in CHAIN_STAGES:
        per_layer["exec.answered_by." + stage] = (
            answered_by.count(stage) / len(answered_by) if answered_by else 0.0
        )
    out: Dict[str, object] = {
        "attempted": len(measured),
        "failed": len(measured) - len(ok),
        "violations": violations,
        "end_to_end": {
            "latency_p50_ms": (p(latency, 50), len(latency)),
            "latency_p95_ms": (p(latency, 95), len(latency)),
            "throughput_qps": (len(answered) / (sum(answered) / 1e3), len(answered)),
            "setup_s": (statistics.median(ready), len(ready)),
            "peak_rss_mb": (max(block.rss_kb for block in blocks) / 1024.0, len(blocks)),
        },
        "per_layer": per_layer,
    }
    if trace:
        out["spans"] = serve_spans(blocks, hits)
    return out


def serve_spans(blocks: List[Block], hits: List[List[bool]]) -> List[Dict[str, object]]:
    """``bench.query`` (from the due time) → ``serve.request`` (from the send)."""
    spans = Spans()
    request_id = 0
    for number, (block, hit) in enumerate(zip(blocks, hits)):
        for n, r in enumerate(block.records):
            if r.phase == "warmup":
                continue
            parent = spans.add(
                "bench.query",
                int(r.due * 1e9),
                int(r.done * 1e9),
                request_id,
                phase=r.phase,
                block=number,
            )
            attrs: Dict[str, object] = {"status": r.status, "query": r.query}
            if r.status == 200:
                attrs.update(
                    server_ms=r.payload["elapsed_ms"],
                    exec_ms=r.payload["provenance"]["elapsed_ms"],
                    answered_by=r.payload["provenance"]["answered_by"],
                    cache_hit=hit[n],
                )
            spans.add(
                "serve.request", int(r.sent * 1e9), int(r.done * 1e9), request_id, parent, **attrs
            )
            request_id += 1
    return spans.spans
