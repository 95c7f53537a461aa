"""Benchmark-owned measurement: a speed probe, a set-up calibration, an
index wrapper, a span log, peak memory.

:func:`probe_ns` times a fixed piece of benchmark-owned Python, and
:func:`speed_factors` turns the probes taken between the program's calls
into the machine's speed around each call.  The benchmark shares its
machine with other tenants, which slowed everything in it, the probe and
the program alike, by up to 1.6x for seconds to minutes at a time.  A
latency times its speed factor is in *reference milliseconds*: what it
would have taken at the speed where the probe runs in
``PROBE_REF_NS``.  Sized on a 2-vCPU VM under such contention, this cut
the run-to-run spread of the closed-loop metrics from 0.12–0.34 of the
median to 0.03–0.08.  The probe runs between calls, never during one,
and is timed on its second of two back-to-back runs, so the program's
footprint in the caches does not reach it.

:func:`timed_start` gives a child's set-up in *reference seconds*: its
on-CPU time to ready, scaled by a benchmark-owned calibration job run in
a fresh interpreter on each side of it.  The raw set-up times of one
workload moved by up to half from one hour to the next, and the probe,
which runs in this process, often on the other CPU, and touches little
memory, tracked that badly: two busy-looping or page-touching processes
beside a ``hotel-20k`` set-up raised its probe-scaled time by 46% and
60%, and its calibration-scaled CPU time by 0% and 3%.

:class:`TimingIndex` wraps any ``SpatialTextIndex`` the way the
program's own ``CachingIndex`` does, and is installed with
``SearchContext.with_index``, so solver code is untouched.  It times
every call and — for the lazy ``nearest_relevant_iter`` — every
``next()``, and counts the rows each call hands back.  A span per
``next()`` would mean millions of spans, so the counts and busy time
are aggregated per method and taken once per query (:meth:`take`),
then attached to that query's solve span.

:class:`Spans` keeps spans in memory as plain dicts (name, start/end in
``perf_counter_ns``, parent, request id, attributes) and is written to
``trace.json`` when the run ends.

:func:`peak_rss_kb` reads a process's ``VmHWM``.  Unlike ``ru_maxrss``
it starts afresh at ``exec``, so a child never reports the memory of
the parent it was forked from.
"""

from __future__ import annotations

import math
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

__all__ = [
    "CALIBRATION_REF_S",
    "INDEX_METHODS",
    "PROBE_REF_NS",
    "Spans",
    "TimingIndex",
    "calibration_cpu_s",
    "cpu_seconds",
    "peak_rss_kb",
    "probe_ns",
    "speed_factors",
    "timed_start",
]

#: The probe's time at the reference speed: its median on an idle
#: 2-vCPU Intel Xeon VM under Python 3.11.
PROBE_REF_NS = 55_000

#: Probes on each side of a call whose median gives the speed around it.
PROBE_HALF_WINDOW = 4

#: The calibration job's on-CPU time at the reference speed, where the
#: probe runs in :data:`PROBE_REF_NS`.
CALIBRATION_REF_S = 0.085

#: A fixed set-up-like job, run as ``python -c``: interpreter start,
#: text generation, hashing, parsing into many small objects, a dict of
#: lists, a sort.  It then reports ready and idles, so that its on-CPU
#: time can be read, until its stdin closes.
CALIBRATION_JOB = r"""
import hashlib, random, sys
rng = random.Random(0)
words = ["w%d" % i for i in range(2000)]
lines = [
    "%r\t%r\t%s" % (rng.random(), rng.random(), " ".join(rng.sample(words, 3)))
    for _ in range(8000)
]
text = "\n".join(lines).encode()
hashlib.sha256(text).hexdigest()
rows, inverted = [], {}
for oid, line in enumerate(text.decode().split("\n")):
    x, y, keywords = line.split("\t")
    keywords = frozenset(keywords.split(" "))
    rows.append((float(x), float(y), keywords))
    for word in keywords:
        inverted.setdefault(word, []).append(oid)
rows.sort(key=lambda row: (row[0], row[1]))
print("ready", flush=True)
sys.stdin.readline()
"""

T = TypeVar("T")


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


_PROBE_POINTS = [_Point(math.sin(i) * 100.0, math.cos(i * 1.3) * 100.0) for i in range(400)]


def _probe_work() -> None:
    """Interpreter work like the program's: attributes, floats, a dict."""
    nearest: Dict[int, float] = {}
    for i, point in enumerate(_PROBE_POINTS):
        d = math.hypot(point.x - 1.0, point.y + 2.0)
        key = i & 31
        if d < nearest.get(key, math.inf):
            nearest[key] = d
    sorted(nearest.values())


def probe_ns(clock: Callable[[], int] = time.perf_counter_ns) -> int:
    """Time the probe's work, warm: the second of two back-to-back runs."""
    _probe_work()
    start = clock()
    _probe_work()
    return clock() - start


def speed_factors(samples: Sequence[int], at: Sequence[int]) -> List[float]:
    """``PROBE_REF_NS`` over the median probe around each index in ``at``.

    ``at[i]`` is the index in ``samples`` of the last probe taken before
    call ``i``; the median spans ``PROBE_HALF_WINDOW`` probes either side.
    """
    factors = []
    for index in at:
        window = samples[max(0, index - PROBE_HALF_WINDOW) : index + PROBE_HALF_WINDOW + 1]
        factors.append(PROBE_REF_NS / statistics.median(window))
    return factors


def cpu_seconds(pid: int) -> float:
    """On-CPU time of a live process so far, summed over its live threads
    (Linux ``/proc/<pid>/task/*/schedstat``, nanosecond resolution)."""
    total_ns = 0
    for stat in Path("/proc/%d/task" % pid).glob("*/schedstat"):
        try:
            total_ns += int(stat.read_text().split()[0])
        except FileNotFoundError:  # a thread that ended since the listing
            continue
    return total_ns / 1e9


def calibration_cpu_s() -> float:
    """On-CPU seconds of :data:`CALIBRATION_JOB` in a fresh interpreter."""
    child = subprocess.Popen(
        [sys.executable, "-c", CALIBRATION_JOB],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        if child.stdout.readline().strip() != "ready":
            raise RuntimeError("the calibration job failed (exit %s)" % child.wait())
        return cpu_seconds(child.pid)
    finally:
        child.stdin.close()
        child.stdout.close()
        child.wait()


def timed_start(start: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``start``, which launches a child and waits until it is ready;
    return its result, the child's set-up time in reference seconds, and
    the raw wall seconds ``start`` took.

    The set-up time is the child's on-CPU time from ``exec`` to ready,
    read while the child idles, so time it spent waiting for a CPU that
    another process held does not count.  It is scaled by
    ``CALIBRATION_REF_S`` over the mean on-CPU time of the calibration job
    run just before and just after, which slows with the machine the way
    a set-up does.  ``start()`` must return an object with the child's
    ``pid``.
    """
    before = calibration_cpu_s()
    started = time.perf_counter()
    result = start()
    wall_s = time.perf_counter() - started
    cpu_s = cpu_seconds(result.pid)
    after = calibration_cpu_s()
    return result, cpu_s * CALIBRATION_REF_S / ((before + after) / 2), wall_s


#: The protocol methods a solver can call, in report order.
INDEX_METHODS = (
    "nearest_relevant_iter",
    "keyword_nn",
    "nearest_neighbor_set",
    "relevant_in_circle",
    "relevant_in_region",
    "relevant_objects",
    "objects_in_circle",
)


class TimingIndex:
    """Time every call into an index; conforms to ``SpatialTextIndex``.

    Not thread-safe: one instance serves one single-threaded query loop.
    """

    def __init__(self, inner, clock: Callable[[], int] = time.perf_counter_ns):
        self.inner = inner
        self._clock = clock
        # method -> [calls, rows returned, busy ns]
        self._tally: Dict[str, List[int]] = {m: [0, 0, 0] for m in INDEX_METHODS}

    @classmethod
    def build(cls, dataset, max_entries: int = 16) -> "TimingIndex":
        raise TypeError("TimingIndex wraps a built index: TimingIndex(inner)")

    def __len__(self) -> int:
        return len(self.inner)

    def view(self, inner) -> "TimingIndex":
        """A wrapper around another index that adds to this one's tally."""
        sibling = TimingIndex(inner, self._clock)
        sibling._tally = self._tally
        return sibling

    def take(self) -> Dict[str, Dict[str, int]]:
        """The tally since the last ``take`` (methods that were called)."""
        taken = {}
        for method, tally in self._tally.items():
            if tally[0]:
                calls, items, busy = tally
                taken[method] = {"calls": calls, "items": items, "busy_ns": busy}
                tally[:] = [0, 0, 0]
        return taken

    def _timed(self, method: str, rows: Callable[[object], int], *args):
        clock = self._clock
        start = clock()
        result = getattr(self.inner, method)(*args)
        busy = clock() - start
        tally = self._tally[method]
        tally[0] += 1
        tally[1] += rows(result)
        tally[2] += busy
        return result

    def keyword_nn(self, point, keyword_id):
        return self._timed(
            "keyword_nn", lambda hit: 0 if hit is None else 1, point, keyword_id
        )

    def nearest_relevant_iter(self, point, keywords, within=None) -> Iterator:
        tally = self._tally["nearest_relevant_iter"]
        clock = self._clock
        start = clock()
        inner = iter(self.inner.nearest_relevant_iter(point, keywords, within))
        tally[0] += 1
        tally[2] += clock() - start
        return self._timed_iter(inner, tally)

    def _timed_iter(self, inner: Iterator, tally: List[int]) -> Iterator:
        clock = self._clock
        try:
            while True:
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    tally[2] += clock() - start
                    return
                tally[2] += clock() - start
                tally[1] += 1
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    def nearest_neighbor_set(self, query):
        return self._timed("nearest_neighbor_set", len, query)

    def relevant_in_circle(self, circle, keywords):
        return self._timed("relevant_in_circle", len, circle, keywords)

    def relevant_in_region(self, circles, keywords):
        return self._timed("relevant_in_region", len, circles, keywords)

    def relevant_objects(self, keywords):
        return self._timed("relevant_objects", len, keywords)

    def objects_in_circle(self, circle):
        return self._timed("objects_in_circle", len, circle)


class Spans:
    """An append-only in-memory span log, written out at exit."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        request_id: int,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """Record one finished span; returns its id (for children)."""
        span_id = len(self.spans)
        span: Dict[str, object] = {
            "id": span_id,
            "name": name,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "parent": parent,
            "request_id": request_id,
        }
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        return span_id


def peak_rss_kb(pid: Union[int, str] = "self") -> int:
    """Peak resident set of a live process, in KiB (Linux ``VmHWM``)."""
    status = Path("/proc/%s/status" % pid).read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
