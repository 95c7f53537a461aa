"""Latency aggregation for the macro harness: exact percentiles.

Percentiles of percentiles are statistically meaningless, so the
accumulator keeps the **raw samples** and defers every statistic to
summary time (the hypothesis suite ``tests/test_bench_macro_properties.py``
checks the summaries against the samples).  Sample counts in this
harness are thousands at most, so raw retention costs nothing and buys
exactness.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.errors import InvalidParameterError
from repro.utils.stats import percentile

__all__ = ["PERCENTILES", "LatencyAccumulator", "throughput_qps"]

#: The percentile points every workload summary reports.
PERCENTILES = (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99))


class LatencyAccumulator:
    """Raw per-query latencies (milliseconds) with exact summaries."""

    __slots__ = ("_samples",)

    def __init__(self, samples: Iterable[float] = ()):
        self._samples: List[float] = []
        self.extend(samples)

    def add(self, latency_ms: float) -> None:
        if latency_ms < 0:
            raise InvalidParameterError("latencies cannot be negative")
        self._samples.append(float(latency_ms))

    def extend(self, latencies_ms: Iterable[float]) -> None:
        for value in latencies_ms:
            self.add(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def summary(self) -> Dict[str, float]:
        """Count / mean / min / percentiles / max, all from raw samples."""
        if not self._samples:
            raise InvalidParameterError("summary() of an empty accumulator")
        ordered = sorted(self._samples)
        # Clamped: ``sum/n`` can round past the extremes ([0.1] * 3).
        mean = min(max(sum(ordered) / len(ordered), ordered[0]), ordered[-1])
        out: Dict[str, float] = {
            "count": len(ordered),
            "mean_ms": mean,
            "min_ms": ordered[0],
        }
        for label, fraction in PERCENTILES:
            out[label] = percentile(ordered, fraction)
        out["max_ms"] = ordered[-1]
        return out

    def __repr__(self) -> str:
        return "LatencyAccumulator(n=%d)" % len(self._samples)


def throughput_qps(completed: int, wall_s: float) -> float:
    """Completed queries per second of wall time (0 for a zero wall)."""
    if completed < 0 or wall_s < 0:
        raise InvalidParameterError("throughput inputs cannot be negative")
    if wall_s == 0.0:
        return 0.0
    return completed / wall_s
