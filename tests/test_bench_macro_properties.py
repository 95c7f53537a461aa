"""Hypothesis properties of the macro harness's aggregation math.

The regression gate is only as trustworthy as the percentiles feeding
it, so the invariants are pinned as properties rather than examples:
ordering (min ≤ p50 ≤ p95 ≤ p99 ≤ max), bounds (every statistic lies
within the sample range), and order independence — the summary does
not depend on the order the samples were recorded in.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.bench.macro.aggregate import LatencyAccumulator, throughput_qps
from repro.errors import InvalidParameterError

#: Latencies in milliseconds: non-negative, finite, spanning µs to minutes.
latencies = st.lists(
    st.floats(min_value=0.0, max_value=60_000.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


@given(latencies)
def test_percentiles_are_monotone(samples):
    summary = LatencyAccumulator(samples).summary()
    assert (
        summary["min_ms"]
        <= summary["p50_ms"]
        <= summary["p95_ms"]
        <= summary["p99_ms"]
        <= summary["max_ms"]
    )


@given(latencies)
@example([0.1, 0.1, 0.1])
def test_statistics_lie_within_sample_bounds(samples):
    summary = LatencyAccumulator(samples).summary()
    lo, hi = min(samples), max(samples)
    for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
        assert lo <= summary[key] <= hi
    assert summary["min_ms"] == lo
    assert summary["max_ms"] == hi
    assert summary["count"] == len(samples)


@given(latencies, st.randoms(use_true_random=False))
def test_summary_is_order_independent(samples, rnd):
    shuffled = list(samples)
    rnd.shuffle(shuffled)
    assert (
        LatencyAccumulator(shuffled).summary()
        == LatencyAccumulator(samples).summary()
    )


@given(latencies)
def test_single_sample_collapses_every_statistic(samples):
    value = samples[0]
    summary = LatencyAccumulator([value]).summary()
    assert {
        summary["min_ms"],
        summary["p50_ms"],
        summary["p95_ms"],
        summary["p99_ms"],
        summary["max_ms"],
        summary["mean_ms"],
    } == {value}


def test_empty_accumulator_refuses_summary():
    with pytest.raises(InvalidParameterError):
        LatencyAccumulator().summary()


def test_negative_latency_refused():
    with pytest.raises(InvalidParameterError):
        LatencyAccumulator().add(-0.001)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=3_600.0, allow_nan=False),
)
def test_throughput_is_non_negative_and_scales(completed, wall_s):
    qps = throughput_qps(completed, wall_s)
    assert qps >= 0.0
    if wall_s == 0.0:
        assert qps == 0.0
    else:
        assert qps == pytest.approx(completed / wall_s)


def test_throughput_refuses_negative_inputs():
    with pytest.raises(InvalidParameterError):
        throughput_qps(-1, 1.0)
    with pytest.raises(InvalidParameterError):
        throughput_qps(1, -1.0)
