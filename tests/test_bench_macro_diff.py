"""Unit coverage of the ``coskq-bench diff`` regression gate.

Runs are synthesized from a seeded fixture factory (no benchmarking in
here), so each case controls exactly how the candidate deviates from the
baseline: genuine slowdowns, wiggles inside the noise threshold, huge
relative changes under the absolute floor, deleted workloads, and
schema-version drift.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.macro.diffmode import DiffReport, diff_summaries
from repro.bench.macro.schema import (
    SCHEMA_VERSION,
    SchemaVersionMismatchError,
    SummarySchemaError,
    assert_valid,
)


def make_summary(
    seed: int = 0,
    *,
    latency_scale: float = 1.0,
    throughput_scale: float = 1.0,
    workload_ids=("alpha/cold", "beta/warm"),
    schema_version: str = SCHEMA_VERSION,
) -> dict:
    """A minimal schema-valid summary; deterministic in ``seed``."""
    rng = random.Random(seed)
    workloads = []
    for workload_id in workload_ids:
        base = rng.uniform(5.0, 20.0) * latency_scale
        spread = rng.uniform(1.0, 3.0) * latency_scale
        workloads.append(
            {
                "id": workload_id,
                "dataset": "fixture",
                "kind": "solver",
                "solver": "maxsum-appro",
                "cache": "warm" if workload_id.endswith("warm") else "cold",
                "queries": 200,
                "num_keywords": 6,
                "shards": 0,
                "failures": 0,
                "wall_s": 200 * base / 1_000.0,
                "throughput_qps": (1_000.0 / base) * throughput_scale,
                "latency_ms": {
                    "count": 200,
                    "mean_ms": base + spread / 2,
                    "min_ms": base,
                    "p50_ms": base + spread,
                    "p95_ms": base + 2 * spread,
                    "p99_ms": base + 3 * spread,
                    "max_ms": base + 4 * spread,
                },
                "provenance": {"maxsum-appro": 10},
                "cache_stats": None,
            }
        )
    summary = {
        "schema_version": schema_version,
        "profile": "fixture",
        "seed": seed,
        "environment": {"python": "3.x", "platform": "fixture", "cpu_count": 2},
        "datasets": [
            {
                "name": "fixture",
                "kind": "uniform",
                "objects": 1_000,
                "content_hash": "f" * 64,
                "cache": "miss",
                "generate_s": 0.1,
                "index_build_s": 0.1,
            }
        ],
        "workloads": workloads,
        "totals": {
            "wall_s": 1.0,
            "queries": 200 * len(workloads),
            "workloads": len(workloads),
        },
    }
    if schema_version == SCHEMA_VERSION:
        assert_valid(summary)
    return summary


class TestVerdicts:
    def test_identical_runs_pass(self):
        report = diff_summaries(make_summary(1), make_summary(1))
        assert isinstance(report, DiffReport)
        assert report.ok and report.exit_code == 0
        assert report.regressions == ()

    def test_genuine_slowdown_is_flagged(self):
        report = diff_summaries(
            make_summary(1), make_summary(1, latency_scale=2.0, throughput_scale=0.5)
        )
        assert not report.ok and report.exit_code == 1
        flagged_metrics = {entry.metric for entry in report.regressions}
        assert {"p50_ms", "p95_ms", "p99_ms", "throughput_qps"} <= flagged_metrics
        assert "REGRESSION" in report.format()

    def test_speedup_is_never_a_regression(self):
        report = diff_summaries(
            make_summary(1), make_summary(1, latency_scale=0.5, throughput_scale=2.0)
        )
        assert report.ok

    def test_wiggle_within_noise_threshold_passes(self):
        report = diff_summaries(
            make_summary(1),
            make_summary(1, latency_scale=1.10, throughput_scale=0.95),
        )
        assert report.ok, [e.describe() for e in report.regressions]

    def test_threshold_is_configurable(self):
        baseline = make_summary(1)
        candidate = make_summary(1, latency_scale=1.10)
        assert diff_summaries(baseline, candidate).ok
        strict = diff_summaries(baseline, candidate, rel_threshold=0.05, min_delta_ms=0.0)
        assert not strict.ok

    def test_huge_relative_change_below_absolute_floor_passes(self):
        baseline = make_summary(2, latency_scale=0.001)  # ~5-20 µs cells
        candidate = make_summary(2, latency_scale=0.005)  # 5x, but micro
        report = diff_summaries(baseline, candidate)
        assert report.ok, [e.describe() for e in report.regressions]

    def test_small_sample_tail_percentiles_never_gate(self):
        # With 8 samples, nearest-rank p95/p99 are the sample max — an
        # extreme-value statistic one GC pause flips.  They are reported
        # informationally; only p50 (and throughput) gate at that size.
        baseline = make_summary(8)
        candidate = make_summary(8, latency_scale=3.0)
        for doc in (baseline, candidate):
            for workload in doc["workloads"]:
                workload["queries"] = 8
                workload["latency_ms"]["count"] = 8
            doc["totals"]["queries"] = 8 * len(doc["workloads"])
        report = diff_summaries(baseline, candidate)
        flagged = {e.metric for e in report.regressions}
        assert "p50_ms" in flagged
        assert "p95_ms" not in flagged and "p99_ms" not in flagged
        assert any("cannot resolve p99_ms" in e.note for e in report.entries)

    def test_micro_scale_throughput_wiggle_passes(self):
        # A warm-cache cell at ~2e5 qps halves its throughput — a huge
        # absolute qps delta, but only microseconds per query.  The
        # implied per-query slowdown is below the latency floor, so the
        # gate must not cry wolf (this exact swing shows up between
        # back-to-back smoke runs on one machine).
        baseline = make_summary(7, latency_scale=0.001)
        candidate = make_summary(7, latency_scale=0.001, throughput_scale=0.5)
        report = diff_summaries(baseline, candidate)
        assert report.ok, [e.describe() for e in report.regressions]


class TestWorkloadMatching:
    def test_missing_workload_is_a_regression(self):
        baseline = make_summary(3, workload_ids=("alpha/cold", "beta/warm"))
        candidate = make_summary(3, workload_ids=("alpha/cold",))
        report = diff_summaries(baseline, candidate)
        assert not report.ok
        missing = [e for e in report.regressions if e.metric == "presence"]
        assert [e.workload for e in missing] == ["beta/warm"]
        assert "missing from candidate" in missing[0].note

    def test_new_workload_is_informational(self):
        baseline = make_summary(3, workload_ids=("alpha/cold",))
        candidate = make_summary(3, workload_ids=("alpha/cold", "gamma/cold"))
        report = diff_summaries(baseline, candidate)
        assert report.ok
        new = [e for e in report.entries if e.metric == "presence"]
        assert [e.workload for e in new] == ["gamma/cold"]

    def test_latency_present_in_only_one_run(self):
        baseline = make_summary(4, workload_ids=("alpha/cold",))
        candidate = make_summary(4, workload_ids=("alpha/cold",))
        candidate["workloads"][0]["latency_ms"] = None
        report = diff_summaries(baseline, candidate)
        dropped = [e for e in report.entries if e.metric == "latency_ms"]
        assert len(dropped) == 1 and dropped[0].regression


class TestSchemaGuards:
    def test_version_mismatch_refuses_to_compare(self):
        baseline = make_summary(5)
        candidate = make_summary(5, schema_version="coskq-bench-macro/999")
        with pytest.raises(SchemaVersionMismatchError) as excinfo:
            diff_summaries(baseline, candidate)
        assert "coskq-bench-macro/999" in str(excinfo.value)

    def test_version_mismatch_beats_generic_validation(self):
        # Even a thoroughly broken candidate reports the version drift
        # first — the actionable error, not a wall of missing keys.
        baseline = make_summary(5)
        with pytest.raises(SchemaVersionMismatchError):
            diff_summaries(baseline, {"schema_version": "coskq-bench-macro/999"})

    def test_invalid_baseline_raises(self):
        broken = make_summary(6)
        del broken["workloads"][0]["latency_ms"]
        with pytest.raises(SummarySchemaError):
            diff_summaries(broken, make_summary(6))
