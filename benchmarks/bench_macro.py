"""Meta-benchmark: the macro harness itself, at smoke scale.

Times one end-to-end `run_profile("smoke")` (dataset materialization,
index builds, every workload cell) against a warm dataset cache, plus
the diff gate over the produced summary — the two paths `make
bench-check` takes, so a slowdown here is a slowdown of the perf gate
itself.  The report artifact records the per-workload throughput the
run measured (docs/BENCHMARKS.md).
"""

from __future__ import annotations

import pytest

from conftest import write_report
from repro.bench.macro import diff_summaries, run_profile
from repro.bench.macro.workloads import profile_by_name


@pytest.fixture(scope="module")
def smoke_summary(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("macro_cache")
    summary = run_profile("smoke", cache_dir=cache_dir)
    return cache_dir, summary


def test_macro_smoke_profile(benchmark, smoke_summary):
    cache_dir, _ = smoke_summary  # warm: datasets already materialized
    summary = benchmark.pedantic(
        run_profile, args=("smoke",), kwargs={"cache_dir": cache_dir}, rounds=2
    )
    assert summary["totals"]["workloads"] == len(profile_by_name("smoke").workloads)
    lines = [
        "%-40s %10.1f qps" % (w["id"], w["throughput_qps"])
        for w in summary["workloads"]
    ]
    write_report("bench_macro", "\n".join(lines))


def test_macro_diff_gate(benchmark, smoke_summary):
    _, summary = smoke_summary
    report = benchmark.pedantic(
        diff_summaries, args=(summary, summary), rounds=5
    )
    assert report.ok
