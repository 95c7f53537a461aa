"""End-to-end acceptance for the macro harness (ISSUE 8).

The session-scoped ``macro_smoke_run`` fixture executes
``coskq-bench run --profile smoke`` through the real CLI; these tests
assert the summary is schema-valid, the pinned workload mix actually
ran (warm caches hit, chains stamp provenance, the parallel batch
reports throughput), and the diff gate behaves: a self-compared run
exits 0, a doctored-slower run exits nonzero.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.macro import PROFILES, runner, validate_summary
from repro.bench.macro.datasets import DatasetSpec
from repro.bench.macro.workloads import Profile, WorkloadSpec
from repro.index import keyword_trees
from repro.model import dataset as dataset_module
from repro.tools.macro_cli import main as macro_main


@pytest.fixture()
def summary(macro_smoke_run):
    return macro_smoke_run[1]


def workload(summary, workload_id):
    matches = [w for w in summary["workloads"] if w["id"] == workload_id]
    assert matches, "workload %r missing from summary" % workload_id
    return matches[0]


class TestSmokeRun:
    def test_schema_valid(self, summary):
        assert validate_summary(summary) == []

    def test_pinned_workload_mix_ran(self, summary):
        ran = {w["id"] for w in summary["workloads"]}
        expected = {w.id for w in PROFILES["smoke"].workloads}
        assert ran == expected

    def test_datasets_content_addressed(self, summary):
        for entry in summary["datasets"]:
            assert len(entry["content_hash"]) == 64
            int(entry["content_hash"], 16)  # hex digest
            assert entry["cache"] == "miss"  # fresh cache dir

    def test_cold_workloads_capture_latency(self, summary):
        cold = workload(summary, "maxsum-appro/cold")
        assert cold["latency_ms"] is not None
        assert cold["latency_ms"]["count"] == cold["queries"]
        assert cold["failures"] == 0
        assert cold["throughput_qps"] > 0

    def test_warm_workload_hits_caches(self, summary):
        warm = workload(summary, "maxsum-appro/warm")
        stats = warm["cache_stats"]
        assert stats is not None
        # The timed pass re-asks every primed query: all result hits.
        assert stats["result_hits"] >= warm["queries"]
        # Warm answers are cache lookups; they must not be slower than
        # the cold medians by construction.
        cold = workload(summary, "maxsum-appro/cold")
        assert warm["latency_ms"]["p50_ms"] <= cold["latency_ms"]["p50_ms"]

    def test_chain_workload_stamps_provenance(self, summary):
        chain = workload(summary, "chain-exact-appro/cold")
        assert chain["kind"] == "chain"
        assert sum(chain["provenance"].values()) >= chain["queries"]
        answered = set(chain["provenance"]) - {"degraded"}
        assert answered <= {"maxsum-exact", "maxsum-appro"}

    def test_batch_workload_reports_throughput_and_merged_stats(self, summary):
        batch = workload(summary, "batch-parallel/cold")
        assert batch["latency_ms"] is None  # batch cells report throughput
        assert batch["throughput_qps"] > 0
        # A cold cell: the workers run without a result cache.
        assert batch["cache_stats"] is None


class TestTimedPasses:
    def test_no_index_is_built_inside_a_timed_pass(self, tmp_path, monkeypatch):
        """Index builds are set-up: every keyword grouping (the dataset's
        postings, each shard tree's members) is built before timing."""
        timing = []
        built_while_timing = []
        build = dataset_module.group_by_keyword
        timed_pass = runner._timed_pass

        def counted_build(*args, **kwargs):
            built_while_timing.append(bool(timing))
            return build(*args, **kwargs)

        def flagged_pass(*args, **kwargs):
            timing.append(True)
            try:
                return timed_pass(*args, **kwargs)
            finally:
                timing.pop()

        monkeypatch.setattr(dataset_module, "group_by_keyword", counted_build)
        monkeypatch.setattr(keyword_trees, "group_by_keyword", counted_build)
        monkeypatch.setattr(runner, "_timed_pass", flagged_pass)
        profile = Profile(
            name="timed-passes",
            description="a sharded cell first, then a solver cell",
            datasets=(DatasetSpec(name="tiny", kind="uniform", size=200, seed=7),),
            workloads=(
                WorkloadSpec(
                    id="sharded",
                    dataset="tiny",
                    kind="sharded",
                    num_keywords=3,
                    queries=3,
                    shards=4,
                ),
                WorkloadSpec(id="solver", dataset="tiny", num_keywords=3, queries=3),
            ),
            seed=7,
        )
        runner.run_profile(profile, cache_dir=tmp_path)
        assert built_while_timing and not any(built_while_timing)


class TestDiffGate:
    def test_self_diff_exits_zero(self, macro_smoke_run, capsys):
        path, _ = macro_smoke_run
        assert bench_main(["diff", str(path), str(path)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_doctored_slower_run_exits_nonzero(self, macro_smoke_run, tmp_path, capsys):
        path, summary = macro_smoke_run
        doctored = json.loads(json.dumps(summary))
        for entry in doctored["workloads"]:
            if entry["latency_ms"] is not None:
                for key in ("mean_ms", "min_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
                    entry["latency_ms"][key] = entry["latency_ms"][key] * 10 + 5.0
            entry["throughput_qps"] /= 10.0
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(doctored), encoding="utf-8")
        assert bench_main(["diff", str(path), str(slow)]) == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestCli:
    def test_profiles_subcommand_via_coskq_bench(self, capsys):
        assert bench_main(["profiles"]) == 0
        out = capsys.readouterr().out
        for name in PROFILES:
            assert name in out

    def test_experiment_ids_still_dispatch(self, capsys):
        # The macro subcommands must not shadow the paper-figure CLI.
        assert bench_main(["list"]) == 0
        assert "maxsum_hotel" in capsys.readouterr().out

    def test_unreadable_summary_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert macro_main(["diff", str(missing), str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_summary_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "coskq-bench-macro/1"}', encoding="utf-8")
        assert macro_main(["diff", str(bad), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_profile_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            macro_main(["run", "--profile", "bogus"])
        assert excinfo.value.code == 2
