"""The interprocedural dataflow pass: rules R10-R11 and their plumbing.

Four layers of guarantees:

1. seeded fixtures prove each dataflow rule actually fires, with the
   right rule id on the right line, and that ``# repro: noqa(RXX)``
   composes with interprocedural findings;
2. correctly written twins in the same fixtures stay clean, guarding
   against the rules over-firing;
3. the output contract holds: violations are deterministically ordered,
   and the JSON payload (including ``function``/``callchain``) matches a
   golden file byte-for-byte;
4. the summary cache is a pure accelerator: warm runs reproduce cold
   results exactly, and corrupt cache files degrade to a cold start.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis import AnalysisConfig, run_analysis
from repro.analysis.dataflow import SUMMARY_VERSION
from repro.analysis.engine import SummaryCache, load_module
from repro.analysis.report import render_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
FIXTURES = ROOT / "tests" / "fixtures"
R10_FIXTURE = FIXTURES / "dataflow_r10.py"
R11_FIXTURE = FIXTURES / "dataflow_r11.py"
GOLDEN = FIXTURES / "dataflow_r10.golden.json"

#: Every rule on every path — the dataflow fixtures live outside the
#: default ``repro/`` include scoping.
PERMISSIVE = AnalysisConfig(include={}, exclude={})


def rule_hits(report, rule):
    """(line, violation) pairs for one rule id."""
    return [(v.line, v) for v in report.violations if v.rule == rule]


class TestR10EscapeAnalysis:
    @pytest.fixture(scope="class")
    def report(self):
        return run_analysis([R10_FIXTURE], PERMISSIVE)

    def test_escape_through_helper_is_flagged(self, report):
        hits = rule_hits(report, "R10")
        assert [line for line, _ in hits] == [29]

    def test_finding_carries_function_and_callchain(self, report):
        (_, violation), = rule_hits(report, "R10")
        assert violation.function.endswith("LeakySolver._warm")
        assert len(violation.chain) == 2
        assert violation.chain[0].endswith("LeakySolver.solve")
        assert violation.chain[-1].endswith("LeakySolver._warm")

    def test_noqa_twin_is_suppressed(self, report):
        # QuietLeakySolver._warm has the same defect under
        # ``# repro: noqa(R7, R10)`` — both findings fold away.
        assert report.suppressed == 2
        assert all(line == 29 for line, _ in rule_hits(report, "R10"))


class TestR11CheckpointReachability:
    @pytest.fixture(scope="class")
    def report(self):
        return run_analysis([R11_FIXTURE], PERMISSIVE)

    def test_stream_loop_and_while_loop_flagged(self, report):
        assert [line for line, _ in rule_hits(report, "R11")] == [30, 35]

    def test_noqa_twin_is_suppressed(self, report):
        assert report.suppressed == 1

    def test_checkpointed_loop_stays_clean(self, report):
        # polite_drain checkpoints on every path; R11 must not over-fire.
        flagged = {v.function for _, v in rule_hits(report, "R11")}
        assert not any(fn.endswith("polite_drain") for fn in flagged if fn)


class TestDeterministicOutput:
    def test_violations_sorted_by_path_line_rule(self):
        report = run_analysis([R11_FIXTURE, R10_FIXTURE], PERMISSIVE)
        keys = [(v.path, v.line, v.rule) for v in report.violations]
        assert keys == sorted(keys)

    def test_input_order_does_not_change_output(self):
        forward = run_analysis([R10_FIXTURE, R11_FIXTURE], PERMISSIVE)
        scrambled = run_analysis([R11_FIXTURE, R10_FIXTURE], PERMISSIVE)
        assert [v.format() for v in forward.violations] == [
            v.format() for v in scrambled.violations
        ]

    def test_repeat_runs_are_identical(self):
        first = run_analysis([R11_FIXTURE], PERMISSIVE)
        second = run_analysis([R11_FIXTURE], PERMISSIVE)
        assert [v.format() for v in first.violations] == [
            v.format() for v in second.violations
        ]


class TestJsonGolden:
    def test_payload_matches_golden_file(self, monkeypatch):
        # compute_relpath falls back to cwd-relative paths for files
        # outside a ``repro`` package, so pin cwd to the repo root.
        monkeypatch.chdir(ROOT)
        report = run_analysis([R10_FIXTURE], PERMISSIVE)
        assert render_json(report) + "\n" == GOLDEN.read_text(encoding="utf-8")

    def test_schema_fields(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        payload = json.loads(
            render_json(run_analysis([R10_FIXTURE], PERMISSIVE))
        )
        assert set(payload) == {
            "ok", "files_checked", "suppressed", "cache", "violations"
        }
        assert set(payload["cache"]) == {"hits", "misses"}
        by_rule = {v["rule"]: v for v in payload["violations"]}
        # Interprocedural findings carry function + callchain ...
        assert {"rule", "path", "line", "message", "function", "callchain"} \
            <= set(by_rule["R10"])
        # ... and purely syntactic findings omit both, SARIF-style.
        assert "function" not in by_rule["R7"]
        assert "callchain" not in by_rule["R7"]


class TestSummaryCache:
    FIXTURE_SET = (R10_FIXTURE, R11_FIXTURE)

    def _config(self, tmp_path):
        return AnalysisConfig(
            include={}, exclude={}, cache_path=str(tmp_path / "cache.json")
        )

    def test_cold_then_warm(self, tmp_path):
        config = self._config(tmp_path)
        cold = run_analysis(list(self.FIXTURE_SET), config)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(self.FIXTURE_SET)
        warm = run_analysis(list(self.FIXTURE_SET), config)
        assert warm.cache_hits == len(self.FIXTURE_SET)
        assert warm.cache_misses == 0

    def test_warm_run_reproduces_cold_results(self, tmp_path):
        config = self._config(tmp_path)
        cold = run_analysis(list(self.FIXTURE_SET), config)
        warm = run_analysis(list(self.FIXTURE_SET), config)
        assert [v.format() for v in cold.violations] == [
            v.format() for v in warm.violations
        ]
        assert warm.suppressed == cold.suppressed

    def test_content_change_invalidates_entry(self, tmp_path):
        source = R11_FIXTURE.read_text(encoding="utf-8")
        target = tmp_path / "dataflow_r11.py"
        target.write_text(source, encoding="utf-8")
        config = AnalysisConfig(
            include={}, exclude={}, cache_path=str(tmp_path / "cache.json")
        )
        run_analysis([target], config)
        target.write_text(source + "\n\nextra = 1\n", encoding="utf-8")
        changed = run_analysis([target], config)
        assert changed.cache_misses == 1

    def test_corrupt_cache_degrades_to_cold(self, tmp_path):
        config = self._config(tmp_path)
        run_analysis(list(self.FIXTURE_SET), config)
        (tmp_path / "cache.json").write_text("{not json", encoding="utf-8")
        report = run_analysis(list(self.FIXTURE_SET), config)
        assert report.cache_misses == len(self.FIXTURE_SET)
        assert rule_hits(report, "R10")

    def test_cache_key_pins_summary_version(self):
        module = load_module(R10_FIXTURE)
        assert SummaryCache._key(module).endswith(":v%d" % SUMMARY_VERSION)


class TestRepositoryDataflowClean:
    def test_src_tree_has_no_dataflow_violations(self, src_analysis_report):
        dataflow = [
            v for v in src_analysis_report.violations if v.rule in ("R10", "R11")
        ]
        assert dataflow == [], "\n".join(v.format() for v in dataflow)

    def test_no_dataflow_flag_equivalent_skips_rules(self):
        import dataclasses

        config = dataclasses.replace(PERMISSIVE, dataflow=False)
        report = run_analysis([R10_FIXTURE], config)
        assert rule_hits(report, "R10") == []
        # The syntactic sibling R7 still fires on the same line.
        assert [line for line, _ in rule_hits(report, "R7")] == [29]
