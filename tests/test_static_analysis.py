"""The static-analysis pass, enforced as a tier-1 test.

Three layers of guarantees:

1. the full rule set over ``src/repro`` is clean — any regression of
   R1–R5 in the library fails the suite;
2. a fixture module that deliberately violates every rule is reported
   with the right rule ids on the right lines;
3. the machinery itself (noqa suppression, strict mode, config scoping,
   JSON/CLI plumbing) behaves as documented.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.analysis import AnalysisConfig, find_pyproject, run_analysis
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import compute_relpath
from repro.analysis.rules import RULE_SUMMARIES

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
FIXTURE = ROOT / "tests" / "fixtures" / "analysis_violations.py"

#: ``# expect: R1, R1`` markers inside the fixture.
_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9, ]+)")

#: Permissive config for the fixture: every rule runs on every path.
PERMISSIVE = AnalysisConfig(include={}, exclude={})


def fixture_expectations() -> dict:
    """line → sorted list of expected rule ids, parsed from the fixture."""
    expected: dict = {1: ["R4"]}  # missing __all__ reports on line 1
    for lineno, text in enumerate(
        FIXTURE.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _EXPECT_RE.search(text)
        if match:
            rules = [r.strip() for r in match.group(1).split(",") if r.strip()]
            expected.setdefault(lineno, []).extend(rules)
    return {line: sorted(rules) for line, rules in expected.items()}


class TestRepositoryIsClean:
    def test_src_tree_has_no_violations(self, src_analysis_report):
        report = src_analysis_report
        assert report.files_checked > 50
        assert report.violations == [], "\n".join(
            v.format() for v in report.violations
        )

    def test_src_tree_clean_under_strict(self, src_analysis_report):
        report = src_analysis_report
        assert report.ok(strict=True), "\n".join(
            v.format() for v in report.effective_violations(strict=True)
        )


class TestFixtureViolations:
    @pytest.fixture(scope="class")
    def report(self):
        return run_analysis([FIXTURE], PERMISSIVE)

    def test_every_expected_violation_reported(self, report):
        expected = fixture_expectations()
        actual: dict = {}
        for violation in report.violations:
            actual.setdefault(violation.line, []).append(violation.rule)
        actual = {line: sorted(rules) for line, rules in actual.items()}
        assert actual == expected

    def test_every_rule_id_exercised(self, report):
        seen = {violation.rule for violation in report.violations}
        assert seen == {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"}

    def test_noqa_suppression_honored(self, report):
        # QuietAlgo.solve carries `# repro: noqa(R5)`; exactly that one
        # violation must be suppressed, not merely absent.
        assert report.suppressed == 1

    def test_rule_catalogue_covers_reported_rules(self, report):
        for violation in report.violations:
            assert violation.rule in RULE_SUMMARIES


class TestSuppressionMechanics:
    def _lint_source(self, tmp_path, source, strict=False):
        target = tmp_path / "snippet.py"
        target.write_text(source, encoding="utf-8")
        report = run_analysis([target], PERMISSIVE)
        return report

    def test_targeted_noqa_only_silences_named_rule(self, tmp_path):
        report = self._lint_source(
            tmp_path,
            '__all__ = []\n'
            'def f(bucket={}):  # repro: noqa(R2)\n'
            '    return bucket\n',
        )
        # The noqa names R2 but the violation is R4: it must still fire.
        assert [v.rule for v in report.violations] == ["R4"]

    def test_blanket_noqa_silences_line(self, tmp_path):
        report = self._lint_source(
            tmp_path,
            '__all__ = []\n'
            'def f(bucket={}):  # repro: noqa\n'
            '    return bucket\n',
        )
        assert report.violations == []
        assert report.suppressed == 1

    def test_strict_flags_unused_noqa(self, tmp_path):
        report = self._lint_source(
            tmp_path,
            '__all__ = []\n'
            'x = 1  # repro: noqa(R3)\n',
        )
        assert report.ok(strict=False)
        assert not report.ok(strict=True)
        assert [v.rule for v in report.unused_noqa] == ["NOQA"]


class TestConfigScoping:
    def test_include_scoping_skips_other_paths(self, tmp_path):
        target = tmp_path / "scoped.py"
        target.write_text(
            '__all__ = []\n'
            'threshold_cost = 1.0\n'
            'flag = threshold_cost == 2.0\n',
            encoding="utf-8",
        )
        scoped = AnalysisConfig(include={"R3": ("repro/cost/",)}, exclude={})
        assert run_analysis([target], scoped).violations == []
        assert [
            v.rule for v in run_analysis([target], PERMISSIVE).violations
        ] == ["R3"]

    def test_r6_scoped_to_solver_paths(self, tmp_path):
        target = tmp_path / "helper.py"
        target.write_text(
            '__all__ = []\n'
            'def abort():\n'
            '    raise RuntimeError("boom")\n',
            encoding="utf-8",
        )
        scoped = AnalysisConfig(include={"R6": ("repro/algorithms/",)}, exclude={})
        assert run_analysis([target], scoped).violations == []
        assert [
            v.rule for v in run_analysis([target], PERMISSIVE).violations
        ] == ["R6"]

    def test_disable_turns_rule_off(self):
        config = AnalysisConfig(disable=("R1", "R2", "R3", "R4", "R5", "R7"))
        report = run_analysis([FIXTURE], config)
        assert report.violations == []

    def test_pyproject_config_loads(self):
        config = AnalysisConfig.load(ROOT / "pyproject.toml")
        assert config.registry == "repro/algorithms/registry.py"
        assert any("bench" in p for p in config.exclude.get("R2", ()))

    def test_relpath_is_package_relative_under_src(self):
        relpath = compute_relpath(SRC / "algorithms" / "base.py")
        assert relpath == "repro/algorithms/base.py"


class TestCommandLine:
    def test_json_output_shape(self, capsys):
        exit_code = lint_main(["--json", str(FIXTURE)])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert {v["rule"] for v in payload["violations"]} >= {"R2", "R4", "R5"}

    def test_clean_tree_exits_zero(self, capsys):
        exit_code = lint_main(["--strict", str(SRC)])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "no violations" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "R1", "R2", "R3", "R4", "R5", "R6",
            "R7", "R8", "R9", "R10", "R11",
        ):
            assert rule in out

    def test_missing_path_exits_two(self, capsys):
        assert lint_main([str(ROOT / "does-not-exist.py")]) == 2

    def test_format_json_matches_json_flag(self, capsys):
        assert lint_main(["--format", "json", str(FIXTURE)]) == 1
        via_format = capsys.readouterr().out
        assert lint_main(["--json", str(FIXTURE)]) == 1
        via_flag = capsys.readouterr().out
        assert json.loads(via_format) == json.loads(via_flag)

    def test_no_dataflow_skips_interprocedural_rules(self, capsys):
        # src/repro is clean either way; the flag must not break the run.
        assert lint_main(["--no-dataflow", str(SRC)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_loose_file_is_linted_uncached(self, tmp_path, monkeypatch):
        # Outside any project there is no pyproject.toml to cache beside,
        # so nothing may land in the working directory.
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        loose = elsewhere / "loose.py"
        loose.write_text("x = 1\n", encoding="utf-8")
        monkeypatch.chdir(workdir)
        assert find_pyproject(loose) is None
        lint_main([str(loose)])
        assert list(workdir.iterdir()) == []
        assert list(elsewhere.iterdir()) == [loose]


class TestParseFailures:
    def test_syntax_error_reports_readable_line(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        exit_code = lint_main([str(bad)])
        out = capsys.readouterr().out
        assert exit_code == 3
        assert "PARSE" in out
        assert "syntax error" in out

    def test_null_byte_reports_unparseable(self, tmp_path, capsys):
        bad = tmp_path / "binary.py"
        bad.write_bytes(b"x = 1\x00\n")
        exit_code = lint_main([str(bad)])
        out = capsys.readouterr().out
        assert exit_code == 3
        # Depending on the Python version null bytes surface as a bare
        # ValueError ("unparseable") or a SyntaxError; both must land on
        # the PARSE rule with a readable one-liner.
        assert "PARSE" in out
        assert "null bytes" in out or "unparseable" in out

    def test_parse_failure_outranks_ordinary_violations(self, tmp_path):
        good_but_dirty = tmp_path / "dirty.py"
        good_but_dirty.write_text(
            "def f(bucket={}):\n    return bucket\n", encoding="utf-8"
        )
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n", encoding="utf-8")
        # Violations alone exit 1; any parse failure escalates to 3.
        assert lint_main([str(good_but_dirty)]) == 1
        assert lint_main([str(good_but_dirty), str(broken)]) == 3

    def test_parse_failure_keeps_other_findings(self, tmp_path):
        from repro.analysis import run_analysis

        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n", encoding="utf-8")
        report = run_analysis([FIXTURE, broken], PERMISSIVE)
        rules = {v.rule for v in report.violations}
        assert "PARSE" in rules and "R7" in rules


class TestRuntimeContracts:
    def test_oracle_optimum_is_never_another_datasets(self):
        """The oracle memo is keyed by dataset id; a freed dataset's id
        must not serve its optimum to the next dataset given that id."""
        from repro.algorithms.base import SearchContext
        from repro.algorithms.maxsum_exact import MaxSumExact
        from repro.analysis import contracts
        from repro.model.dataset import Dataset
        from repro.model.query import Query

        query = Query.create(0.0, 0.0, [0, 1])
        costs = []
        for far in (1.0, 100.0, 2.0, 200.0):
            dataset = Dataset.from_records([(0.0, 0.0, ["a"]), (far, 0.0, ["b"])])
            costs.append(contracts._oracle_cost(MaxSumExact(SearchContext(dataset)), query))
            del dataset
        assert costs == [1.0, 100.0, 2.0, 200.0]
