"""Guardrails against documentation rot.

The docs promise specific experiment ids, algorithms and commands; these
tests fail if the code moves out from under them.
"""

import pathlib
import re

import pytest

from repro.algorithms.registry import ALGORITHM_NAMES
from repro.bench.experiments import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestFilesExist:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/ALGORITHMS.md",
            "docs/STATIC_ANALYSIS.md",
            "docs/SERVING.md",
            "docs/BENCHMARKS.md",
            "docs/SHARDING.md",
        ],
    )
    def test_present_and_substantial(self, name):
        text = read(name)
        assert len(text.splitlines()) > 50, name


class TestDesignExperimentIndex:
    def test_every_experiment_id_documented(self):
        design = read("DESIGN.md")
        for experiment_id in EXPERIMENTS:
            assert experiment_id in design, experiment_id

    def test_every_documented_bench_file_exists(self):
        design = read("DESIGN.md")
        for match in re.findall(r"benchmarks/(bench_\w+\.py)", design):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_mismatch_notice_present(self):
        # DESIGN.md must keep the paper-text mismatch disclosure.
        design = read("DESIGN.md")
        assert "mismatch" in design.lower()
        assert "SIGMOD 2013" in design


class TestExperimentsRecord:
    def test_every_experiment_id_reported(self):
        experiments = read("EXPERIMENTS.md")
        for experiment_id in EXPERIMENTS:
            assert experiment_id in experiments, experiment_id


class TestReadme:
    def test_quickstart_names_are_real(self):
        readme = read("README.md")
        import repro

        for symbol in ("MaxSumExact", "MaxSumAppro", "DiaExact", "DiaAppro"):
            assert symbol in readme
            assert hasattr(repro, symbol)

    def test_cli_names_match_entry_points(self):
        readme = read("README.md")
        pyproject = read("pyproject.toml")
        for command in ("coskq-bench", "coskq-query", "coskq-serve"):
            assert command in readme
            assert command in pyproject

    def test_serving_doc_outcome_table_is_current(self):
        from repro.serve import OUTCOMES

        serving = read("docs/SERVING.md")
        for outcome in OUTCOMES:
            assert "`%s`" % outcome in serving, outcome

    def test_robustness_doc_lists_every_exit_code(self):
        from repro.tools.query_cli import EXIT_CODES

        robustness = read("docs/ROBUSTNESS.md")
        for name, code in EXIT_CODES.items():
            if name in ("ok", "error", "usage"):
                continue
            assert name in robustness, name
            assert str(code) in robustness

    def test_macro_bench_doc_is_current(self):
        # docs/BENCHMARKS.md promises profiles, a schema version, CLI
        # subcommands and make targets; fail if the code moves away.
        from repro.bench.macro import PROFILES, SCHEMA_VERSION
        from repro.tools.macro_cli import MACRO_COMMANDS

        doc = read("docs/BENCHMARKS.md")
        for profile_name in PROFILES:
            assert "`%s`" % profile_name in doc, profile_name
        assert SCHEMA_VERSION in doc
        for command in MACRO_COMMANDS:
            assert "coskq-bench %s" % command in doc, command
        makefile = read("Makefile")
        for target in ("bench-smoke", "bench-check"):
            assert "make %s" % target in doc, target
            assert "%s:" % target in makefile, target
        assert "coskq-bench-macro" in read("pyproject.toml")
        assert "docs/BENCHMARKS.md" in read("README.md")

    def test_sharding_doc_is_current(self):
        # docs/SHARDING.md promises the shard make targets and a recorded
        # benchmark file; fail if they move.
        doc = read("docs/SHARDING.md")
        makefile = read("Makefile")
        for target in ("shard-check", "shard-bench"):
            assert "make %s" % target in doc, target
            assert "%s:" % target in makefile, target
        assert "BENCH_shard.json" in doc
        assert (ROOT / "BENCH_shard.json").exists()
        assert "docs/SHARDING.md" in read("README.md")
        # The profile the doc says produced BENCH_shard.json must exist
        # and consist of sharded cells only.
        from repro.bench.macro import PROFILES

        shard_profile = PROFILES["shard"]
        assert all(w.kind == "sharded" for w in shard_profile.workloads)

    def test_macro_golden_fixture_exists(self):
        golden = ROOT / "tests" / "fixtures" / "bench_macro_smoke.golden.json"
        assert golden.exists()

    def test_documented_algorithms_registered(self):
        # Algorithms named in backticks that look like registry names.
        readme = read("README.md")
        for name in ("maxsum_hotel", "scalability"):
            assert name in read("DESIGN.md")
        assert "cao-exact" in " ".join(ALGORITHM_NAMES)
