"""Smoke tests for the experiment suite at micro scale.

These validate the harness plumbing (every experiment runs end to end
and produces the expected table structure); the benchmark files under
``benchmarks/`` and the CLI run the real sweeps.
"""

import pytest

from repro.bench.experiments import EXPERIMENTS, Scale, run_experiment

MICRO = Scale(
    hotel_scale=0.02,      # ~415 objects
    gn_scale=0.0006,       # ~1.1k objects
    web_scale=0.002,       # ~1.1k objects
    queries=2,
    keyword_sweep=(3,),
    scalability_sizes=(600, 900),
    okeyword_sweep=(4.0, 6.0),
    seed=3,
)


class TestExperimentRegistry:
    def test_expected_ids_present(self):
        expected = {
            "table1",
            "maxsum_hotel",
            "maxsum_gn",
            "maxsum_web",
            "dia_hotel",
            "dia_gn",
            "dia_web",
            "ratio_bars",
            "scalability",
            "okeywords",
            "ablation_pruning",
            "ablation_index",
            "unified",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("nope", scale=MICRO)


class TestExperimentsRun:
    def test_table1(self):
        report = run_experiment("table1", scale=MICRO)
        for name in ("hotel", "gn", "web"):
            assert name in report
        assert "objects" in report

    def test_maxsum_hotel(self):
        report = run_experiment("maxsum_hotel", scale=MICRO)
        assert "maxsum-exact" in report
        assert "cao-exact" in report
        assert "maxsum-appro" in report
        assert "approximation ratio" in report

    def test_dia_hotel(self):
        report = run_experiment("dia_hotel", scale=MICRO)
        assert "dia-exact" in report and "dia-appro" in report

    def test_ratio_bars(self):
        report = run_experiment("ratio_bars", scale=MICRO)
        assert "optimal_fraction" in report
        assert "cao-appro1" in report and "cao-appro2" in report

    def test_scalability(self):
        report = run_experiment("scalability", scale=MICRO)
        assert "|O|" in report
        assert "600" in report and "900" in report

    def test_okeywords(self):
        report = run_experiment("okeywords", scale=MICRO)
        assert "avg|o.psi|" in report

    def test_ablation_pruning(self):
        report = run_experiment("ablation_pruning", scale=MICRO)
        assert "full-pruning" in report
        assert "no-pruning-at-all" in report

    def test_ablation_index(self):
        report = run_experiment("ablation_index", scale=MICRO)
        assert "keyword-trees" in report and "linear-scan" in report

    def test_unified(self):
        report = run_experiment("unified", scale=MICRO)
        for name in ("maxsum", "dia", "sum", "minmax"):
            assert name in report
