"""Tests for the coskq-query command line tool."""

import pytest

from repro.data.generators import uniform_dataset
from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    ExecutionFailedError,
    InjectedFaultError,
    SearchAbortedError,
)
from repro.tools.query_cli import EXIT_CODES, exit_code_for, main


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "objects.tsv"
    uniform_dataset(200, 20, mean_keywords=3.0, seed=3).save(path)
    return str(path)


def frequent_words(path, count=3):
    from repro.model.dataset import Dataset

    dataset = Dataset.load(path)
    return [
        dataset.vocabulary.word_of(k)
        for k in dataset.keywords_by_frequency()[:count]
    ]


class TestQueryCli:
    def test_basic_query(self, dataset_file, capsys):
        words = frequent_words(dataset_file)
        code = main([dataset_file, "--at", "500", "500", "--keywords", *words])
        assert code == 0
        out = capsys.readouterr().out
        assert "maxsum-exact" in out
        assert "cost" in out
        for word in words:
            assert word in out

    def test_algorithm_and_cost_override(self, dataset_file, capsys):
        words = frequent_words(dataset_file, 2)
        code = main(
            [
                dataset_file,
                "--at", "100", "100",
                "--keywords", *words,
                "--algorithm", "cao-exact",
                "--cost", "dia",
            ]
        )
        assert code == 0
        assert "cao-exact" in capsys.readouterr().out

    def test_topk_mode(self, dataset_file, capsys):
        words = frequent_words(dataset_file, 2)
        code = main(
            [dataset_file, "--at", "500", "500", "--keywords", *words, "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "#1 " in out and "#2 " in out

    def test_unknown_keyword_is_clean_error(self, dataset_file, capsys):
        code = main(
            [dataset_file, "--at", "0", "0", "--keywords", "definitely-not-a-word"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, capsys):
        code = main(["/nope/missing.tsv", "--at", "0", "0", "--keywords", "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_demo_and_file_are_exclusive(self, dataset_file, capsys):
        code = main(
            [dataset_file, "--demo", "--at", "0", "0", "--keywords", "x"]
        )
        assert code == 2

    def test_neither_demo_nor_file(self, capsys):
        code = main(["--at", "0", "0", "--keywords", "x"])
        assert code == 2

    @pytest.mark.parametrize("at", [("nan", "0"), ("inf", "0"), ("0", "Infinity")])
    def test_non_finite_location_is_usage_error(self, dataset_file, capsys, at):
        words = frequent_words(dataset_file, 2)
        code = main([dataset_file, "--at", *at, "--keywords", *words])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_demo_mode(self, capsys):
        code = main(["--demo", "--at", "500", "500", "--keywords", "w0000", "w0001"])
        assert code == 0
        assert "cost" in capsys.readouterr().out


class TestExitCodes:
    """The documented taxonomy exit-code table (docs/ROBUSTNESS.md)."""

    def test_table_is_complete_and_distinct(self):
        assert EXIT_CODES == {
            "ok": 0,
            "error": 1,
            "usage": 2,
            "SearchAbortedError": 3,
            "DeadlineExceededError": 4,
            "BudgetExceededError": 5,
            "InjectedFaultError": 6,
            "ExecutionFailedError": 7,
        }
        assert len(set(EXIT_CODES.values())) == len(EXIT_CODES)

    @pytest.mark.parametrize(
        "error,code",
        [
            (SearchAbortedError("stopped"), 3),
            (DeadlineExceededError(10.0, 11.0), 4),
            (BudgetExceededError("states_expanded", 100, 101), 5),
            (InjectedFaultError("keyword_nn", 1), 6),
            (ExecutionFailedError([ValueError("x")]), 7),
        ],
    )
    def test_taxonomy_classes_map_most_specific_first(self, error, code):
        assert exit_code_for(error) == code

    def test_unrelated_errors_are_generic(self):
        assert exit_code_for(ValueError("nope")) == 1
        assert exit_code_for(OSError("disk")) == 1

    def test_hard_deadline_run_exits_7(self, dataset_file, capsys):
        words = frequent_words(dataset_file, 2)
        code = main(
            [
                dataset_file,
                "--at", "500", "500",
                "--keywords", *words,
                "--fallback", "maxsum-exact -> maxsum-appro",
                "--deadline-ms", "0.0001",
                "--hard-deadline",
            ]
        )
        assert code == EXIT_CODES["ExecutionFailedError"]
        assert "error:" in capsys.readouterr().err

    def test_soft_deadline_still_answers(self, dataset_file, capsys):
        words = frequent_words(dataset_file, 2)
        code = main(
            [
                dataset_file,
                "--at", "500", "500",
                "--keywords", *words,
                "--fallback", "maxsum-exact -> nn-set",
                "--deadline-ms", "0.0001",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded to nn-set" in out

    def test_hard_deadline_without_fallback_uses_algorithm(
        self, dataset_file, capsys
    ):
        words = frequent_words(dataset_file, 2)
        code = main(
            [
                dataset_file,
                "--at", "500", "500",
                "--keywords", *words,
                "--deadline-ms", "0.0001",
                "--hard-deadline",
            ]
        )
        # a single-stage chain under a hard wall: exit 7 (chain failed)
        assert code == EXIT_CODES["ExecutionFailedError"]


@pytest.fixture(scope="module")
def batch_file(tmp_path_factory, dataset_file):
    words = frequent_words(dataset_file, 3)
    path = tmp_path_factory.mktemp("batch") / "queries.tsv"
    lines = ["# three repeated queries plus a comment"]
    for offset in (0, 50, 0):
        lines.append("%d\t%d\t%s" % (400 + offset, 500, " ".join(words)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestBatchMode:
    def test_batch_runs_and_reports(self, dataset_file, batch_file, capsys):
        code = main([dataset_file, "--batch", batch_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3 answered" in out
        assert "query #0" in out and "query #2" in out

    def test_batch_with_workers_and_cache(self, dataset_file, batch_file, capsys):
        code = main(
            [
                dataset_file,
                "--batch", batch_file,
                "--workers", "2",
                "--cache", "full",
                "--algorithm", "maxsum-appro",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "maxsum-appro: 3/3 answered" in out
        assert "cache:" in out and "result_misses" in out

    def test_batch_with_fallback_chain(self, dataset_file, batch_file, capsys):
        code = main(
            [
                dataset_file,
                "--batch", batch_file,
                "--fallback", "maxsum-exact -> maxsum-appro",
                "--deadline-ms", "10000",
            ]
        )
        assert code == 0
        assert "exec[maxsum-exact|maxsum-appro]" in capsys.readouterr().out

    def test_batch_failure_sets_exit_code(self, dataset_file, tmp_path, capsys):
        words = frequent_words(dataset_file, 2)
        bad = tmp_path / "queries.tsv"
        bad.write_text(
            "400\t500\t%s\n0\t0\t%s unknown-word\n" % (" ".join(words), words[0]),
            encoding="utf-8",
        )
        code = main([dataset_file, "--batch", str(bad)])
        # Unknown words are caught at load time: clean error, exit 1.
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_batch_file_is_clean_error(self, dataset_file, tmp_path, capsys):
        bad = tmp_path / "queries.tsv"
        bad.write_text("not-tab-separated\n", encoding="utf-8")
        code = main([dataset_file, "--batch", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_conflicts_with_single_query_flags(
        self, dataset_file, batch_file, capsys
    ):
        assert (
            main(
                [
                    dataset_file,
                    "--batch", batch_file,
                    "--at", "0", "0",
                    "--keywords", "x",
                ]
            )
            == 2
        )
        assert main([dataset_file, "--batch", batch_file, "--top", "2"]) == 2
        assert main([dataset_file, "--batch", batch_file, "--workers", "0"]) == 2

    def test_workers_without_batch_rejected(self, dataset_file, capsys):
        words = frequent_words(dataset_file, 1)
        code = main(
            [
                dataset_file,
                "--at", "0", "0",
                "--keywords", *words,
                "--workers", "4",
            ]
        )
        assert code == 2
        assert "--workers/--cache only apply to --batch" in capsys.readouterr().err
