"""Tests for the external-file loaders."""

import pytest

from repro.data.io import (
    DelimitedFormat,
    from_coordinate_keyword_pairs,
    load_delimited,
)
from repro.errors import DatasetFormatError, InvalidParameterError


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDelimitedFormat:
    def test_same_column_rejected(self):
        with pytest.raises(InvalidParameterError):
            DelimitedFormat(x_column=1, y_column=1)

    def test_negative_header_rejected(self):
        with pytest.raises(InvalidParameterError):
            DelimitedFormat(skip_header_lines=-1)


class TestLoadDelimited:
    def test_default_tab_format(self, tmp_path):
        path = write(tmp_path, "1.0\t2.0\thotel pool\n3.0\t4.0\tspa\n")
        ds = load_delimited(path)
        assert len(ds) == 2
        assert "hotel" in ds.vocabulary

    def test_pipe_delimiter_and_column_order(self, tmp_path):
        path = write(tmp_path, "pool,gym|9.0|8.0\n")
        fmt = DelimitedFormat(
            delimiter="|", x_column=1, y_column=2, keyword_column=0,
            keyword_separator=",",
        )
        ds = load_delimited(path, fmt)
        assert len(ds) == 1
        assert ds[0].location.x == 9.0
        assert {ds.vocabulary.word_of(k) for k in ds[0].keywords} == {"pool", "gym"}

    def test_keywords_spread_over_remaining_columns(self, tmp_path):
        path = write(tmp_path, "1.0 2.0 cafe bar grill\n")
        fmt = DelimitedFormat(delimiter=" ", keyword_column=None)
        ds = load_delimited(path, fmt)
        assert len(ds[0].keywords) == 3

    def test_header_and_comments_skipped(self, tmp_path):
        path = write(tmp_path, "x\ty\twords\n# comment\n1.0\t2.0\ta\n")
        ds = load_delimited(path, DelimitedFormat(skip_header_lines=1))
        assert len(ds) == 1

    def test_lowercasing(self, tmp_path):
        path = write(tmp_path, "1.0\t2.0\tHoTeL\n")
        ds = load_delimited(path)
        assert "hotel" in ds.vocabulary
        ds2 = load_delimited(path, DelimitedFormat(lowercase_keywords=False))
        assert "HoTeL" in ds2.vocabulary

    def test_bad_row_raises_by_default(self, tmp_path):
        path = write(tmp_path, "1.0\t2.0\ta\nbroken-line\n")
        with pytest.raises(DatasetFormatError):
            load_delimited(path)

    @pytest.mark.parametrize("row", ["nan\t2.0\ta", "1.0\tinf\ta", "-Infinity\t0\ta"])
    def test_non_finite_row_raises(self, tmp_path, row):
        path = write(tmp_path, "1.0\t2.0\ta\n%s\n" % row)
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_delimited(path)

    def test_bad_rows_skippable(self, tmp_path):
        path = write(tmp_path, "1.0\t2.0\ta\nbroken\n3.0\t4.0\tb\n")
        ds = load_delimited(path, on_error="skip")
        assert len(ds) == 2

    def test_invalid_on_error(self, tmp_path):
        path = write(tmp_path, "1.0\t2.0\ta\n")
        with pytest.raises(InvalidParameterError):
            load_delimited(path, on_error="ignore")

    def test_limit(self, tmp_path):
        rows = "".join("%d.0\t0.0\tw%d\n" % (i, i) for i in range(20))
        path = write(tmp_path, rows)
        ds = load_delimited(path, limit=5)
        assert len(ds) == 5

    def test_empty_file_raises(self, tmp_path):
        path = write(tmp_path, "# only comments\n")
        with pytest.raises(DatasetFormatError):
            load_delimited(path)

    def test_name_defaults_to_stem(self, tmp_path):
        path = write(tmp_path, "1.0\t2.0\ta\n", name="mycity.tsv")
        assert load_delimited(path).name == "mycity"

    def test_loaded_dataset_is_queryable(self, tmp_path):
        from repro.algorithms.base import SearchContext
        from repro.algorithms.maxsum_exact import MaxSumExact
        from repro.model.query import Query

        path = write(
            tmp_path,
            "0.0\t0.0\tcafe\n1.0\t0.0\tbar\n0.5\t0.5\tcafe bar\n",
        )
        ds = load_delimited(path)
        context = SearchContext(ds)
        query = Query.from_words(0.0, 0.0, ["cafe", "bar"], ds.vocabulary)
        result = MaxSumExact(context).solve(query)
        assert result.is_feasible_for(query)


class TestFromPairs:
    def test_basic(self):
        ds = from_coordinate_keyword_pairs(
            [((0.0, 1.0), ["a"]), ((2.0, 3.0), ["b", "c"])], name="api"
        )
        assert len(ds) == 2
        assert ds.name == "api"
        assert ds.statistics().num_unique_words == 3
