"""Every entry point that takes outside input answers it or refuses it, typed.

One Hypothesis property feeds generated bytes to the dataset and query
file loaders, to ``coskq-query`` over those files, and to ``/query`` as a
request body.  Each must answer, or refuse with a
:class:`~repro.errors.CoSKQError` subclass: exit 1 or 2 for the CLI, a
counted 4xx for ``/query``.  No untyped exception may escape.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.data.generators import uniform_dataset
from repro.data.queries import load_query_file
from repro.errors import (
    CoSKQError,
    DatasetFormatError,
    InvalidParameterError,
    UnknownKeywordError,
)
from repro.model.dataset import Dataset
from repro.serve import QueryService, ServerConfig
from repro.tools.query_cli import main

NOT_UTF8 = b"x\xff\t1\tfoo\n"

_FIELDS = st.sampled_from(
    ["0", "1.5", "-3", "500", "1e308", "nan", "inf", "x", "", "w0000", "w0001 w0002", "é"]
)
_LINES = st.lists(_FIELDS, min_size=0, max_size=4).map("\t".join)
_TEXT = st.lists(_LINES, max_size=6).map(lambda lines: "\n".join(lines).encode())
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_BODIES = st.fixed_dictionaries(
    {"x": _JSON, "y": _JSON, "keywords": _JSON | st.lists(_FIELDS, max_size=3)},
    optional={
        "chain": _JSON | st.sampled_from(["maxsum-appro", "nn-set", "nope"]),
        "cost": _JSON | st.sampled_from(["maxsum", "dia", "nope"]),
        "deadline_ms": _JSON,
        "work_budget": _JSON,
        "max_retries": _JSON,
    },
).map(lambda body: json.dumps(body).encode())


def _corrupted(data: bytes, at: int, byte: int) -> bytes:
    at = at % (len(data) + 1)
    return data[:at] + bytes([byte]) + data[at:]


_INPUT = st.one_of(
    st.binary(max_size=64),
    _TEXT,
    st.builds(_corrupted, _TEXT, st.integers(0, 64), st.integers(0x80, 0xFF)),
)


@pytest.fixture(scope="module")
def known(tmp_path_factory):
    """A small valid dataset (file, object, and a daemon over it)."""
    dataset = uniform_dataset(30, 6, mean_keywords=2.0, seed=5, name="known")
    path = tmp_path_factory.mktemp("entry") / "known.tsv"
    dataset.save(path)
    service = QueryService(dataset, ServerConfig(deadline_ms=None))
    return path, dataset, service


@pytest.mark.parametrize("loader", ["dataset", "queries"])
def test_non_utf8_file_is_a_typed_error_naming_file_and_line(tmp_path, known, loader):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"1\t2\tw0000\n" + NOT_UTF8)
    with pytest.raises(DatasetFormatError, match=r"bad\.tsv line 2: not UTF-8"):
        if loader == "dataset":
            Dataset.load(path)
        else:
            load_query_file(path, known[1].vocabulary)


@pytest.mark.parametrize(
    "second, cause",
    [("nan\t1\t%s", InvalidParameterError), ("1\t2\tfoo", UnknownKeywordError)],
    ids=["nan-coordinate", "unknown-word"],
)
def test_bad_query_names_its_line(tmp_path, known, second, cause):
    """A query the loader cannot build is refused naming its line, too."""
    known_path, dataset, _ = known
    word = dataset.vocabulary.word_of(0)
    path = tmp_path / "batch.tsv"
    path.write_text("1\t2\t%s\n%s\n" % (word, second.replace("%s", word)))
    with pytest.raises(DatasetFormatError, match=r"^query line 2: ") as err:
        load_query_file(path, dataset.vocabulary)
    assert isinstance(err.value.__cause__, cause)
    assert main([str(known_path), "--batch", str(path)]) == 1


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=_INPUT, body=st.one_of(_INPUT, _BODIES))
@example(data=NOT_UTF8, body=NOT_UTF8)
def test_entry_points_answer_or_refuse_typed(tmp_path, known, data, body):
    known_path, dataset, service = known
    path = tmp_path / "input.tsv"
    path.write_bytes(data)

    try:
        Dataset.load(path)
    except CoSKQError:
        pass
    try:
        load_query_file(path, dataset.vocabulary)
    except CoSKQError:
        pass
    words = [dataset.vocabulary.word_of(k) for k in dataset.keywords_by_frequency()[:2]]
    single = [str(path), "--at", "500", "500", "--keywords"] + words
    assert main(single) in (0, 1)
    assert main([str(known_path), "--batch", str(path)]) in (0, 1)

    before = service.stats.snapshot()
    response = service.handle_query(body)
    after = service.stats.snapshot()
    assert response.outcome != "internal", response.payload
    assert response.status < 500, response.payload
    assert after["total"] == before["total"] + 1
    assert after["by_outcome"][response.outcome] == before["by_outcome"][response.outcome] + 1
