"""Shared fixtures: small deterministic datasets and search contexts.

The correctness tests compare algorithms against the brute-force oracle,
which is exponential — so the shared instances here are deliberately
small (~100 objects, ~12 keywords) while still being spatially and
textually non-trivial.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from repro.algorithms.base import SearchContext
from repro.algorithms.cover import cover_tables
from repro.algorithms.registry import make_algorithm
from repro.analysis import AnalysisConfig, contracts, find_pyproject, run_analysis
from repro.data.generators import clustered_dataset, uniform_dataset
from repro.data.queries import generate_queries
from repro.index.signatures import mask_of
from repro.kernels import pack_objects
from repro.model.dataset import Dataset
from repro.model.query import Query

# Opt-in runtime contract checking: REPRO_CHECK_CONTRACTS=1 wraps every
# solve() with feasibility/cost/optimality post-conditions, so the whole
# suite doubles as a conformance harness (see docs/STATIC_ANALYSIS.md).
if contracts.enabled():
    contracts.install()

settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def tiny_dataset():
    """~120 objects over a 12-word vocabulary; oracle-friendly."""
    return uniform_dataset(120, 12, mean_keywords=2.5, seed=11, name="tiny")


@pytest.fixture(scope="session")
def tiny_context(tiny_dataset):
    return SearchContext(tiny_dataset)


@pytest.fixture(scope="session")
def tiny_queries(tiny_dataset):
    """Ten 3-keyword queries over the tiny dataset."""
    return generate_queries(tiny_dataset, 3, 10, seed=5)


@pytest.fixture(scope="session")
def clustered_small():
    """Clustered variant to exercise skewed spatial layouts."""
    return clustered_dataset(150, 15, mean_keywords=3.0, cluster_count=5, seed=23)


@pytest.fixture(scope="session")
def clustered_context(clustered_small):
    return SearchContext(clustered_small)


@pytest.fixture()
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def macro_smoke_run(tmp_path_factory):
    """One real ``coskq-bench run --profile smoke`` per test session.

    Runs the macro harness end-to-end through its CLI into a fresh
    dataset cache, and hands (summary path, parsed summary) to every
    macro-bench test — so tier-1 always exercises the harness exactly
    once (ISSUE 8 acceptance), not once per test.
    """
    import json

    from repro.tools.macro_cli import main as macro_main

    root = tmp_path_factory.mktemp("macro_bench")
    out = root / "smoke.json"
    exit_code = macro_main(
        [
            "run",
            "--profile",
            "smoke",
            "--out",
            str(out),
            "--cache-dir",
            str(root / "dataset_cache"),
            "--quiet",
        ]
    )
    assert exit_code == 0, "smoke profile run failed"
    return out, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def src_analysis_report():
    """One analysis of ``src/repro`` under the project's pyproject config.

    The clean-tree tests of the syntactic rules, of ``--strict`` and of
    the dataflow rules all read this report, so tier-1 analyses the
    tree once for them.  The CLI tests keep their own runs.
    """
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    return run_analysis([src], AnalysisConfig.load(find_pyproject(src)))


def make_random_instance(seed: int, num_objects: int = 60, vocab: int = 8):
    """A fresh random (dataset, context, queries) triple for property tests."""
    dataset = uniform_dataset(
        num_objects, vocab, mean_keywords=2.0, seed=seed, name="prop%d" % seed
    )
    context = SearchContext(dataset)
    queries = generate_queries(dataset, 3, 3, seed=seed + 1)
    return dataset, context, queries


#: ``(x, y, words)`` rows of :func:`make_tie_instance`.  Integer offsets
#: make the tied distances exactly equal floats: ``hypot(3, 4) == 5.0``.
TIE_ROWS = (
    (0, 0, "a"),
    (3, 4, "b"),
    (-3, 4, "c"),
    (4, -3, "b c"),
    (-4, -3, "d"),
    (5, 0, "c d"),
    (0, -5, "a d"),
    (3, 4, "b"),  # same place and keywords as oid 1
    (3, 4, "d"),  # same place as oid 1, other keywords
    (-3, 4, "c"),  # same place and keywords as oid 2
    (6, 8, "a b c d"),
    (1, 0, "b"),
    (-1, 0, "b"),
    (0, 1, "c"),
    (0, -1, "c"),
    # Around (100, 100): the MaxSum-Appro answer comes from owner oid 17,
    # whose two f-carriers (oids 18 and 19) are equally near it.
    (97, 100, "e"),
    (103, 100, "f"),
    (100, 104, "e"),
    (101, 103, "f"),
    (99, 103, "f"),
)


def make_tie_instance():
    """A degenerate (dataset, context, queries) triple built on exact ties.

    Objects share locations, many relevant objects share one query
    distance (so an owner's disk must take in the stream entries tied
    with it), greedy completions tie on their distance to the owner, and
    two queries sit on top of objects.
    """
    dataset = Dataset.from_records(
        ((float(x), float(y), words.split()) for x, y, words in TIE_ROWS), name="ties"
    )
    vocabulary = dataset.vocabulary
    queries = [
        Query.from_words(x, y, words.split(), vocabulary)
        for x, y, words in (
            (0.0, 0.0, "a b c"),
            (0.0, 0.0, "b c d"),
            (0.0, 0.0, "a d"),
            (3.0, 4.0, "b d"),
            (-3.0, 4.0, "a c d"),
            (100.0, 100.0, "e f"),
        )
    ]
    return dataset, SearchContext(dataset), queries


#: Coordinate unit of :func:`make_extreme_instance`.  A distance beyond
#: about 1.34e154 squares to ``inf`` although it stays finite itself, so
#: the kernels' guarded squared tests meet ``inf`` on most pairs.
EXTREME_SCALE = 1e154

#: ``(x, y, words)`` rows of :func:`make_extreme_instance`, in units of
#: :data:`EXTREME_SCALE`.
EXTREME_ROWS = (
    (0.0, 0.0, "a"),
    (1.0, 1.0, "a b c d"),  # the one object carrying every keyword
    (-1.0, 1.0, "b"),
    (1.0, -1.0, "c"),
    (-1.0, -1.0, "d"),
    (2.0, 0.0, "b c"),
    (0.0, -2.0, "a d"),
    (3.0, 4.0, "c"),
    (-0.5, 0.25, "d"),
    (0.125, 0.125, "b"),
)


def make_extreme_instance():
    """A degenerate (dataset, context, queries) triple at huge magnitudes.

    One object carries every keyword, two queries ask for a single
    keyword, and coordinates sit near 1e154, where the guarded squared
    distances overflow to ``inf``.
    """
    dataset = Dataset.from_records(
        (
            (x * EXTREME_SCALE, y * EXTREME_SCALE, words.split())
            for x, y, words in EXTREME_ROWS
        ),
        name="extreme",
    )
    vocabulary = dataset.vocabulary
    queries = [
        Query.from_words(x * EXTREME_SCALE, y * EXTREME_SCALE, words.split(), vocabulary)
        for x, y, words in (
            (0.0, 0.0, "a"),
            (0.5, 0.5, "c"),
            (0.0, 0.0, "a b c d"),
            (-1.0, 0.0, "b d"),
            (1.0, 1.0, "b c d"),
        )
    ]
    return dataset, SearchContext(dataset), queries


#: Coordinate unit and gap of :func:`make_near_tie_instance`.
NEAR_TIE_SCALE = 1e4
NEAR_TIE_EPS = 5e-10

#: ``(x, y, words)`` rows of :func:`make_near_tie_instance`, in units of
#: :data:`NEAR_TIE_SCALE`.
NEAR_TIE_ROWS = (
    (10.0, 0.0, "a"),  # the owner of both completions
    (7.0, 3.0, "b"),
    (7.0, 3.0 - NEAR_TIE_EPS, "b"),
    (7.0, -3.0, "c"),
    (7.0, -3.0 + NEAR_TIE_EPS, "c"),
    (-5.0, 0.0, "b"),  # bait: the nearest b and c, far from the owner
    (-5.0, 0.1, "c"),
)


def make_near_tie_instance():
    """A 7-object (dataset, context, queries) triple with a near-tie optimum.

    The query ``(0, 0) "a b c"`` is best served by the owner at
    ``(10, 0)`` and one b–c pair at ``x = 7``.  The inner pair is
    ``2 · NEAR_TIE_EPS`` closer than the outer one: 1e-5 apart at this
    scale, which is past the conformance tolerance, yet only about 2e-10
    of the diameter, so a diameter search that stops at a relative
    tolerance returns the outer pair.
    """
    dataset = Dataset.from_records(
        (
            (x * NEAR_TIE_SCALE, y * NEAR_TIE_SCALE, words.split())
            for x, y, words in NEAR_TIE_ROWS
        ),
        name="near_tie",
    )
    query = Query.from_words(0.0, 0.0, ["a", "b", "c"], dataset.vocabulary)
    return dataset, SearchContext(dataset), [query]


#: Every registry solver's answers on the :data:`GOLDEN_INSTANCES`,
#: recorded once with the scalar/frozenset reference paths (since
#: removed) and the flat-kernel/bitmask paths agreeing bit for bit, over
#: both the IR-tree (then the production index) and ``LinearScanIndex``.
#: The ``near_tie`` block, added with its instance, was recorded over
#: both indexes agreeing, and its exact costs equal ``bruteforce``'s
#: like every other block's.
GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_answers.json"

#: The differential instances, by the id their tests are parametrized with.
GOLDEN_INSTANCES = {
    101: lambda: make_random_instance(101, num_objects=40, vocab=8),
    202: lambda: make_random_instance(202, num_objects=40, vocab=8),
    303: lambda: make_random_instance(303, num_objects=40, vocab=8),
    "ties": make_tie_instance,
    "extreme": make_extreme_instance,
    "near_tie": make_near_tie_instance,
}


def load_golden_answers():
    """``{instance id: {solver: [[cost, sorted oids], ...]}}``, per query.

    JSON keys are strings, so instance ids come back as ``str(id)``.
    """
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def solve_all(context, name, queries):
    """``[[cost, sorted oids], ...]`` of solver ``name`` over ``queries``."""
    solver = make_algorithm(name, context)
    out = []
    for query in queries:
        result = solver.solve(query)
        out.append([result.cost, sorted(o.oid for o in result.objects)])
    return out


def cover_inputs(owner, candidates, keywords):
    """One owner's cover-search inputs, with ``candidates`` as its lens hits.

    The candidates play the owner stream in the given order: packed
    coordinates, keyword bit masks (bit ``t`` for keyword ``t``) and the
    exact distances from the ``owner`` point.  Returns ``(tables, xs,
    ys, masks)`` for :func:`~repro.algorithms.cover.find_constrained_cover`;
    ``tables`` is None when a keyword has no carrier.
    """
    xs, ys = pack_objects(candidates)
    masks = [mask_of(c.keywords) for c in candidates]
    owner_d = [owner.distance_to(c.location) for c in candidates]
    oids = [c.oid for c in candidates]
    tables = cover_tables(
        mask_of(keywords), range(len(candidates)), owner_d, xs, ys, masks, oids
    )
    return tables, xs, ys, masks
