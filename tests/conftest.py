"""Shared fixtures: small deterministic datasets and search contexts.

The correctness tests compare algorithms against the brute-force oracle,
which is exponential — so the shared instances here are deliberately
small (~100 objects, ~12 keywords) while still being spatially and
textually non-trivial.  Every brute-force check reads :func:`optimum`,
one session-wide table, so each (dataset content, query, cost) triple
is solved at most once per run.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from repro.algorithms.base import SearchContext
from repro.algorithms.bruteforce import BruteForceExact
from repro.algorithms.cover import cover_tables
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.analysis import AnalysisConfig, contracts, find_pyproject, run_analysis
from repro.cost.functions import cost_by_name
from repro.data.generators import clustered_dataset, uniform_dataset
from repro.data.queries import generate_queries
from repro.errors import InfeasibleQueryError
from repro.index.keyword_trees import KeywordTreeIndex
from repro.index.neighbors import LinearScanIndex
from repro.index.signatures import mask_of
from repro.kernels import pack_objects
from repro.model.dataset import Dataset
from repro.model.query import Query
from repro.shard import ScatterGather, ShardedIndexFactory
from repro.utils.floatcmp import float_geq, float_leq

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


def with_infeasible_query(dataset, queries):
    """``queries`` plus one asking for a keyword nothing carries."""
    base = queries[0]
    missing = max(dataset.keyword_ids) + 1
    return list(queries) + [Query(base.location, base.keywords | {missing})]


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


#: ``{instance id: {solver: [[cost, sorted oids], ...]}}``, per query.
#: JSON keys are strings, so instance ids appear as ``str(id)``.
GOLDEN_ANSWERS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def oracle_key(dataset, query, cost):
    """A brute-force triple: dataset content, query, and what prices a set.

    Datasets are keyed by their columns, so instances rebuilt from the
    same seed share entries; costs by class, weights and combiner.
    """
    content = tuple(
        bytes(column)
        for column in (
            dataset.xs,
            dataset.ys,
            dataset.keyword_ids,
            dataset.keyword_offsets,
        )
    )
    identity = (
        type(cost).__name__,
        cost.query_aggregate,
        cost.combiner,
        cost.query_weight,
        cost.pairwise_weight,
    )
    return content, query, identity


#: The session's oracle table: :func:`optimum`'s answers by :func:`oracle_key`.
#: An entry is a function of its key alone, so sharing the table across
#: tests changes no test's outcome, only how often the oracle runs.
ORACLE_TABLE = {}


def optimum(context, query, cost):
    """:class:`BruteForceExact`'s answer for ``query`` under ``cost``.

    Solved on the first request for its triple and read from
    :data:`ORACLE_TABLE` after that; an infeasible query's error is
    recorded and raised again.
    """
    key = oracle_key(context.dataset, query, cost)
    if key not in ORACLE_TABLE:
        try:
            ORACLE_TABLE[key] = BruteForceExact(context, cost).solve(query)
        except InfeasibleQueryError as err:
            ORACLE_TABLE[key] = err
    result = ORACLE_TABLE[key]
    if isinstance(result, InfeasibleQueryError):
        raise result
    return result


#: The oracle's registry name.  It reads the dataset, never the index or
#: an engine, so only the plain cell runs it, through :func:`optimum`.
ORACLE = "bruteforce"

#: Every registry solver but the oracle: what the other cells run.
SOLVERS = tuple(name for name in ALGORITHM_NAMES if name != ORACLE)


def solve_fn(name, context, cost=None):
    """Registry solver ``name``'s ``solve``; the oracle's reads :func:`optimum`."""
    solver = make_algorithm(name, context, cost)
    if name == ORACLE:
        return functools.partial(optimum, context, cost=solver.cost)
    return solver.solve


# -- the differential matrix --------------------------------------------------
#
# A *cell* runs registry solvers over one input (a dataset and queries,
# the last asking for a keyword nothing carries) and records each answer
# as its cost float and sorted oids, or as its failure's type name.  The
# plain cell runs them over the keyword trees, in process, and is held to
# the oracle and to ``golden_answers.json``.  Every other cell changes one
# axis (index or engine) and must record the plain cell's answers bit for
# bit.  The tests of each axis live in the suite of its layer:
# test_kernels_differential.py and test_registry_conformance.py (plain),
# test_signatures_differential.py (linear scan), test_differential_shard.py
# (facade, engine, costs), test_differential_parallel.py (forked pool) and
# test_differential_matrix.py (drawn instances, every in-process axis).


def conformance_instance():
    """36 objects over 8 words and three 3-keyword queries.

    The vocabulary must be at least 8: the query generator samples
    3-keyword queries from a percentile band that is too narrow on
    smaller ones.
    """
    dataset = uniform_dataset(36, 8, mean_keywords=2.0, seed=7, name="conform")
    return dataset, SearchContext(dataset), generate_queries(dataset, 3, 3, seed=9)


#: The matrix's fixed inputs, by the id their tests are parametrized with.
MATRIX_INSTANCES = dict(GOLDEN_INSTANCES, conform=conformance_instance)

#: How far an answer's cost may sit from the oracle's, or from its own
#: objects' cost: absolute, so the near-tie instance's 1e-5 gap counts.
ORACLE_TOLERANCE = 1e-6


@functools.lru_cache(maxsize=None)
def matrix_instance(instance_id):
    """``(dataset, queries)`` of a fixed input, the last query infeasible."""
    dataset, _, queries = MATRIX_INSTANCES[instance_id]()
    return dataset, with_infeasible_query(dataset, queries)


def answers(solve, queries):
    """Each query's cost float and sorted oids, or its failure's type name."""
    out = []
    for query in queries:
        try:
            result = solve(query)
        except InfeasibleQueryError as err:
            out.append(type(err).__name__)
        else:
            out.append((result.cost, tuple(sorted(o.oid for o in result.objects))))
    return out


def cost_of(cost_name):
    return cost_by_name(cost_name) if cost_name is not None else None


def plain_cell(dataset, names, cost_name, queries):
    """``{name: answers}`` over the keyword trees, in process."""
    context = SearchContext(dataset, index_cls=KeywordTreeIndex)
    return {
        name: answers(solve_fn(name, context, cost_of(cost_name)), queries)
        for name in names
    }


def index_cell(index_cls):
    def run(dataset, names, cost_name, queries):
        context = SearchContext(dataset, index_cls=index_cls)
        return {
            name: answers(make_algorithm(name, context, cost_of(cost_name)).solve, queries)
            for name in names
        }

    return run


def scatter_gather_cell(num_shards):
    def run(dataset, names, cost_name, queries):
        context = SearchContext(dataset, index_cls=ShardedIndexFactory(num_shards))
        return {
            name: answers(ScatterGather(context, name, cost_of(cost_name)).solve, queries)
            for name in names
        }

    return run


#: The cost-generic solvers the cost axis runs under every named cost.
COST_SOLVERS = ("maxsum-appro", "unified-exact")

#: The in-process cells but the plain one, by axis value.
AXES = {
    "linear-scan": index_cell(LinearScanIndex),
    "sharded-1": index_cell(ShardedIndexFactory(1)),
    "sharded-4": index_cell(ShardedIndexFactory(4)),
    "sharded-9": index_cell(ShardedIndexFactory(9)),
    "scatter-gather-1": scatter_gather_cell(1),
    "scatter-gather-4": scatter_gather_cell(4),
    "scatter-gather-9": scatter_gather_cell(9),
}


@functools.lru_cache(maxsize=None)
def plain(instance_id, name, cost_name=None):
    """The plain cell's answers of one solver on a fixed input, run once."""
    dataset, queries = matrix_instance(instance_id)
    return plain_cell(dataset, (name,), cost_name, queries)[name]


def axis_answers(axis, instance_id, name):
    """One solver's answers in ``axis``'s cell on a fixed input.

    The oracle runs only in the plain cell, so its case in any other
    cell is the plain cell's answers, still held to the golden record.
    """
    if name == ORACLE:
        return plain(instance_id, name)
    dataset, queries = matrix_instance(instance_id)
    return AXES[axis](dataset, (name,), None, queries)[name]


def assert_matches_plain(instance_id, name, got):
    """``got`` is the plain cell's answers bit for bit, and the golden
    record's where there is one."""
    assert got == plain(instance_id, name), name
    golden = GOLDEN_ANSWERS.get(str(instance_id))
    if golden is not None:
        assert got[-1] == "InfeasibleQueryError", got[-1]
        assert [[cost, list(oids)] for cost, oids in got[:-1]] == golden[name], name


def declared_ratio(solver):
    """The ratio a solver declares for the cost it runs under, if any."""
    return solver.ratio if solver.ratio_cost == solver.cost.name else None


def check_covers_and_prices(dataset, queries, solver, answered):
    """Every answer covers its query and costs what its objects cost;
    the query nobody can answer fails with ``InfeasibleQueryError``."""
    assert answered[-1] == "InfeasibleQueryError", solver.name
    for query, got in zip(queries, answered[:-1]):
        assert not isinstance(got, str), (solver.name, query, got)
        cost, oids = got
        objects = [dataset[oid] for oid in oids]
        covered = frozenset().union(*(o.keywords for o in objects))
        assert query.keywords <= covered, "%s returned infeasible set" % solver.name
        assert abs(solver.cost.evaluate(query, objects) - cost) <= ORACLE_TOLERANCE, solver.name


def check_exactness(queries, solver, answered):
    """An exact solver returns the optimum; an approximation never beats it."""
    for query, (cost, _) in zip(queries, answered[:-1]):
        best = optimum(solver.context, query, solver.cost).cost
        if solver.exact:
            assert abs(cost - best) <= ORACLE_TOLERANCE, (
                "%s claims exact but %.9f != optimum %.9f" % (solver.name, cost, best)
            )
        else:
            assert float_geq(cost, best, ORACLE_TOLERANCE), (
                "%s beat the oracle: %.9f < %.9f" % (solver.name, cost, best)
            )


def check_ratio(queries, solver, answered):
    """An approximation stays within the ratio it declares."""
    ratio = declared_ratio(solver)
    for query, (cost, _) in zip(queries, answered[:-1]):
        best = optimum(solver.context, query, solver.cost).cost
        assert float_leq(cost, ratio * best, ORACLE_TOLERANCE), (
            "%s exceeded its %.3f bound: %.9f > %.9f"
            % (solver.name, ratio, cost, ratio * best)
        )


def check_against_oracle(dataset, cost_name, queries, got):
    """All three claims, for every solver of a plain cell."""
    context = SearchContext(dataset)
    for name, answered in got.items():
        solver = make_algorithm(name, context, cost_of(cost_name))
        check_covers_and_prices(dataset, queries, solver, answered)
        check_exactness(queries, solver, answered)
        if declared_ratio(solver) is not None:
            check_ratio(queries, solver, answered)


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
