"""Ablation: the keyword-tree index versus a linear scan under the same algorithms.

DESIGN.md §7 artifact: the keyword-aware index is a substrate claim of
the paper — this benchmark quantifies it by running the identical
approximation over both index implementations, plus an ``N(q)``
microbenchmark (the NN primitive every solver starts from).
"""

import pytest

from conftest import BENCH_SCALE, queries_for, run_workload, write_report
from repro.algorithms.base import SearchContext
from repro.algorithms.owner_appro import OwnerRingApproximation
from repro.bench.experiments import run_experiment
from repro.cost.functions import cost_by_name
from repro.geometry.point import Point
from repro.index.keyword_trees import KeywordTreeIndex
from repro.index.neighbors import LinearScanIndex
from repro.model.query import Query

K = 6


@pytest.mark.parametrize("index_kind", ["keyword-trees", "linear-scan"])
def test_appro_with_index(benchmark, hotel_dataset, index_kind):
    index_cls = KeywordTreeIndex if index_kind == "keyword-trees" else LinearScanIndex
    context = SearchContext(hotel_dataset, index_cls=index_cls)
    context.index
    algorithm = OwnerRingApproximation(context, cost_by_name("maxsum"))
    queries = queries_for(hotel_dataset, K)
    results = benchmark.pedantic(
        run_workload, args=(algorithm, queries), rounds=2, iterations=1
    )
    assert all(r.is_feasible_for(q) for r, q in zip(results, queries))


@pytest.mark.parametrize("index_kind", ["keyword-trees", "linear-scan"])
def test_nn_set_microbenchmark(benchmark, hotel_dataset, index_kind):
    index_cls = KeywordTreeIndex if index_kind == "keyword-trees" else LinearScanIndex
    context = SearchContext(hotel_dataset, index_cls=index_cls)
    context.index
    context.inverted
    keywords = hotel_dataset.keywords_by_frequency()[5:7]
    queries = [
        Query(Point(i * 19.0 % 1000, i * 37.0 % 1000), frozenset(keywords))
        for i in range(50)
    ]

    def lookups():
        return sum(len(context.nn_set(query).by_keyword) for query in queries)

    assert benchmark.pedantic(lookups, rounds=3, iterations=1) == 100


def test_ablation_index_report(benchmark):
    report = benchmark.pedantic(
        run_experiment,
        args=("ablation_index",),
        kwargs={"scale": BENCH_SCALE},
        rounds=1,
    )
    write_report("ablation_index", report)
    assert "keyword-trees" in report
