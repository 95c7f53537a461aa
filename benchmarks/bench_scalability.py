"""Figure: scalability — running time vs dataset size |O|.

Paper artifact: the scalability test on synthetic datasets grown from GN
(2M..10M in the paper; bench scale sweeps proportionally smaller sizes
built with the same augmentation recipe).  Benchmarks time exact and
approximate solvers per size; the report artifact records the series.
"""

import pytest

from conftest import BENCH_SCALE, queries_for, run_workload, write_report
from repro.algorithms.base import SearchContext
from repro.algorithms.owner_appro import OwnerRingApproximation
from repro.algorithms.owner_exact import OwnerDrivenExact
from repro.bench.experiments import run_experiment
from repro.cost.functions import cost_by_name
from repro.data.augment import scale_dataset
from repro.data.generators import gn_like

K = 6


@pytest.fixture(scope="module", params=BENCH_SCALE.scalability_sizes)
def sized_context(request):
    base = gn_like(scale=BENCH_SCALE.gn_scale, seed=BENCH_SCALE.seed)
    size = request.param
    if size > len(base):
        dataset = scale_dataset(base, size, seed=BENCH_SCALE.seed)
    else:
        from repro.model.dataset import Dataset

        dataset = Dataset(
            map(base.__getitem__, range(size)), base.vocabulary, name="gn-%d" % size
        )
    context = SearchContext(dataset)
    context.index
    return dataset, context


@pytest.mark.parametrize("algo", ["maxsum-exact", "maxsum-appro"])
def test_scalability_cell(benchmark, sized_context, algo):
    dataset, context = sized_context
    if algo == "maxsum-exact":
        algorithm = OwnerDrivenExact(context, cost_by_name("maxsum"))
    else:
        algorithm = OwnerRingApproximation(context, cost_by_name("maxsum"))
    queries = queries_for(dataset, K)
    results = benchmark.pedantic(
        run_workload, args=(algorithm, queries), rounds=2, iterations=1
    )
    assert all(r.is_feasible_for(q) for r, q in zip(results, queries))


def test_scalability_report(benchmark):
    report = benchmark.pedantic(
        run_experiment, args=("scalability",), kwargs={"scale": BENCH_SCALE}, rounds=1
    )
    write_report("scalability", report)
    assert "|O|" in report
