"""Tests for the shared algorithm machinery (context, N(q), registry)."""

import pytest

from conftest import solve_fn
from repro.algorithms.base import NNSet, SearchContext
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.cost.functions import DiaCost, MaxSumCost, cost_by_name
from repro.errors import InfeasibleQueryError, InvalidParameterError
from repro.exec import FaultPlan, chaos_context
from repro.index import keyword_trees
from repro.index.keyword_trees import KeywordTreeIndex
from repro.index.neighbors import LinearScanIndex
from repro.model import dataset as dataset_module
from repro.model.query import Query


class TestSearchContext:
    def test_index_is_lazy_and_cached(self, tiny_dataset):
        context = SearchContext(tiny_dataset)
        assert context._index is None
        index = context.index
        assert isinstance(index, KeywordTreeIndex)
        assert context.index is index

    def test_inverted_cached(self, tiny_dataset):
        context = SearchContext(tiny_dataset)
        assert context.inverted is context.inverted

    def test_alternative_index_class(self, tiny_dataset):
        context = SearchContext(tiny_dataset, index_cls=LinearScanIndex)
        assert isinstance(context.index, LinearScanIndex)

    def test_check_feasible(self, tiny_context):
        tiny_context.check_feasible(Query.create(0, 0, [0]))
        with pytest.raises(InfeasibleQueryError):
            tiny_context.check_feasible(Query.create(0, 0, [0, 40_000]))

    def test_postings_are_built_once_per_dataset(
        self, tiny_dataset, tiny_queries, monkeypatch
    ):
        """Contexts, siblings, trees and solves read the dataset's postings.

        The dataset groups its keyword postings when it is built; a second
        context over it, a ``with_index`` sibling, the keyword trees they
        index and every registry solver through either group none again.
        Only a tree over a member list groups its members.
        """
        built = []
        group = dataset_module.group_by_keyword

        def counted(*args, **kwargs):
            built.append(args)
            return group(*args, **kwargs)

        monkeypatch.setattr(dataset_module, "group_by_keyword", counted)
        monkeypatch.setattr(keyword_trees, "group_by_keyword", counted)
        first = SearchContext(tiny_dataset)
        second = SearchContext(tiny_dataset)
        sibling = first.with_index(first.index)
        for context in (first, second, sibling):
            assert context.inverted is tiny_dataset.postings
            for name in ALGORITHM_NAMES:
                solve_fn(name, context)(tiny_queries[0])
        assert built == []
        KeywordTreeIndex(tiny_dataset, 4, [1, 0])
        assert len(built) == 1


class TestNNSet:
    def test_compute(self, tiny_context, tiny_queries):
        query = tiny_queries[0]
        nn = tiny_context.nn_set(query)
        assert set(nn.by_keyword) == set(query.keywords)
        assert nn.d_f == pytest.approx(
            max(d for d, _ in nn.by_keyword.values())
        )
        # Deduplicated and ordered by oid.
        oids = [o.oid for o in nn.objects]
        assert oids == sorted(set(oids))

    def test_nn_objects_actually_nearest(self, tiny_context, tiny_dataset, tiny_queries):
        query = tiny_queries[0]
        nn = tiny_context.nn_set(query)
        for t, (dist, obj) in nn.by_keyword.items():
            assert t in obj.keywords
            for other in tiny_dataset:
                if t in other.keywords:
                    assert dist <= query.location.distance_to(other.location) + 1e-9

    def test_nnset_type(self, tiny_context, tiny_queries):
        assert isinstance(tiny_context.nn_set(tiny_queries[0]), NNSet)

    def test_infeasible_query_opens_no_stream(self, tiny_context):
        """The inverted index refuses the query before any index walk."""
        query = Query.create(0, 0, [0, 40_000, 40_001])
        context = chaos_context(tiny_context, FaultPlan())
        solves = [context.nn_set] + [
            make_algorithm(name, context).solve for name in ALGORITHM_NAMES
        ]
        for solve in solves:
            with pytest.raises(InfeasibleQueryError) as err:
                solve(query)
            assert err.value.missing_keywords == {40_000, 40_001}
        assert not any(
            method == "nearest_relevant_iter" for method, _ in context.index.call_log
        )


class TestRegistry:
    def test_names_listed(self):
        assert "maxsum-exact" in ALGORITHM_NAMES
        assert "dia-appro" in ALGORITHM_NAMES
        assert ALGORITHM_NAMES == tuple(sorted(ALGORITHM_NAMES))

    def test_every_algorithm_solves(self, tiny_context, tiny_queries):
        query = tiny_queries[0]
        for name in ALGORITHM_NAMES:
            result = solve_fn(name, tiny_context)(query)
            assert result.is_feasible_for(query), name

    def test_unknown_name_raises(self, tiny_context):
        with pytest.raises(InvalidParameterError):
            make_algorithm("nope", tiny_context)

    def test_cost_override(self, tiny_context, tiny_queries):
        algo = make_algorithm("cao-exact", tiny_context, cost=DiaCost())
        assert isinstance(algo.cost, DiaCost)
        reference = make_algorithm("dia-exact", tiny_context)
        for query in tiny_queries[:3]:
            assert algo.solve(query).cost == pytest.approx(
                reference.solve(query).cost, rel=1e-6
            )

    def test_paper_algorithms_have_fixed_default_costs(self, tiny_context):
        assert isinstance(make_algorithm("maxsum-exact", tiny_context).cost, MaxSumCost)
        assert isinstance(make_algorithm("dia-exact", tiny_context).cost, DiaCost)
        assert make_algorithm("sum-greedy", tiny_context).cost.name == "sum"

    def test_exactness_flags(self, tiny_context):
        assert make_algorithm("maxsum-exact", tiny_context).exact
        assert not make_algorithm("maxsum-appro", tiny_context).exact
        assert make_algorithm("bruteforce", tiny_context).exact
