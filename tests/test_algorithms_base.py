"""Tests for the shared algorithm machinery (context, N(q), helpers)."""

import pytest

from repro.algorithms.base import NNSet, SearchContext, minimal_subset
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm
from repro.cost.functions import DiaCost, MaxSumCost, cost_by_name
from repro.errors import InfeasibleQueryError, InvalidParameterError
from repro.exec import FaultPlan, chaos_context
from repro.geometry.point import Point
from repro.index.irtree import IRTree
from repro.index.neighbors import LinearScanIndex
from repro.model.objects import SpatialObject
from repro.model.query import Query


class TestSearchContext:
    def test_index_is_lazy_and_cached(self, tiny_dataset):
        context = SearchContext(tiny_dataset)
        assert context._index is None
        index = context.index
        assert isinstance(index, IRTree)
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


class TestMinimalSubset:
    def _obj(self, oid, x, y, keywords):
        return SpatialObject(oid, Point(x, y), frozenset(keywords))

    def test_drops_redundant_objects(self):
        query = Query.create(0, 0, [1, 2])
        rich = self._obj(0, 1, 0, [1, 2])
        redundant = self._obj(1, 50, 0, [1])
        kept = minimal_subset(query, [rich, redundant])
        assert [o.oid for o in kept] == [0]

    def test_keeps_necessary_objects(self):
        query = Query.create(0, 0, [1, 2])
        a = self._obj(0, 1, 0, [1])
        b = self._obj(1, 2, 0, [2])
        kept = minimal_subset(query, [a, b])
        assert sorted(o.oid for o in kept) == [0, 1]

    def test_prefers_dropping_far_objects(self):
        query = Query.create(0, 0, [1])
        near = self._obj(0, 1, 0, [1])
        far = self._obj(1, 100, 0, [1])
        kept = minimal_subset(query, [near, far])
        assert [o.oid for o in kept] == [0]


class TestRegistry:
    def test_names_listed(self):
        assert "maxsum-exact" in ALGORITHM_NAMES
        assert "dia-appro" in ALGORITHM_NAMES
        assert ALGORITHM_NAMES == tuple(sorted(ALGORITHM_NAMES))

    def test_every_algorithm_solves(self, tiny_context, tiny_queries):
        query = tiny_queries[0]
        for name in ALGORITHM_NAMES:
            algorithm = make_algorithm(name, tiny_context)
            result = algorithm.solve(query)
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
