"""Adversarial edge cases for the solvers: ties, co-location, degeneracy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import optimum
from repro.algorithms.base import SearchContext
from repro.algorithms.dia_exact import DiaExact
from repro.algorithms.maxsum_appro import MaxSumAppro
from repro.algorithms.maxsum_exact import MaxSumExact
from repro.cost.functions import DiaCost, MaxSumCost
from repro.errors import DatasetFormatError, InvalidParameterError
from repro.geometry.point import Point
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.vocabulary import Vocabulary

TOL = 1e-6


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def dataset_from(coords_and_keywords):
    vocabulary = Vocabulary()
    objects = []
    for oid, (x, y, words) in enumerate(coords_and_keywords):
        keyword_ids = frozenset(vocabulary.add(w) for w in words)
        objects.append(SpatialObject(oid, Point(x, y), keyword_ids))
    return Dataset(objects, vocabulary, name="edge")


class TestColocated:
    def test_all_objects_at_one_point(self):
        ds = dataset_from([(5.0, 5.0, ["a"]), (5.0, 5.0, ["b"]), (5.0, 5.0, ["c"])])
        context = SearchContext(ds)
        query = Query.from_words(0.0, 0.0, ["a", "b", "c"], ds.vocabulary)
        exact = MaxSumExact(context).solve(query)
        # All at distance sqrt(50), diameter 0.
        assert exact.cost == pytest.approx(0.5 * (50 ** 0.5))
        dia = DiaExact(context).solve(query)
        assert dia.cost == pytest.approx(50 ** 0.5)

    def test_object_exactly_at_query_location(self):
        ds = dataset_from([(0.0, 0.0, ["a", "b"]), (9.0, 0.0, ["a", "b"])])
        context = SearchContext(ds)
        query = Query.from_words(0.0, 0.0, ["a", "b"], ds.vocabulary)
        exact = MaxSumExact(context).solve(query)
        assert exact.cost == pytest.approx(0.0)
        assert exact.object_ids == (0,)

    def test_duplicate_objects_same_trace(self):
        # Many identical objects must not confuse the cover search.
        rows = [(1.0, 1.0, ["a"])] * 10 + [(2.0, 2.0, ["b"])] * 10
        ds = dataset_from(rows)
        context = SearchContext(ds)
        query = Query.from_words(0.0, 0.0, ["a", "b"], ds.vocabulary)
        exact = MaxSumExact(context).solve(query)
        oracle = optimum(context, query, MaxSumCost())
        assert close(exact.cost, oracle.cost)


class TestTies:
    def test_symmetric_candidates(self):
        # Four symmetric single-keyword carriers: many optimal sets tie;
        # any of them is acceptable, the cost must equal the oracle's.
        ds = dataset_from(
            [
                (1.0, 0.0, ["a"]),
                (-1.0, 0.0, ["a"]),
                (0.0, 1.0, ["b"]),
                (0.0, -1.0, ["b"]),
            ]
        )
        context = SearchContext(ds)
        query = Query.from_words(0.0, 0.0, ["a", "b"], ds.vocabulary)
        oracle = optimum(context, query, MaxSumCost())
        exact = MaxSumExact(context).solve(query)
        assert close(exact.cost, oracle.cost)
        appro = MaxSumAppro(context).solve(query)
        assert appro.cost <= 1.375 * oracle.cost + TOL

    def test_single_object_covers_everything_far_away(self):
        # One distant all-covering object vs a near scattered pair: the
        # exact solver must pick whichever is genuinely cheaper.
        ds = dataset_from(
            [
                (100.0, 0.0, ["a", "b"]),
                (1.0, 0.0, ["a"]),
                (0.0, 1.0, ["b"]),
            ]
        )
        context = SearchContext(ds)
        query = Query.from_words(0.0, 0.0, ["a", "b"], ds.vocabulary)
        exact = MaxSumExact(context).solve(query)
        assert set(exact.object_ids) == {1, 2}


class TestAlphaVariants:
    @given(st.floats(0.1, 1.0), st.integers(0, 5_000))
    @settings(max_examples=12)
    def test_exact_matches_oracle_for_any_alpha(self, alpha, seed):
        from repro.data.generators import uniform_dataset
        from repro.data.queries import generate_queries

        dataset = uniform_dataset(50, 8, mean_keywords=2.0, seed=seed)
        context = SearchContext(dataset)
        cost = MaxSumCost(alpha=alpha)
        query = generate_queries(
            dataset, 3, 1, percentile_range=(0.0, 1.0), seed=seed + 1
        )[0]
        from repro.algorithms.owner_exact import OwnerDrivenExact

        oracle = optimum(context, query, MaxSumCost(alpha=alpha))
        exact = OwnerDrivenExact(context, cost).solve(query)
        assert close(exact.cost, oracle.cost)


class TestDegenerateQueries:
    def test_repeated_keyword_ids_collapse(self):
        ds = dataset_from([(1.0, 0.0, ["a"])])
        query = Query.create(0.0, 0.0, [0, 0, 0])
        assert query.size == 1

    @pytest.mark.parametrize(
        "x, y", [(float("nan"), 0.0), (float("inf"), 0.0), (0.0, float("-inf"))]
    )
    def test_non_finite_coordinates_are_rejected(self, x, y):
        ds = dataset_from([(0.0, 0.0, ["a"]), (1.0, 0.0, ["b"])])
        with pytest.raises(InvalidParameterError):
            Query.create(x, y, [0, 1])
        with pytest.raises(InvalidParameterError):
            Query.from_words(x, y, ["a", "b"], ds.vocabulary)
        row = "%r\t%r\ta" % (x, y)
        with pytest.raises(DatasetFormatError, match="line 2"):
            Dataset.parse(["0.0\t0.0\ta", row])

    def test_query_far_outside_data(self):
        ds = dataset_from([(0.0, 0.0, ["a"]), (1.0, 0.0, ["b"])])
        context = SearchContext(ds)
        query = Query.from_words(1e6, 1e6, ["a", "b"], ds.vocabulary)
        exact = MaxSumExact(context).solve(query)
        oracle = optimum(context, query, MaxSumCost())
        assert close(exact.cost, oracle.cost)

    def test_dia_with_distant_query(self):
        # Far queries make the query-distance term dominate the diameter;
        # the Dia fast path (cap = r probe) must stay correct.
        ds = dataset_from(
            [(0.0, 0.0, ["a"]), (3.0, 0.0, ["b"]), (0.0, 4.0, ["c"])]
        )
        context = SearchContext(ds)
        query = Query.from_words(1000.0, 1000.0, ["a", "b", "c"], ds.vocabulary)
        oracle = optimum(context, query, DiaCost())
        exact = DiaExact(context).solve(query)
        assert close(exact.cost, oracle.cost)
