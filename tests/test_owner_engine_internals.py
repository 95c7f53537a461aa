"""White-box tests for the owner-driven engine: cost inversions, the
rejected-distance report of the cover search and the diameter search."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cover_inputs, make_near_tie_instance, optimum
from repro.algorithms.base import SearchContext
from repro.algorithms.cover import find_constrained_cover, iter_covers
from repro.algorithms.dia_exact import DiaExact
from repro.algorithms.maxsum_exact import MaxSumExact
from repro.algorithms.owner_appro import greedy_completion_near
from repro.cost.base import Combiner, pairwise_max_distance
from repro.cost.functions import ALL_COSTS, DiaCost, MaxCost, MaxSumCost
from repro.cost.unified import INTERESTING_SETTINGS, UnifiedCost
from repro.data.queries import generate_queries
from repro.errors import BudgetExceededError
from repro.geometry.point import Point
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.query import Query

#: Every cost the closed forms serve: the named costs, the unified
#: settings, and MaxSum at two more weights.
COSTS = (
    [factory() for factory in ALL_COSTS.values()]
    + [UnifiedCost(*setting) for setting in INTERESTING_SETTINGS]
    + [MaxSumCost(alpha=0.3), MaxSumCost(alpha=0.9)]
)

magnitudes = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)


def fixup_step(cost, value, bound):
    """The resolution of a budget near ``bound``: the smallest change of
    the pairwise component that can move the cost there."""
    return max(math.ulp(value), math.ulp(bound) / cost.pairwise_weight)


class TestPairwiseBudget:
    def test_maxsum_closed_form(self):
        # 0.5 q + 0.5 c >= bound  <=>  c >= 2 bound - q
        assert MaxSumCost().pairwise_budget(4.0, 10.0) == 16.0

    def test_dia_closed_form(self):
        # max(q, c) >= bound  <=>  c >= bound (given q < bound)
        assert DiaCost().pairwise_budget(4.0, 10.0) == 10.0

    def test_hopeless_owner(self):
        assert DiaCost().pairwise_budget(12.0, 10.0) == -1.0
        assert MaxSumCost().pairwise_budget(20.0, 10.0) == -1.0

    def test_pairwise_free_cost_gives_infinity(self):
        assert math.isinf(MaxCost().pairwise_budget(4.0, 10.0))

    @given(magnitudes, magnitudes)
    @settings(max_examples=60)
    @example(4.0, 10.0)
    @example(0.0, 5e-324)
    # A query term far above the pairwise one: the cost moves in ulps
    # of ``bound``, a million ulps of the budget.
    @example(1e10, 5e9 + 1e-3)
    @example(1e300, 1e300)
    def test_budget_is_a_valid_sup(self, q, bound):
        for cost in COSTS:
            budget = cost.pairwise_budget(q, bound)
            if cost.combine(q, 0.0) >= bound:
                assert budget == -1.0, cost
                continue
            assert budget > 0.0, cost
            if cost.pairwise_weight is None:
                assert budget == math.inf, cost
                continue
            assert cost.combine(q, budget) >= bound, cost
            step = fixup_step(cost, budget, bound)
            assert cost.combine(q, budget - 4.0 * step) < bound, cost


class TestIndifferentCap:
    def test_additive_cap_is_the_lower_bound(self):
        assert MaxSumCost().indifferent_cap(5.0, 2.0) == 2.0

    def test_dia_cap_extends_to_query_component(self):
        # Under max(r, d12) every diameter up to r costs the same.
        assert DiaCost().indifferent_cap(5.0, 2.0) == 5.0

    def test_dia_cap_with_dominant_pairwise(self):
        assert DiaCost().indifferent_cap(2.0, 5.0) == 5.0

    @given(magnitudes, magnitudes)
    @settings(max_examples=60)
    @example(5.0, 2.0)
    @example(1e10, 1e-3)
    def test_cap_never_costs_more(self, q, lb):
        for cost in COSTS:
            cap = cost.indifferent_cap(q, lb)
            assert cap >= lb, cost
            assert cost.combine(q, cap) <= cost.combine(q, lb), cost
            if cost.pairwise_weight is None:
                assert cap == math.inf, cost
            elif cost.combiner is Combiner.ADD:
                assert cap == lb, cost
            elif cost.query_weight == cost.pairwise_weight == 1.0:
                assert cap == max(q, lb), cost


#: Candidate rows for the cover-search properties: small integer
#: grids scaled by 1/3 and 1/7, so distances tie and near-tie often.
candidate_rows = st.lists(
    st.tuples(
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 3)]),
    ),
    min_size=1,
    max_size=9,
)


#: The owner every rejection-report and cover-property search is
#: anchored at: keyword-less, at the origin.
OWNER = SpatialObject(99, Point(0.0, 0.0), frozenset())

UNCOVERED = frozenset({1, 2, 3})


def grid_candidates(rows):
    return [
        SpatialObject(i, Point(x / 3.0, y / 7.0), frozenset(k))
        for i, (x, y, k) in enumerate(rows)
    ]


def search(candidates, cap):
    """``(cover objects or None, beyond)`` of the owner's cover search."""
    tables, xs, ys, masks = cover_inputs(OWNER.location, candidates, UNCOVERED)
    if tables is None:
        return None, math.inf
    cover, beyond = find_constrained_cover(tables, cap, xs, ys, masks)
    if cover is None:
        return None, beyond
    return [candidates[i] for i in cover], beyond


class TestRejectionReport:
    @given(candidate_rows, st.floats(0.0, 8.0))
    @settings(max_examples=80)
    def test_caps_below_the_reported_distance_fail(self, rows, cap):
        candidates = grid_candidates(rows)
        cover, beyond = search(candidates, cap)
        if cover is not None:
            return
        assert beyond > cap
        probes = [cap, math.nextafter(beyond, 0.0)]
        if not math.isinf(beyond):
            probes.append((cap + beyond) / 2.0)
        for probe in probes:
            if cap <= probe < beyond:
                assert search(candidates, probe)[0] is None

    def test_reports_the_nearest_rejection(self):
        near = SpatialObject(0, Point(-6.0, 0.0), frozenset({1}))
        far = SpatialObject(1, Point(6.0, 0.0), frozenset({2}))
        tables, xs, ys, masks = cover_inputs(OWNER.location, [near, far], {1, 2})
        # The pair check rejects the 12 between the candidates ...
        assert find_constrained_cover(tables, 10.0, xs, ys, masks) == (None, 12.0)
        # ... the owner filter the 6 between each and the owner.
        assert find_constrained_cover(tables, 5.0, xs, ys, masks) == (None, 6.0)


class TestCoverSearchProperty:
    @given(candidate_rows, st.one_of(st.floats(0.0, 8.0), st.integers(0, 99)))
    @settings(max_examples=150)
    # One carrier per keyword in a row, 3 apart: every consecutive pair
    # fits a cap of 3, the two ends do not.
    @example([(-9, 0, (1,)), (0, 0, (2,)), (9, 0, (3,))], 3.0)
    def test_finds_a_cover_iff_one_fits_the_cap(self, rows, pick):
        """Complete and sound against the brute-force cover enumeration.

        A float ``pick`` is the cap; an int picks one of the realized
        owner and pair distances, so that ties at the cap occur.
        """
        candidates = grid_candidates(rows)
        members = [OWNER] + candidates
        if isinstance(pick, int):
            realized = sorted(
                {a.location.distance_to(b.location) for a in members for b in members}
            )
            cap = realized[pick % len(realized)]
        else:
            cap = pick
        diameters = [
            pairwise_max_distance([OWNER] + cover)
            for cover in iter_covers(UNCOVERED, candidates)
        ]
        cover, _ = search(candidates, cap)
        assert (cover is not None) == any(d <= cap for d in diameters)
        if cover is not None:
            assert pairwise_max_distance([OWNER] + cover) <= cap
            covered = frozenset().union(*(o.keywords for o in cover))
            assert UNCOVERED <= covered


class TestDiameterSearch:
    def test_adjacent_float_bracket_closes(self):
        # Owner oid 4 completes with the b–c pair 6 apart (oids 2, 3) or
        # the one a single ulp farther (oids 0, 1), which the cover
        # search finds first; both price the set at 54.0.  The bracket
        # reaches [6, nextafter(6)], whose midpoint rounds onto an end.
        six_up = math.nextafter(6.0, 7.0)
        rows = (
            (-3.0, -1.0, "b"),
            (3.0 + (six_up - 6.0), -1.0, "c"),
            (-3.0, 1.0, "b"),
            (3.0, 1.0, "c"),
            (0.0, 2.0, "a"),
            (-50.0, -100.0, "b"),
            (50.0, -100.0, "c"),
        )
        dataset = Dataset.from_records(
            ((x, y, words.split()) for x, y, words in rows), name="adjacent"
        )
        context = SearchContext(dataset)
        query = Query.from_words(0.0, -100.0, ["a", "b", "c"], dataset.vocabulary)
        result = MaxSumExact(context).solve(query)
        assert sorted(o.oid for o in result.objects) == [2, 3, 4]
        assert pairwise_max_distance(list(result.objects)) == 6.0
        assert result.cost == optimum(context, query, MaxSumCost()).cost
        assert result.counters["bisection_probes"] <= 3

    def test_benchmark_counters_are_reported(self):
        # perf/run.py reads these names; a missing one would read as 0.
        _, context, (query,) = make_near_tie_instance()
        counters = MaxSumExact(context).solve(query).counters
        for name in (
            "owners_tried",
            "candidates_scanned",
            "bisection_probes",
            "cover_probes",
            "covers_found",
            "cost_evaluations",
        ):
            assert counters.get(name, 0) > 0, name

    def test_cover_budget_cut_raises(self, tiny_dataset, tiny_context):
        # A node budget of 2 cuts some probes short.  A cut probe proves
        # nothing, so the solver must fail typed rather than answer.
        solver = DiaExact(tiny_context, cover_node_budget=2)
        uncut = DiaExact(tiny_context)
        raised = 0
        for query in generate_queries(tiny_dataset, 4, 10, seed=5):
            try:
                result = solver.solve(query)
            except BudgetExceededError as error:
                raised += 1
                assert error.counter == "cover_nodes"
                assert error.counters["cover_probes"] >= 1
                continue
            assert result.cost == uncut.solve(query).cost
        assert raised


class TestGreedyCompletionNear:
    """Candidates are ``(x, y, oid, mask)`` rows; the anchor sits at the origin."""

    def test_picks_nearest_first(self):
        near = (1.0, 0.0, 0, 0b01)
        far = (5.0, 0.0, 1, 0b11)
        assert greedy_completion_near(0.0, 0.0, 0b11, [far, near]) == [0, 1]

    def test_returns_none_when_uncoverable(self):
        only = (1.0, 0.0, 0, 0b01)
        assert greedy_completion_near(0.0, 0.0, 0b11, [only]) is None

    def test_empty_uncovered(self):
        assert greedy_completion_near(0.0, 0.0, 0, []) == []

    def test_skips_objects_covering_nothing_new(self):
        a = (1.0, 0.0, 0, 0b01)
        duplicate = (2.0, 0.0, 1, 0b01)
        b = (3.0, 0.0, 2, 0b10)
        assert greedy_completion_near(0.0, 0.0, 0b11, [a, duplicate, b]) == [0, 2]
