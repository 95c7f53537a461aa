"""Property-based checks of cost-function algebra (hypothesis).

**MaxSum/Dia sandwich.**  Writing ``a = max d(o,q)`` and ``b = diam(S)``,
the implementation evaluates MaxSum as ``0.5·a + 0.5·b`` (α = 0.5) and
Dia as ``max(a, b)``, so for every feasible set
``maxsum(S) ≤ dia(S) ≤ 2·maxsum(S)`` — the unweighted paper form's
``dia ≤ maxsum ≤ 2·dia`` scaled by the α = 0.5 factor.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.cost.functions import DiaCost, MaxSumCost
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.utils.floatcmp import EPSILON, float_leq

COORD = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
KEYWORD_IDS = st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=3)


@st.composite
def feasible_instance(draw):
    """A query plus a set of objects that collectively cover it.

    Built per-keyword: every query keyword gets at least one carrier
    object, so feasibility holds by construction.
    """
    query_keywords = draw(st.sets(st.integers(0, 6), min_size=1, max_size=4))
    query = Query.create(draw(COORD), draw(COORD), query_keywords)
    objects = []
    for oid, keyword in enumerate(sorted(query_keywords)):
        extra = draw(KEYWORD_IDS)
        objects.append(
            SpatialObject.create(
                oid, draw(COORD), draw(COORD), {keyword} | extra
            )
        )
    # A few extra objects beyond one carrier per keyword.
    for oid in range(len(objects), len(objects) + draw(st.integers(0, 3))):
        objects.append(
            SpatialObject.create(oid, draw(COORD), draw(COORD), draw(KEYWORD_IDS))
        )
    return query, objects


class TestMaxSumDiaSandwich:
    @given(feasible_instance())
    def test_maxsum_at_most_dia(self, instance):
        query, objects = instance
        maxsum = MaxSumCost().evaluate(query, objects)
        dia = DiaCost().evaluate(query, objects)
        assert float_leq(maxsum, dia)

    @given(feasible_instance())
    def test_dia_at_most_twice_maxsum(self, instance):
        query, objects = instance
        maxsum = MaxSumCost().evaluate(query, objects)
        dia = DiaCost().evaluate(query, objects)
        assert float_leq(dia, 2.0 * maxsum)

    @given(feasible_instance())
    def test_costs_nonnegative(self, instance):
        query, objects = instance
        assert MaxSumCost().evaluate(query, objects) >= -EPSILON
        assert DiaCost().evaluate(query, objects) >= -EPSILON

    @given(feasible_instance())
    def test_single_object_costs_agree(self, instance):
        # With |S| = 1 the diameter is 0, so dia = d(o,q) and
        # maxsum = 0.5·d(o,q): the sandwich is tight at the upper end.
        query, objects = instance
        solo = objects[:1]
        maxsum = MaxSumCost().evaluate(query, solo)
        dia = DiaCost().evaluate(query, solo)
        assert float_leq(dia, 2.0 * maxsum) and float_leq(2.0 * maxsum, dia)
