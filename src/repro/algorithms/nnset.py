"""The nearest-neighbor-set baseline: return ``N(q)``.

``N(q)`` picks, for each query keyword ``t``, the object ``NN(q, t)``
nearest to the query that carries ``t``.  It is:

- Cao et al.'s first approximation for the MaxSum cost (3-approximate),
- 3-approximate for the Dia cost as well,
- *optimal* for the Max cost (each keyword is served by its closest
  possible carrier, and only the farthest query distance counts),
- the source of the universal lower bound ``d_f = max_{o∈N(q)} d(o, q)``
  that every other algorithm prunes with.
"""

from __future__ import annotations

from repro.algorithms.base import CoSKQAlgorithm
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["NNSetAlgorithm"]


class NNSetAlgorithm(CoSKQAlgorithm):
    """Return the deduplicated nearest-neighbor set ``N(q)``."""

    name = "nn-set"
    exact = False
    ratio = 3.0
    ratio_cost = "maxsum"

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        nn = self.context.nn_set(query)
        self._bump("nn_lookups", query.size)
        cost_value = self._evaluate(query, nn.objects)
        return self._result(nn.objects, cost_value)
