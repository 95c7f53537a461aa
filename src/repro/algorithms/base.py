"""Shared machinery for CoSKQ algorithms.

:class:`SearchContext` bundles a dataset with the spatial index every
algorithm needs (the keyword trees), built lazily and shared, so a
benchmark can run many algorithms over the same data without re-indexing.
The keyword postings belong to the dataset itself.

:class:`CoSKQAlgorithm` is the algorithm interface: construct against a
context (and usually a cost function), then call :meth:`solve` per query.
Common query-time primitives live here too: the feasibility check and
the nearest-neighbor set ``N(q)`` with its ``d_f`` lower bound, read
from the index's one ``(distance, oid, mask)`` stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Type

from repro.cost.base import CostFunction
from repro.errors import InfeasibleQueryError
from repro.index.keyword_trees import KeywordTreeIndex
from repro.index.protocol import SpatialTextIndex
from repro.index.signatures import bits_of, query_keyword_of_bit
from repro.model.dataset import Dataset, Postings
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["SearchContext", "NNSet", "CoSKQAlgorithm"]


@dataclass(frozen=True)
class NNSet:
    """The paper's nearest-neighbor set ``N(q)`` plus derived bounds.

    ``by_keyword`` maps each query keyword ``t`` to ``(d, NN(q, t))``;
    ``objects`` is the deduplicated object set; ``d_f`` is
    ``max_{o∈N(q)} d(o, q)`` — the radius below which no feasible set can
    keep its farthest member, hence the universal lower bound used by
    every pruning rule in the paper.
    """

    by_keyword: Dict[int, Tuple[float, SpatialObject]]
    objects: Tuple[SpatialObject, ...]
    d_f: float

    @staticmethod
    def from_stream(
        query: Query, entries: Iterable[Tuple[float, int, int]], dataset: Dataset
    ) -> "NNSet":
        """``N(q)`` from a ``(distance, oid)``-ordered stream of ``q.ψ`` carriers.

        ``NN(q, t)`` is the first entry whose mask carries ``t``'s bit,
        so the stream's total order gives ties to the lowest oid.
        Reading stops once every query keyword has its carrier; a stream
        that ends first raises :class:`InfeasibleQueryError` with the
        keywords it never carried.  Only the members are built from
        ``dataset``.
        """
        keyword_of = query_keyword_of_bit(query.keywords)
        found: Dict[int, Tuple[float, int]] = {}
        missing = (1 << len(keyword_of)) - 1
        for dist, oid, mask in entries:
            carried = mask & missing
            if carried:
                for b in bits_of(carried):
                    found[keyword_of[b]] = (dist, oid)
                missing &= ~carried
                if not missing:
                    break
        if missing:
            raise InfeasibleQueryError(frozenset(keyword_of[b] for b in bits_of(missing)))
        members = {oid: dataset[oid] for _, oid in found.values()}
        by_keyword = {t: (found[t][0], members[found[t][1]]) for t in query.keywords}
        ordered = tuple(members[oid] for oid in sorted(members))
        d_f = max(dist for dist, _ in by_keyword.values())
        return NNSet(by_keyword=by_keyword, objects=ordered, d_f=d_f)


class SearchContext:
    """A dataset plus its lazily built, shared spatial index."""

    def __init__(
        self,
        dataset: Dataset,
        index_cls: Type[SpatialTextIndex] = KeywordTreeIndex,
    ):
        self.dataset = dataset
        self._index_cls = index_cls
        self._index: Optional[SpatialTextIndex] = None

    @property
    def index(self) -> SpatialTextIndex:
        """The keyword-tree index (or any :class:`SpatialTextIndex`) over the dataset.

        The build is atomic: the index is constructed into a local and
        cached only once fully built, so a ``KeyboardInterrupt`` (or any
        error) mid-build can never leave a half-built index cached — the
        next access simply rebuilds from scratch.
        """
        if self._index is None:
            built = self._index_cls.build(self.dataset)
            self._index = built
        return self._index

    @property
    def inverted(self) -> Postings:
        """The dataset's keyword postings, built with the dataset.

        Builds nothing; kept for callers that warm a context up by
        reading it.
        """
        return self.dataset.postings

    def with_index(self, index: SpatialTextIndex) -> "SearchContext":
        """A sibling context over the same dataset with ``index`` swapped in.

        The dataset, and with it the keyword postings, is shared, so
        wrappers around the spatial index — chaos injection, restricted
        shard views — do not affect feasibility.  Used by
        :func:`repro.exec.chaos.chaos_context` and the shard engine.
        """
        clone = SearchContext(self.dataset, index_cls=self._index_cls)
        clone._index = index
        return clone

    # -- query-time primitives shared by the algorithms ---------------------

    def check_feasible(self, query: Query) -> None:
        """Raise :class:`InfeasibleQueryError` if coverage is impossible."""
        missing = self.dataset.missing_keywords(query.keywords)
        if missing:
            raise InfeasibleQueryError(missing)

    def nn_set(self, query: Query) -> NNSet:
        """``N(q)`` with its ``d_f`` bound, from one stream over ``q.ψ``.

        An infeasible query raises before any stream is opened.
        """
        self.check_feasible(query)
        return NNSet.from_stream(
            query,
            self.index.nearest_relevant_iter(query.location, query.keywords),
            self.dataset,
        )


class CoSKQAlgorithm(ABC):
    """Interface of every CoSKQ solver in the library."""

    #: Identifier used in result provenance and the benchmark reports.
    name: str = "coskq"

    #: Whether the algorithm guarantees the optimal cost.
    exact: bool = False

    #: Proven approximation ratio (None when no published bound exists).
    #: The runtime contract layer (:mod:`repro.analysis.contracts`)
    #: cross-checks results against ``ratio × optimum`` on instances
    #: small enough for the brute-force oracle.
    ratio: Optional[float] = None

    #: Name of the cost function :attr:`ratio` is proven for; the bound
    #: only holds when the algorithm runs that cost (at its paper-default
    #: weighting).
    ratio_cost: Optional[str] = None

    def __init__(self, context: SearchContext, cost: CostFunction):
        self.context = context
        self.cost = cost
        #: Work counters for the ablation benchmarks; reset per solve().
        self.counters: Dict[str, int] = {}
        #: Optional cooperative-cancellation hook (duck-typed to
        #: :class:`repro.exec.Budget`: ``tick(amount, counters=...)`` and
        #: ``checkpoint(counters=...)``).  When set, every ``_bump`` ticks
        #: it, so long searches abort promptly with a typed
        #: :class:`~repro.errors.BudgetExceededError` /
        #: :class:`~repro.errors.DeadlineExceededError` carrying partial
        #: progress.  Attached per attempt by the resilient executor
        #: (:mod:`repro.exec.executor`); ``None`` costs one attribute
        #: check per bump.
        self.budget = None

    @abstractmethod
    def solve(self, query: Query) -> CoSKQResult:
        """Return a feasible set (optimal when :attr:`exact`) for ``query``.

        Raises :class:`~repro.errors.InfeasibleQueryError` when the
        query keywords cannot be covered by any object set.
        """

    # -- helpers for subclasses -------------------------------------------------

    def _reset_counters(self) -> None:
        self.counters = {}

    def _bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount
        if self.budget is not None:
            self.budget.tick(amount, counters=self.counters)

    def _checkpoint(self) -> None:
        """Probe the deadline without charging work (for coarse loops)."""
        if self.budget is not None:
            self.budget.checkpoint(counters=self.counters)

    def _result(self, objects, cost_value: float) -> CoSKQResult:
        return CoSKQResult.of(
            objects, cost_value, self.name, counters=dict(self.counters)
        )

    def _evaluate(self, query: Query, objects) -> float:
        objects = list(objects)
        self._bump("cost_evaluations")
        return self.cost.evaluate(query, objects)

    def __repr__(self) -> str:
        return "%s(cost=%s)" % (type(self).__name__, self.cost.name)
