"""Shared machinery for CoSKQ algorithms.

:class:`SearchContext` bundles a dataset with the two indexes every
algorithm needs (IR-tree + inverted index), built lazily and shared, so a
benchmark can run many algorithms over the same data without re-indexing.

:class:`CoSKQAlgorithm` is the algorithm interface: construct against a
context (and usually a cost function), then call :meth:`solve` per query.
Common query-time primitives live here too: the feasibility check and
the nearest-neighbor set ``N(q)`` with its ``d_f`` lower bound, read
from the index's one ``(distance, oid)`` stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Type

from repro.cost.base import CostFunction
from repro.errors import InfeasibleQueryError
from repro.index.inverted import InvertedIndex
from repro.index.irtree import IRTree
from repro.index.protocol import SpatialTextIndex
from repro.index.signatures import shared_keywords
from repro.model.dataset import Dataset
from repro.utils.floatcmp import prune_cutoff
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.result import CoSKQResult

__all__ = ["SearchContext", "NNSet", "CoSKQAlgorithm", "minimal_subset"]


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
        query: Query, entries: Iterable[Tuple[float, SpatialObject]]
    ) -> "NNSet":
        """``N(q)`` from a ``(distance, oid)``-ordered stream of ``q.ψ`` carriers.

        ``NN(q, t)`` is the first entry that carries ``t``, so the
        stream's total order gives ties to the lowest oid.  Reading stops
        once every query keyword has its carrier; a stream that ends
        first raises :class:`InfeasibleQueryError` with the keywords it
        never carried.
        """
        found: Dict[int, Tuple[float, SpatialObject]] = {}
        missing = query.keywords
        for dist, obj in entries:
            carried = shared_keywords(obj.keywords, missing)
            if carried:
                for t in carried:
                    found[t] = (dist, obj)
                missing = missing - carried
                if not missing:
                    break
        if missing:
            raise InfeasibleQueryError(missing)
        by_keyword = {t: found[t] for t in query.keywords}
        seen = {obj.oid: obj for _, obj in by_keyword.values()}
        ordered = tuple(seen[oid] for oid in sorted(seen))
        d_f = max(dist for dist, _ in by_keyword.values())
        return NNSet(by_keyword=by_keyword, objects=ordered, d_f=d_f)


class SearchContext:
    """A dataset plus lazily built, shared indexes."""

    def __init__(
        self,
        dataset: Dataset,
        max_entries: int = 16,
        index_cls: Type[SpatialTextIndex] = IRTree,
    ):
        self.dataset = dataset
        self.max_entries = max_entries
        self._index_cls = index_cls
        self._index: Optional[SpatialTextIndex] = None
        self._inverted: Optional[InvertedIndex] = None

    @property
    def index(self) -> SpatialTextIndex:
        """The IR-tree (or any :class:`SpatialTextIndex`) over the dataset.

        The build is atomic: the index is constructed into a local and
        cached only once fully built, so a ``KeyboardInterrupt`` (or any
        error) mid-build can never leave a half-built index cached — the
        next access simply rebuilds from scratch.
        """
        if self._index is None:
            built = self._index_cls.build(
                self.dataset, max_entries=self.max_entries
            )
            self._index = built
        return self._index

    @property
    def inverted(self) -> InvertedIndex:
        """The inverted index, built atomically like :attr:`index`."""
        if self._inverted is None:
            built = InvertedIndex(self.dataset)
            self._inverted = built
        return self._inverted

    def with_index(self, index: SpatialTextIndex) -> "SearchContext":
        """A sibling context over the same dataset with ``index`` swapped in.

        The inverted index is built once, here if not before, and shared
        (it is keyword-only, so wrappers around the spatial index — chaos
        injection, restricted shard views — do not affect it).  Used by
        :func:`repro.exec.chaos.chaos_context` and the shard engine.
        """
        clone = SearchContext(
            self.dataset, max_entries=self.max_entries, index_cls=self._index_cls
        )
        clone._index = index
        clone._inverted = self.inverted
        return clone

    # -- query-time primitives shared by the algorithms ---------------------

    def check_feasible(self, query: Query) -> None:
        """Raise :class:`InfeasibleQueryError` if coverage is impossible."""
        missing = self.inverted.missing_keywords(query.keywords)
        if missing:
            raise InfeasibleQueryError(missing)

    def nn_set(self, query: Query) -> NNSet:
        """``N(q)`` with its ``d_f`` bound, from one stream over ``q.ψ``.

        An infeasible query raises before any stream is opened.
        """
        self.check_feasible(query)
        return NNSet.from_stream(
            query, self.index.nearest_relevant_iter(query.location, query.keywords)
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
    def solve(
        self, query: Query, initial_upper_bound: Optional[float] = None
    ) -> CoSKQResult:
        """Return a feasible set (optimal when :attr:`exact`) for ``query``.

        ``initial_upper_bound``, when given, must be the cost of some
        feasible solution for this query under this algorithm's cost
        function — e.g. the result of the structural appro seeder
        (see :mod:`repro.algorithms.seeding`).  Exact solvers
        prune against it from the first node (through
        :func:`repro.utils.floatcmp.prune_cutoff`, so seeded and
        unseeded runs return bit-identical costs); approximation
        solvers, whose published ratio arguments do not account for an
        external incumbent, accept and ignore it.  Passing a value that
        is *not* a feasible cost voids the exactness guarantee.

        Raises :class:`~repro.errors.InfeasibleQueryError` when the
        query keywords cannot be covered by any object set.
        """

    def _pruning_bound(
        self, achieved: float, initial_upper_bound: Optional[float]
    ) -> float:
        """The effective pruning bound for exact searches.

        ``achieved`` is the cost of an incumbent the search has already
        constructed (it may be returned as-is, so no slack applies);
        the external bound is slacked through :func:`prune_cutoff` so a
        cost exactly equal to it is explored rather than pruned.
        """
        if initial_upper_bound is None:
            return achieved
        return min(achieved, prune_cutoff(initial_upper_bound))

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


def minimal_subset(
    query: Query, objects: Tuple[SpatialObject, ...] | List[SpatialObject]
) -> List[SpatialObject]:
    """Drop objects that contribute no exclusive query keyword.

    Greedy reverse sweep: an object is removed (all instances of its
    oid at once) when the remaining ones still cover ``q.ψ``.  For
    monotone costs this never increases the cost, so algorithms apply it
    before scoring candidate sets.

    Query distances are computed once for the sort and coverage is
    tracked with per-keyword counts updated incrementally — O(n·k +
    n log n) where the naive re-sort-and-rebuild sweep was O(n²·k) —
    with removal decisions identical to the naive sweep's.
    """
    instances = list(objects)
    qloc = query.location
    order = sorted(
        range(len(instances)),
        key=lambda i: -qloc.distance_to(instances[i].location),
    )
    # Per-keyword carrier counts over the kept multiset, restricted to
    # the query keywords (the only ones the coverage test reads).
    counts: Dict[int, int] = {t: 0 for t in query.keywords}
    group_size: Dict[int, int] = {}
    group_counts: Dict[int, Dict[int, int]] = {}
    for obj in instances:
        group_size[obj.oid] = group_size.get(obj.oid, 0) + 1
        contribution = group_counts.setdefault(obj.oid, {})
        for t in shared_keywords(obj.keywords, query.keywords):
            counts[t] += 1
            contribution[t] = contribution.get(t, 0) + 1
    if any(count == 0 for count in counts.values()):
        # The set never covers the query, so no removal can pass the
        # coverage test — exactly what the naive sweep concludes.
        return instances
    kept_size = len(instances)
    removed: set[int] = set()
    for i in order:
        oid = instances[i].oid
        if oid in removed:
            continue  # a duplicate instance; the whole group is gone
        size = group_size[oid]
        if kept_size - size <= 0:
            continue
        contribution = group_counts[oid]
        if any(counts[t] - c <= 0 for t, c in contribution.items()):
            continue  # removal would uncover some query keyword
        removed.add(oid)
        kept_size -= size
        for t, c in contribution.items():
            counts[t] -= c
    return [o for o in instances if o.oid not in removed]
