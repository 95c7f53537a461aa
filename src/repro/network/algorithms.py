"""CoSKQ over road-network distance (extension; the paper's future work).

Every distance in the cost function becomes a shortest-path distance:
``d(o, q)`` from the (snapped) query node, ``d(o1, o2)`` between object
nodes.  The solver line-up mirrors the Euclidean one:

- :class:`NetworkNNSetAlgorithm` — ``N(q)`` by a single lazy Dijkstra
  expansion from the query node (the network analogue of per-keyword NN);
- :class:`NetworkGreedyAppro` — owner-driven approximation: owner
  candidates in ascending network distance (the expansion order *is* the
  ascending order), greedy completion by nearest-to-owner expansion;
- :class:`NetworkBnBExact` — best-first branch-and-bound over covers
  using the same admissible bound as the Euclidean baseline, with
  memoized single-source shortest paths.

The lens-region geometry of the Euclidean owner-driven exact search does
not transfer (triangle-inequality disks are much weaker under network
metrics), which is exactly why the paper left the network case open; the
BnB exact here is the honest baseline for that setting.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cost.base import CostFunction, QueryAggregate
from repro.errors import (
    BudgetExceededError,
    InfeasibleQueryError,
    InvalidParameterError,
)
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.network.dataset import NetworkDataset

__all__ = [
    "NetworkContext",
    "NetworkNNSetAlgorithm",
    "NetworkGreedyAppro",
    "NetworkBnBExact",
]


class NetworkContext:
    """Shared per-dataset state: the graph, the objects, distance memos."""

    def __init__(self, dataset: NetworkDataset):
        self.dataset = dataset
        self.network = dataset.network
        self._objects_by_node: Dict[int, List[SpatialObject]] = {}
        for obj in dataset:
            self._objects_by_node.setdefault(dataset.node_of[obj.oid], []).append(obj)

    def query_node(self, query: Query) -> int:
        """Snap the query location to its nearest network node."""
        return self.network.nearest_node(query.location)

    def object_node(self, obj: SpatialObject) -> int:
        return self.dataset.node_of[obj.oid]

    def object_distance(self, a: SpatialObject, b: SpatialObject) -> float:
        return self.network.distance(self.object_node(a), self.object_node(b))

    def distances_from_node(self, node: int) -> Dict[int, float]:
        return self.network.shortest_paths_from(node)

    def objects_on(self, node: int) -> List[SpatialObject]:
        return self._objects_by_node.get(node, [])

    # -- cost evaluation under the network metric ----------------------------

    def evaluate(
        self, cost: CostFunction, query_node: int, objects: Sequence[SpatialObject]
    ) -> float:
        """``cost`` evaluated with shortest-path distances."""
        if not objects:
            raise InvalidParameterError("cost of an empty set is undefined")
        from_query = self.distances_from_node(query_node)
        qdists = [from_query.get(self.object_node(o), math.inf) for o in objects]
        pairwise = 0.0
        for i in range(len(objects)):
            from_i = self.distances_from_node(self.object_node(objects[i]))
            for j in range(i + 1, len(objects)):
                d = from_i.get(self.object_node(objects[j]), math.inf)
                if d > pairwise:
                    pairwise = d
        return cost.combine(cost.query_aggregate.apply(qdists), pairwise)


class _NetworkAlgorithm:
    """Base plumbing for the network solvers."""

    name = "network"
    exact = False

    def __init__(self, context: NetworkContext, cost: CostFunction):
        self.context = context
        self.cost = cost
        self.counters: Dict[str, int] = {}
        #: Optional cooperative-cancellation hook (see repro.exec.Budget);
        #: attached per attempt by the resilient executor.
        self.budget = None

    def _check_feasible(self, query: Query) -> None:
        missing = self.context.dataset.missing_keywords(query.keywords)
        if missing:
            raise InfeasibleQueryError(missing)

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
        return CoSKQResult.of(objects, cost_value, self.name, counters=dict(self.counters))

    def _nn_set(self, query: Query, query_node: int) -> Tuple[List[SpatialObject], float]:
        """``N(q)`` by one lazy expansion; returns (objects, d_f)."""
        uncovered = set(query.keywords)
        chosen: Dict[int, SpatialObject] = {}
        d_f = 0.0
        for dist, node in self.context.network.expansion_from(query_node):
            self._checkpoint()
            for obj in self.context.objects_on(node):
                useful = obj.keywords & uncovered
                if useful:
                    chosen[obj.oid] = obj
                    uncovered -= useful
                    d_f = max(d_f, dist)
            if not uncovered:
                break
        if uncovered:
            raise InfeasibleQueryError(uncovered)
        ordered = sorted(chosen.values(), key=lambda o: o.oid)
        return ordered, d_f


class NetworkNNSetAlgorithm(_NetworkAlgorithm):
    """``N(q)`` under network distance (baseline approximation)."""

    name = "network-nn-set"

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        self._check_feasible(query)
        query_node = self.context.query_node(query)
        objects, _ = self._nn_set(query, query_node)
        return self._result(objects, self.context.evaluate(self.cost, query_node, objects))


class NetworkGreedyAppro(_NetworkAlgorithm):
    """Owner-driven approximation under network distance."""

    name = "network-greedy"

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        self._check_feasible(query)
        query_node = self.context.query_node(query)
        best, d_f = self._nn_set(query, query_node)
        best_cost = self.context.evaluate(self.cost, query_node, best)

        # Owner candidates stream in ascending network distance for free:
        # the Dijkstra expansion from the query node IS that order.
        for dist, node in self.context.network.expansion_from(query_node):
            self._checkpoint()
            if self.cost.combine(dist, 0.0) >= best_cost:
                break
            if dist < d_f:
                continue
            for owner in self.context.objects_on(node):
                if owner.keywords.isdisjoint(query.keywords):
                    continue
                self._bump("owners_tried")
                candidate = self._complete(query, query_node, owner, dist, best_cost)
                if candidate is None:
                    continue
                cost_value = self.context.evaluate(self.cost, query_node, candidate)
                if cost_value < best_cost:
                    best_cost = cost_value
                    best = candidate
        return self._result(best, best_cost)

    def _complete(
        self,
        query: Query,
        query_node: int,
        owner: SpatialObject,
        owner_dist: float,
        cost_bound: float,
    ) -> Optional[List[SpatialObject]]:
        """Greedy nearest-to-owner completion within the query disk."""
        uncovered = set(query.keywords - owner.keywords)
        if not uncovered:
            return [owner]
        from_query = self.context.distances_from_node(query_node)
        chosen = [owner]
        for dist, node in self.context.network.expansion_from(
            self.context.object_node(owner)
        ):
            self._checkpoint()
            if self.cost.combine(owner_dist, dist) >= cost_bound:
                return None  # completion already prices this owner out
            for obj in self.context.objects_on(node):
                if from_query.get(node, math.inf) > owner_dist:
                    continue  # owner must stay the farthest member
                useful = obj.keywords & uncovered
                if not useful:
                    continue
                chosen.append(obj)
                uncovered -= useful
                if not uncovered:
                    return chosen
        return None


class NetworkBnBExact(_NetworkAlgorithm):
    """Exact network CoSKQ by best-first branch-and-bound over covers."""

    name = "network-bnb-exact"
    exact = True
    max_expansions = 500_000

    def solve(self, query: Query) -> CoSKQResult:
        self._reset_counters()
        self._check_feasible(query)
        if self.cost.query_aggregate is QueryAggregate.MIN:
            raise InvalidParameterError(
                "network exact search supports monotone costs (SUM/MAX)"
            )
        context = self.context
        query_node = context.query_node(query)
        incumbent, _ = self._nn_set(query, query_node)
        incumbent_cost = context.evaluate(self.cost, query_node, incumbent)

        relevant = context.dataset.relevant_objects(query.keywords)
        from_query = context.distances_from_node(query_node)
        qdist = {
            o.oid: from_query.get(context.object_node(o), math.inf) for o in relevant
        }
        relevant = [o for o in relevant if math.isfinite(qdist[o.oid])]
        by_keyword: Dict[int, List[SpatialObject]] = {t: [] for t in query.keywords}
        for obj in relevant:
            for t in obj.keywords & query.keywords:
                by_keyword[t].append(obj)
        for t, lst in by_keyword.items():
            if not lst:
                raise InfeasibleQueryError([t])
            lst.sort(key=lambda o: (qdist[o.oid], o.oid))
        nn_dist = {t: qdist[by_keyword[t][0].oid] for t in query.keywords}

        counter = itertools.count()
        heap: List[Tuple[float, int, tuple, FrozenSet[int], float, float, float]] = [
            (0.0, next(counter), (), frozenset(), 0.0, 0.0, 0.0)
        ]
        expansions = 0
        while heap:
            self._checkpoint()
            lb, _, chosen, covered, qsum, qmax, diam = heapq.heappop(heap)
            if lb >= incumbent_cost:
                break
            if covered >= query.keywords:
                candidate = list(chosen)
                cost_value = context.evaluate(self.cost, query_node, candidate)
                if cost_value < incumbent_cost:
                    incumbent_cost = cost_value
                    incumbent = candidate
                continue
            expansions += 1
            self._bump("states_expanded")
            if expansions > self.max_expansions:
                raise BudgetExceededError(
                    "states_expanded",
                    self.max_expansions,
                    expansions,
                    counters=self.counters,
                )
            branch = min(
                query.keywords - covered, key=lambda t: (len(by_keyword[t]), t)
            )
            chosen_ids = {o.oid for o in chosen}
            for obj in by_keyword[branch]:
                if obj.oid in chosen_ids:
                    continue
                d = qdist[obj.oid]
                new_diam = diam
                for member in chosen:
                    pair = context.object_distance(obj, member)
                    if pair > new_diam:
                        new_diam = pair
                new_qsum = qsum + d
                new_qmax = max(qmax, d)
                new_covered = covered | (obj.keywords & query.keywords)
                uncovered = query.keywords - new_covered
                pending = max((nn_dist[t] for t in uncovered), default=0.0)
                if self.cost.query_aggregate is QueryAggregate.SUM:
                    q_bound = new_qsum + pending
                else:
                    q_bound = max(new_qmax, pending)
                child_lb = self.cost.combine(q_bound, new_diam)
                if child_lb < incumbent_cost:
                    heapq.heappush(
                        heap,
                        (
                            child_lb,
                            next(counter),
                            chosen + (obj,),
                            new_covered,
                            new_qsum,
                            new_qmax,
                            new_diam,
                        ),
                    )
        return self._result(incumbent, incumbent_cost)
