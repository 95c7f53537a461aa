"""Road networks: weighted graphs with shortest-path distances.

The paper's conclusion names extending CoSKQ "to other distance metrics
such as road networks" as future work; this subpackage provides that
extension.  A :class:`RoadNetwork` is an undirected weighted graph whose
vertices carry planar coordinates; distances between objects become
shortest-path lengths instead of Euclidean ones.

Dijkstra runs are memoized per source, so the CoSKQ algorithms — which
reuse a handful of sources (the query node, owner candidates, chosen
members) many times — pay for each expansion once.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.geometry.point import Point
from repro.utils.rng import substream

__all__ = ["RoadNetwork", "grid_network"]


class RoadNetwork:
    """An undirected weighted graph embedded in the plane."""

    def __init__(self):
        self._coords: Dict[int, Point] = {}
        self._adjacency: Dict[int, List[Tuple[int, float]]] = {}
        self._sssp_cache: Dict[int, Dict[int, float]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: int, location: Point) -> None:
        if node in self._coords:
            raise InvalidParameterError("node %d already exists" % node)
        self._coords[node] = location
        self._adjacency[node] = []

    def add_edge(self, a: int, b: int, weight: Optional[float] = None) -> None:
        """Add an undirected edge (weight defaults to Euclidean length)."""
        if a not in self._coords or b not in self._coords:
            raise InvalidParameterError("both endpoints must be nodes")
        if a == b:
            raise InvalidParameterError("self loops are not allowed")
        if weight is None:
            weight = self._coords[a].distance_to(self._coords[b])
        if weight < 0:
            raise InvalidParameterError("negative edge weight")
        self._adjacency[a].append((b, weight))
        self._adjacency[b].append((a, weight))
        self._sssp_cache.clear()

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._coords)

    def nodes(self) -> Iterator[int]:
        return iter(self._coords)

    def location(self, node: int) -> Point:
        return self._coords[node]

    def edge_count(self) -> int:
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    def nearest_node(self, point: Point) -> int:
        """The node closest (Euclidean) to ``point`` — query snapping."""
        if not self._coords:
            raise InvalidParameterError("empty network")
        return min(
            self._coords,
            key=lambda n: (self._coords[n].squared_distance_to(point), n),
        )

    # -- distances ---------------------------------------------------------

    def shortest_paths_from(self, source: int) -> Dict[int, float]:
        """All shortest-path distances from ``source`` (memoized)."""
        cached = self._sssp_cache.get(source)
        if cached is not None:
            return cached
        dist: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        settled: set[int] = set()
        # Graph has no budget hook by design (it is shared infrastructure
        # below the solver layer); the loop settles each node at most once,
        # so it is bounded by the graph size.
        while heap:  # repro: noqa(R11) — bounded Dijkstra, no budget hook
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for neighbor, weight in self._adjacency[node]:
                candidate = d + weight
                if candidate < dist.get(neighbor, math.inf):
                    dist[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        self._sssp_cache[source] = dist
        return dist

    def distance(self, a: int, b: int) -> float:
        """Shortest-path distance (inf when disconnected)."""
        return self.shortest_paths_from(a).get(b, math.inf)

    def expansion_from(self, source: int) -> Iterator[Tuple[float, int]]:
        """Nodes in ascending shortest-path distance from ``source``.

        A lazy Dijkstra: callers that stop early (e.g. keyword NN) never
        pay for the full expansion.
        """
        dist: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        settled: set[int] = set()
        # Same settle-once bound as shortest_paths_from; solver callers
        # checkpoint around each yielded node instead.
        while heap:  # repro: noqa(R11) — bounded Dijkstra, no budget hook
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            yield d, node
            for neighbor, weight in self._adjacency[node]:
                candidate = d + weight
                if candidate < dist.get(neighbor, math.inf):
                    dist[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))

    def is_connected(self) -> bool:
        if not self._coords:
            return True
        first = next(iter(self._coords))
        return len(self.shortest_paths_from(first)) == len(self._coords)


def grid_network(
    rows: int,
    cols: int,
    spacing: float = 10.0,
    diagonal_fraction: float = 0.15,
    removal_fraction: float = 0.1,
    seed: int = 0,
) -> RoadNetwork:
    """A perturbed grid road network — the standard synthetic road map.

    Starts from a rows×cols lattice (streets), adds a random fraction of
    diagonal shortcuts, then removes a random fraction of lattice edges
    *keeping the network connected* — giving the detours that make
    network distance genuinely different from Euclidean distance.
    """
    if rows < 1 or cols < 1:
        raise InvalidParameterError("grid needs at least one row and column")
    rng = substream(seed, "grid/%dx%d" % (rows, cols))
    network = RoadNetwork()

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            jitter_x = rng.uniform(-0.2, 0.2) * spacing
            jitter_y = rng.uniform(-0.2, 0.2) * spacing
            network.add_node(
                node_id(r, c), Point(c * spacing + jitter_x, r * spacing + jitter_y)
            )

    lattice_edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                lattice_edges.append((node_id(r, c), node_id(r, c + 1)))
            if r + 1 < rows:
                lattice_edges.append((node_id(r, c), node_id(r + 1, c)))
    for a, b in lattice_edges:
        network.add_edge(a, b)

    # Diagonal shortcuts.
    for r in range(rows - 1):
        for c in range(cols - 1):
            if rng.random() < diagonal_fraction:
                network.add_edge(node_id(r, c), node_id(r + 1, c + 1))

    # Remove lattice edges while preserving connectivity.
    rng.shuffle(lattice_edges)
    removable = int(len(lattice_edges) * removal_fraction)
    for a, b in lattice_edges[:removable]:
        _try_remove_edge(network, a, b)
    return network


def _try_remove_edge(network: RoadNetwork, a: int, b: int) -> bool:
    """Remove edge (a, b) unless that disconnects the network."""
    adj_a = network._adjacency[a]
    adj_b = network._adjacency[b]
    entry_a = next((e for e in adj_a if e[0] == b), None)
    entry_b = next((e for e in adj_b if e[0] == a), None)
    if entry_a is None or entry_b is None:
        return False
    adj_a.remove(entry_a)
    adj_b.remove(entry_b)
    network._sssp_cache.clear()
    if math.isinf(network.distance(a, b)):
        adj_a.append(entry_a)
        adj_b.append(entry_b)
        network._sssp_cache.clear()
        return False
    return True
