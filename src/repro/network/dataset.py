"""Geo-textual objects living on a road network.

A :class:`NetworkDataset` pairs a :class:`RoadNetwork` with objects
attached to its nodes.  Object locations are the node coordinates (so all
Euclidean tooling still works for visualization), but the CoSKQ
algorithms in :mod:`repro.network.algorithms` measure everything with
shortest-path distances.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence

from repro.data.zipf import ZipfSampler
from repro.errors import InvalidParameterError
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.vocabulary import Vocabulary
from repro.network.graph import RoadNetwork
from repro.utils.rng import substream

__all__ = ["NetworkDataset", "random_network_dataset"]


class NetworkDataset:
    """Objects placed on road-network nodes."""

    def __init__(
        self,
        network: RoadNetwork,
        objects: Sequence[SpatialObject],
        node_of: Dict[int, int],
        vocabulary: Vocabulary,
        name: str = "network-dataset",
    ):
        for obj in objects:
            if obj.oid not in node_of:
                raise InvalidParameterError(
                    "object %d has no network node" % obj.oid
                )
        self.network = network
        self.objects: List[SpatialObject] = list(objects)
        self.node_of = dict(node_of)
        self.vocabulary = vocabulary
        self.name = name

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self):
        return iter(self.objects)

    def as_euclidean_dataset(self) -> Dataset:
        """The same objects as a plain (Euclidean) dataset.

        Used to compare network CoSKQ against its Euclidean counterpart
        on identical data.
        """
        return Dataset(self.objects, self.vocabulary, name=self.name + "-euclidean")

    def objects_on(self, node: int) -> List[SpatialObject]:
        return [o for o in self.objects if self.node_of[o.oid] == node]

    def relevant_objects(self, keywords: FrozenSet[int]) -> List[SpatialObject]:
        return [o for o in self.objects if not o.keywords.isdisjoint(keywords)]

    def missing_keywords(self, keywords: Iterable[int]) -> FrozenSet[int]:
        present: set[int] = set()
        for obj in self.objects:
            present.update(obj.keywords)
        return frozenset(k for k in keywords if k not in present)


def random_network_dataset(
    rows: int = 20,
    cols: int = 20,
    num_objects: int = 300,
    vocabulary_size: int = 30,
    mean_keywords: float = 2.5,
    seed: int = 0,
) -> NetworkDataset:
    """A perturbed-grid network populated with Zipf-keyword objects."""
    from repro.network.graph import grid_network

    network = grid_network(rows, cols, seed=seed)
    rng = substream(seed, "network-objects")
    vocabulary = Vocabulary("w%04d" % i for i in range(vocabulary_size))
    sampler = ZipfSampler(vocabulary_size, 1.0)
    nodes = sorted(network.nodes())
    objects: List[SpatialObject] = []
    node_of: Dict[int, int] = {}
    for oid in range(num_objects):
        node = rng.choice(nodes)
        count = max(1, min(vocabulary_size, int(rng.expovariate(1.0 / mean_keywords)) + 1))
        keywords = frozenset(sampler.sample_distinct(rng, count))
        objects.append(SpatialObject(oid, network.location(node), keywords))
        node_of[oid] = node
    return NetworkDataset(
        network, objects, node_of, vocabulary, name="grid%dx%d" % (rows, cols)
    )
