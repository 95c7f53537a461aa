"""Synthetic dataset generators calibrated to the paper's real datasets.

The paper evaluates on three real corpora that are not redistributable
(and not fetchable offline), so this module builds synthetic stand-ins
that match the properties the CoSKQ algorithms are sensitive to — object
count, vocabulary size, keywords-per-object, keyword-frequency skew and
spatial clumping (see DESIGN.md §4 for the substitution argument):

- :func:`hotel_like`   — ~20,790 objects, small vocabulary (~600 words),
  ~3 keywords/object; US-hotel-style mixture of uniform spread and urban
  clusters.
- :func:`gn_like`      — the GeoNames profile: huge object count (scaled
  by default), larger vocabulary, ~4 keywords/object, strong skew.
- :func:`web_like`     — the web-document profile: large vocabulary and
  *many* keywords per object (~32), the regime that stresses keyword
  containment tests.
- :func:`uniform_dataset` / :func:`clustered_dataset` — plain primitives
  for tests and examples.

All generators are deterministic in their ``seed``.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.data.zipf import ZipfSampler
from repro.geometry.point import Point
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.vocabulary import Vocabulary
from repro.utils.rng import substream

__all__ = [
    "uniform_dataset",
    "clustered_dataset",
    "hotel_like",
    "gn_like",
    "web_like",
    "GeneratorProfile",
    "generate_profile",
]

#: Side length of the unit square all datasets live in.  The paper's maps
#: are lat/lon degree boxes; the absolute scale is irrelevant to every
#: algorithm (costs are relative), so a [0, 1000]² world keeps the numbers
#: readable.
WORLD_SIZE = 1000.0


class GeneratorProfile:
    """Recipe for a synthetic corpus (see module docstring)."""

    def __init__(
        self,
        name: str,
        num_objects: int,
        vocabulary_size: int,
        mean_keywords: float,
        zipf_exponent: float = 1.0,
        cluster_fraction: float = 0.5,
        cluster_count: int = 40,
        cluster_sigma: float = WORLD_SIZE / 80.0,
    ):
        if num_objects <= 0 or vocabulary_size <= 0:
            raise ValueError("object count and vocabulary size must be positive")
        if mean_keywords < 1.0:
            raise ValueError("objects need at least one keyword on average")
        if not 0.0 <= cluster_fraction <= 1.0:
            raise ValueError("cluster_fraction must be in [0, 1]")
        self.name = name
        self.num_objects = num_objects
        self.vocabulary_size = vocabulary_size
        self.mean_keywords = mean_keywords
        self.zipf_exponent = zipf_exponent
        self.cluster_fraction = cluster_fraction
        self.cluster_count = cluster_count
        self.cluster_sigma = cluster_sigma


def generate_profile(profile: GeneratorProfile, seed: int = 0) -> Dataset:
    """Materialize a profile into a dataset (deterministic in ``seed``)."""
    spatial_rng = substream(seed, "%s/spatial" % profile.name)
    text_rng = substream(seed, "%s/text" % profile.name)

    vocabulary = Vocabulary(
        "w%04d" % i for i in range(profile.vocabulary_size)
    )
    sampler = ZipfSampler(profile.vocabulary_size, profile.zipf_exponent)
    locations = _locations(profile, spatial_rng)

    objects: List[SpatialObject] = []
    for oid, location in enumerate(locations):
        count = _keyword_count(profile.mean_keywords, text_rng)
        keyword_ids = frozenset(sampler.sample_distinct(text_rng, count))
        objects.append(SpatialObject(oid, location, keyword_ids))
    return Dataset(objects, vocabulary, name=profile.name)


def _keyword_count(mean: float, rng: random.Random) -> int:
    """Keywords per object: 1 + Poisson(mean − 1), capped sanely."""
    lam = mean - 1.0
    # Knuth's Poisson sampler; lam is small for every profile we use.
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            break
        k += 1
    return 1 + k


def _locations(profile: GeneratorProfile, rng: random.Random) -> List[Point]:
    """Uniform background plus Gaussian urban clusters."""
    centers = [
        Point(rng.uniform(0.0, WORLD_SIZE), rng.uniform(0.0, WORLD_SIZE))
        for _ in range(max(profile.cluster_count, 1))
    ]
    out: List[Point] = []
    for _ in range(profile.num_objects):
        if rng.random() < profile.cluster_fraction:
            center = rng.choice(centers)
            x = min(max(rng.gauss(center.x, profile.cluster_sigma), 0.0), WORLD_SIZE)
            y = min(max(rng.gauss(center.y, profile.cluster_sigma), 0.0), WORLD_SIZE)
        else:
            x = rng.uniform(0.0, WORLD_SIZE)
            y = rng.uniform(0.0, WORLD_SIZE)
        out.append(Point(x, y))
    return out


# -- plain primitives -----------------------------------------------------------


def uniform_dataset(
    num_objects: int,
    vocabulary_size: int,
    mean_keywords: float = 3.0,
    seed: int = 0,
    name: str = "uniform",
) -> Dataset:
    """Uniform locations, Zipf keywords — the tests' workhorse."""
    profile = GeneratorProfile(
        name=name,
        num_objects=num_objects,
        vocabulary_size=vocabulary_size,
        mean_keywords=mean_keywords,
        cluster_fraction=0.0,
    )
    return generate_profile(profile, seed=seed)


def clustered_dataset(
    num_objects: int,
    vocabulary_size: int,
    mean_keywords: float = 3.0,
    cluster_count: int = 10,
    seed: int = 0,
    name: str = "clustered",
) -> Dataset:
    """Fully clustered locations (every object in some Gaussian blob)."""
    profile = GeneratorProfile(
        name=name,
        num_objects=num_objects,
        vocabulary_size=vocabulary_size,
        mean_keywords=mean_keywords,
        cluster_fraction=1.0,
        cluster_count=cluster_count,
    )
    return generate_profile(profile, seed=seed)


# -- the paper's three corpora ----------------------------------------------------

#: Published sizes of the paper's real datasets (objects).  The default
#: `scale` shrinks GN and Web to Python-friendly sizes while preserving
#: vocabulary skew and keyword density; pass scale=1.0 for paper scale.
HOTEL_OBJECTS = 20_790
GN_OBJECTS = 1_868_821
WEB_OBJECTS = 579_727


def hotel_like(scale: float = 1.0, seed: int = 0) -> Dataset:
    """The Hotel profile: small vocabulary, sparse keywords."""
    profile = GeneratorProfile(
        name="hotel",
        num_objects=max(100, int(HOTEL_OBJECTS * scale)),
        vocabulary_size=602,
        mean_keywords=3.9,
        zipf_exponent=0.9,
        cluster_fraction=0.6,
        cluster_count=50,
    )
    return generate_profile(profile, seed=seed)


def gn_like(scale: float = 0.05, seed: int = 0) -> Dataset:
    """The GN (GeoNames) profile; default scale 0.05 → ~93k objects."""
    profile = GeneratorProfile(
        name="gn",
        num_objects=max(1_000, int(GN_OBJECTS * scale)),
        vocabulary_size=20_000,
        mean_keywords=4.0,
        zipf_exponent=1.1,
        cluster_fraction=0.5,
        cluster_count=200,
    )
    return generate_profile(profile, seed=seed)


def web_like(scale: float = 0.05, seed: int = 0) -> Dataset:
    """The Web profile; many keywords per object (default ~29k objects)."""
    profile = GeneratorProfile(
        name="web",
        num_objects=max(1_000, int(WEB_OBJECTS * scale)),
        vocabulary_size=50_000,
        mean_keywords=32.0,
        zipf_exponent=1.0,
        cluster_fraction=0.4,
        cluster_count=100,
    )
    return generate_profile(profile, seed=seed)
