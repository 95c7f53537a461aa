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
from typing import List, Tuple

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
    "ladder_dataset",
    "ladder_keywords",
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


# -- the adversarial seeding ladder ------------------------------------------------


def ladder_dataset(
    num_keywords: int = 9,
    rungs: int = 10,
    choices: int = 10,
    radius: float = 200.0,
    arm_start: float = 120.0,
    arm_end: float = 20.0,
    arm_final: float = 6.0,
    seed: int = 7,
    name: str = "ladder",
) -> Dataset:
    """The seeding-adversarial "ladder": a staircase of near-optimal traps.

    Built to exercise appro seeding (docs/SEEDING.md §4): a query at
    the world center asking for ``k0..k{m-1}`` forces the owner-driven
    exact search down a staircase of ``rungs`` trap groups whose costs
    decrease slowly, each triggering an expensive diameter bisection —
    unless a feasible upper bound from the appro counterpart prunes the
    staircase up front.

    Geometry (all deliberate, all load-bearing):

    - Each rung ``i`` sits at a golden-angle direction, distance
      ``radius + 0.01·i`` from the center — the ``+0.01·i`` jitter makes
      the *widest* (most expensive) rung enumerate first.
    - The rung's **bait** is the sole carrier of ``k0``, so every
      feasible set pays the bait's distance and owner enumeration walks
      exactly one bait per rung; members tilted toward the query are
      never tried as owners (their furthest member is the bait).
    - The other keywords live in two wedges ±1.40 rad off the inward
      direction (near side for ``k1..k{m-2}``, far side for
      ``k{m-1}``), ``choices`` candidates each, spread over an arm
      whose length shrinks linearly ``arm_start → arm_end`` across
      rungs — so rung costs strictly decrease and every rung improves
      the incumbent just enough to force the next bisection.
    - One candidate per wedge is pinned at ``0.4·arm`` so the diameter
      lower bound stays loose (the bisection cannot shortcut).
    - A final trivial rung (``arm_final``, one choice per keyword)
      holds the optimum, cheap to verify for seeded and unseeded runs
      alike.

    Deterministic in ``seed``.  Roughly ``(rungs+1)·(1 + (m-1)·choices)``
    objects.
    """
    if num_keywords < 3:
        raise ValueError("the ladder needs at least 3 keywords (bait + 2 wedges)")
    if rungs < 1 or choices < 1:
        raise ValueError("rungs and choices must be >= 1")
    rng = substream(seed, "%s/wedges" % name)
    records: List[Tuple[float, float, List[str]]] = []
    cx = cy = WORLD_SIZE / 2.0
    golden = math.pi * (3 - math.sqrt(5))

    def rung(index: int, arm: float, wedge_choices: int) -> None:
        phi = index * golden
        ring = radius + 0.01 * index
        bait_x = cx + ring * math.cos(phi)
        bait_y = cy + ring * math.sin(phi)
        records.append((bait_x, bait_y, ["k0"]))
        inward = phi + math.pi
        for keyword in range(1, num_keywords):
            base = inward - 1.40 if keyword < num_keywords - 1 else inward + 1.40
            for choice in range(wedge_choices):
                reach = 0.4 * arm if choice == 0 else rng.uniform(0.45, 0.9) * arm
                angle = base + rng.uniform(-0.25, 0.25)
                x = bait_x + reach * math.cos(angle)
                y = bait_y + reach * math.sin(angle)
                # Keep every member strictly inside C(q, ring) so the
                # bait stays the rung's distance owner.
                centered = math.hypot(x - cx, y - cy)
                if centered >= ring:
                    shrink = (ring - 0.5) / centered
                    x = cx + (x - cx) * shrink
                    y = cy + (y - cy) * shrink
                records.append((x, y, ["k%d" % keyword]))

    for index in range(rungs):
        blend = index / (rungs - 1) if rungs > 1 else 0.0
        rung(index, arm_start + (arm_end - arm_start) * blend, choices)
    rung(rungs, arm_final, 1)
    return Dataset.from_records(records, name=name)


def ladder_keywords(dataset: Dataset, num_keywords: int):
    """The ladder query's keyword-id set (``k0..k{m-1}``) for ``dataset``."""
    return frozenset(
        dataset.vocabulary.id_of("k%d" % keyword) for keyword in range(num_keywords)
    )


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
