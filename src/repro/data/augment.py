"""Dataset augmentation — the paper's synthetic scaling recipes.

Two transformations the evaluation needs:

- :func:`scale_dataset` mirrors the paper's scalability datasets: new
  objects take the location of a randomly drawn existing object (with a
  small jitter, so the spatial distribution is followed rather than
  duplicated) and the keyword document of another randomly drawn object.
  The paper grows GN from 2M to 10M objects this way.
- :func:`densify_keywords` mirrors the follow-up experiment on the
  average ``|o.ψ|``: each object's keyword set is unioned with the
  keyword sets of randomly drawn objects until the requested average is
  reached (the published recipe doubles the average per augmentation
  round; the target-based form here subsumes that).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.geometry.point import Point
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.utils.rng import substream

__all__ = ["scale_dataset", "densify_keywords"]


def scale_dataset(
    dataset: Dataset,
    target_size: int,
    seed: int = 0,
    jitter: float = 1.0,
) -> Dataset:
    """Grow ``dataset`` to ``target_size`` objects, paper-style.

    Existing objects are kept verbatim; each added object samples its
    location near a random existing object (Gaussian jitter with standard
    deviation ``jitter``) and copies the keyword set of another random
    object.  Shrinking is refused — truncate with slicing yourself if you
    really mean it.
    """
    if target_size < len(dataset):
        raise ValueError(
            "scale_dataset grows datasets; target %d < current %d"
            % (target_size, len(dataset))
        )
    if target_size == len(dataset):
        return dataset
    rng = substream(seed, "scale/%s/%d" % (dataset.name, target_size))
    donors = range(len(dataset))
    xs, ys = dataset.xs, dataset.ys

    def grown() -> Iterator[SpatialObject]:
        # Each object is built as the new dataset packs it, so they are
        # never all held at once.
        yield from dataset
        for oid in range(len(dataset), target_size):
            at = rng.choice(donors)
            keywords = frozenset(dataset.keywords_of(rng.choice(donors)))
            location = Point(
                xs[at] + rng.gauss(0.0, jitter), ys[at] + rng.gauss(0.0, jitter)
            )
            yield SpatialObject(oid, location, keywords)

    return Dataset(grown(), dataset.vocabulary, name="%s-x%d" % (dataset.name, target_size))


def densify_keywords(
    dataset: Dataset,
    target_mean_keywords: float,
    seed: int = 0,
) -> Dataset:
    """Raise the average ``|o.ψ|`` to roughly ``target_mean_keywords``.

    Each object repeatedly unions in the keyword set of a uniformly drawn
    object until its own size reaches its (randomly rounded) share of the
    target.  Locations and object count are untouched, so spatial effects
    are held constant — exactly what the |o.ψ| sensitivity experiment
    wants.
    """
    current_mean = (
        len(dataset.keyword_ids) / len(dataset)
        if len(dataset)
        else 0.0
    )
    if target_mean_keywords <= current_mean:
        return dataset
    rng = substream(seed, "densify/%s/%g" % (dataset.name, target_mean_keywords))
    originals = list(dataset)
    objects: List[SpatialObject] = []
    for obj in originals:
        target = len(obj.keywords) * target_mean_keywords / max(current_mean, 1e-9)
        keywords = set(obj.keywords)
        guard = 0
        while len(keywords) < target and guard < 64:
            keywords |= rng.choice(originals).keywords
            guard += 1
        objects.append(SpatialObject(obj.oid, obj.location, frozenset(keywords)))
    return Dataset(
        objects,
        dataset.vocabulary,
        name="%s-k%g" % (dataset.name, target_mean_keywords),
    )
