"""Pinned, scalable benchmark datasets with a content-addressed disk cache.

A macro benchmark is only comparable across runs (and across machines)
if the data is *pinned*: same spec ⇒ byte-identical dataset.  The specs
here reuse the zipf generator machinery (:mod:`repro.data.generators`)
and the paper's scaling recipe (:func:`repro.data.augment.scale_dataset`)
to reach 10k → 1M objects deterministically, and every materialized
dataset is identified by the SHA-256 of its canonical text serialization.

Two subtleties this module exists to get right:

- **Id pinning.**  :meth:`Dataset.from_records` assigns keyword ids in
  encounter order, so a dataset *reloaded* from disk can carry different
  keyword ids than the dataset as generated (the text format stores
  words, not ids) — and query generation samples keyword *ids*.  To make
  cache hits and cache misses produce identical workloads, a cache miss
  generates, writes, and then **reloads from the written file**, so both
  paths hand out the round-tripped dataset.
- **Hash = file bytes.**  :func:`content_hash` hashes exactly the bytes
  :meth:`Dataset.dump` writes, so the hash of an in-memory dataset, the
  hash of its cache file, and the hash recomputed by a forked worker all
  agree (the determinism contract ``tests/test_bench_macro_datasets.py``
  locks down).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.data.augment import scale_dataset
from repro.data.generators import GeneratorProfile, generate_profile
from repro.errors import DatasetFormatError, InvalidParameterError
from repro.model.dataset import Dataset

__all__ = [
    "DEFAULT_CACHE_DIR",
    "PROFILE_KINDS",
    "DatasetCache",
    "DatasetSpec",
    "build_dataset",
    "content_hash",
]

#: Default on-disk home of materialized datasets (overridable per run
#: with ``--cache-dir`` or the ``COSKQ_BENCH_CACHE`` environment
#: variable).  Git-ignored; safe to delete at any time.
DEFAULT_CACHE_DIR = ".coskq_bench_cache"

#: Corpus shapes a spec may ask for.  ``hotel``/``gn``/``web`` mirror the
#: paper's three corpora (vocabulary size, keyword density, skew,
#: clumping — see :mod:`repro.data.generators`); ``uniform`` is the
#: cluster-free control.
PROFILE_KINDS = ("hotel", "gn", "web", "uniform")

#: Above this size, objects are generated organically up to the cap and
#: then grown with the paper's scaling recipe (sample an existing
#: location + an existing keyword document) — exactly how the paper
#: builds its 2M–10M scalability datasets, and an order of magnitude
#: faster than sampling a million Poisson/Zipf documents.
ORGANIC_CAP = 100_000


@dataclass(frozen=True)
class DatasetSpec:
    """One pinned dataset: corpus shape, object count, seed.

    Frozen and primitive-only, so specs are picklable (the determinism
    test hashes them inside pool workers) and usable as dict keys.
    """

    name: str
    kind: str
    size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise InvalidParameterError(
                "unknown dataset kind %r; known: %s" % (self.kind, list(PROFILE_KINDS))
            )
        if self.size < 1:
            raise InvalidParameterError("dataset size must be >= 1")

    @property
    def filename(self) -> str:
        return "%s-%s-%d-s%d.tsv" % (self.name, self.kind, self.size, self.seed)


def _profile_for(spec: DatasetSpec, organic_size: int) -> GeneratorProfile:
    """The generator recipe of ``spec`` at ``organic_size`` objects."""
    if spec.kind == "hotel":
        return GeneratorProfile(
            name=spec.name,
            num_objects=organic_size,
            vocabulary_size=602,
            mean_keywords=3.9,
            zipf_exponent=0.9,
            cluster_fraction=0.6,
            cluster_count=50,
        )
    if spec.kind == "gn":
        return GeneratorProfile(
            name=spec.name,
            num_objects=organic_size,
            vocabulary_size=20_000,
            mean_keywords=4.0,
            zipf_exponent=1.1,
            cluster_fraction=0.5,
            cluster_count=200,
        )
    if spec.kind == "web":
        return GeneratorProfile(
            name=spec.name,
            num_objects=organic_size,
            vocabulary_size=50_000,
            mean_keywords=32.0,
            zipf_exponent=1.0,
            cluster_fraction=0.4,
            cluster_count=100,
        )
    return GeneratorProfile(
        name=spec.name,
        num_objects=organic_size,
        vocabulary_size=64,
        mean_keywords=3.0,
        cluster_fraction=0.0,
    )


def build_dataset(spec: DatasetSpec) -> Dataset:
    """Materialize ``spec`` in memory (deterministic in the spec alone)."""
    organic = min(spec.size, ORGANIC_CAP)
    dataset = generate_profile(_profile_for(spec, organic), seed=spec.seed)
    if spec.size > organic:
        dataset = scale_dataset(dataset, spec.size, seed=spec.seed)
    # Built here and shared with no one yet, so renaming it is safe.
    dataset.name = spec.name
    return dataset


class _HashWriter:
    """A write-only text sink that feeds a SHA-256 (duck-types a stream)."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self._digest.update(text.encode("utf-8"))
        return len(text)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def content_hash(dataset: Dataset) -> str:
    """SHA-256 of the dataset's canonical text serialization.

    Identical to hashing the bytes of the cache file, and independent of
    keyword-id assignment (the format stores sorted words per object).
    """
    writer = _HashWriter()
    dataset.dump(writer)
    return writer.hexdigest()


def _file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class DatasetCache:
    """Content-verified dataset store under one directory.

    ``materialize`` returns the dataset plus a provenance dict recorded
    verbatim in the run summary: whether the cache hit, the content
    hash, and how long generation / loading took.  A cache file whose
    bytes no longer match its recorded hash (partial write, manual edit)
    is discarded and regenerated — a silently corrupt benchmark input is
    worse than a slow one.
    """

    def __init__(self, root: Optional[str | Path] = None):
        if root is None:
            root = os.environ.get("COSKQ_BENCH_CACHE", DEFAULT_CACHE_DIR)
        self.root = Path(root)

    def _paths(self, spec: DatasetSpec) -> Tuple[Path, Path]:
        data = self.root / spec.filename
        return data, data.with_suffix(data.suffix + ".meta.json")

    def materialize(self, spec: DatasetSpec) -> Tuple[Dataset, Dict[str, object]]:
        """Load ``spec`` from cache, or generate + persist + reload it."""
        data_path, meta_path = self._paths(spec)
        started = time.perf_counter()
        if data_path.exists() and meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                expected = meta["content_hash"]
            except (json.JSONDecodeError, KeyError, OSError):
                expected = None
            if expected is not None and _file_hash(data_path) == expected:
                dataset = Dataset.load(data_path, name=spec.name)
                return dataset, {
                    "cache": "hit",
                    "content_hash": expected,
                    "generate_s": time.perf_counter() - started,
                    "path": str(data_path),
                }
        dataset = self._generate(spec, data_path, meta_path)
        return dataset, {
            "cache": "miss",
            "content_hash": _file_hash(data_path),
            "generate_s": time.perf_counter() - started,
            "path": str(data_path),
        }

    def _generate(self, spec: DatasetSpec, data_path: Path, meta_path: Path) -> Dataset:
        self.root.mkdir(parents=True, exist_ok=True)
        generated = build_dataset(spec)
        digest = content_hash(generated)
        tmp_path = data_path.with_suffix(data_path.suffix + ".tmp")
        generated.save(tmp_path)
        if _file_hash(tmp_path) != digest:
            tmp_path.unlink(missing_ok=True)
            raise DatasetFormatError(
                "serialized bytes of %s do not hash to the in-memory content "
                "hash; refusing to cache a corrupt dataset" % spec.name
            )
        os.replace(tmp_path, data_path)
        meta_path.write_text(
            json.dumps(
                {"spec": asdict(spec), "content_hash": digest},
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        # Reload from the written file so keyword-id assignment matches
        # what every later cache *hit* will see (see module docstring).
        return Dataset.load(data_path, name=spec.name)
