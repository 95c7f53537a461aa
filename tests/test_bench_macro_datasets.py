"""Determinism + cache integrity of the pinned benchmark datasets.

The macro harness's whole comparability story rests on one contract:
same spec ⇒ byte-identical dataset, wherever it is generated.  These
tests pin that across repeated in-process builds, across a process pool
(the same fork-based workers ``repro.parallel`` uses), and across the
disk cache round-trip — plus the corruption path: a cache file whose
bytes stop matching the recorded hash must be regenerated, not trusted.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.macro.datasets import (
    DatasetCache,
    DatasetSpec,
    build_dataset,
    content_hash,
)
from repro.data.queries import generate_queries
from repro.errors import InvalidParameterError


def spec_content_hash(spec: DatasetSpec) -> str:
    """Generate ``spec`` from scratch and hash it (picklable for the pool)."""
    return content_hash(build_dataset(spec))


SPEC = DatasetSpec(name="det", kind="uniform", size=400, seed=13)


class TestDeterminism:
    def test_same_spec_same_hash_across_builds(self):
        assert content_hash(build_dataset(SPEC)) == content_hash(build_dataset(SPEC))

    def test_hash_is_sensitive_to_seed_and_size_and_kind(self):
        baseline = spec_content_hash(SPEC)
        assert spec_content_hash(DatasetSpec("det", "uniform", 400, seed=14)) != baseline
        assert spec_content_hash(DatasetSpec("det", "uniform", 401, seed=13)) != baseline
        assert spec_content_hash(DatasetSpec("det", "hotel", 400, seed=13)) != baseline

    def test_name_participates_in_identity(self):
        # The name seeds the generator substreams (via GeneratorProfile),
        # so it is part of the pinned identity — two profiles must never
        # silently share bytes just because their shape parameters match.
        renamed = DatasetSpec(name="other", kind="uniform", size=400, seed=13)
        assert spec_content_hash(renamed) != spec_content_hash(SPEC)

    def test_same_hash_across_worker_pool(self):
        """Forked pool workers reproduce the parent's bytes exactly."""
        parent_hash = spec_content_hash(SPEC)
        with ProcessPoolExecutor(max_workers=2) as pool:
            worker_hashes = list(pool.map(spec_content_hash, [SPEC] * 4))
        assert worker_hashes == [parent_hash] * 4

    def test_scaled_datasets_extend_organic_prefix(self):
        # The 10k → 1M ladder grows with the paper's scaling recipe;
        # growing must never perturb the organic prefix.
        small = build_dataset(DatasetSpec("ladder", "uniform", 400, seed=13))
        from repro.bench.macro import datasets as datasets_module

        big = build_dataset(DatasetSpec("ladder", "uniform", 500, seed=13))
        assert len(big) == 500
        assert datasets_module.ORGANIC_CAP > 500  # grown via generator here
        for lhs, rhs in zip(small, list(big)[:400]):
            assert lhs.location == rhs.location


class TestCache:
    def test_miss_then_hit_with_stable_hash(self, tmp_path):
        cache = DatasetCache(tmp_path)
        first, first_meta = cache.materialize(SPEC)
        second, second_meta = cache.materialize(SPEC)
        assert first_meta["cache"] == "miss"
        assert second_meta["cache"] == "hit"
        assert first_meta["content_hash"] == second_meta["content_hash"]
        assert content_hash(first) == content_hash(second)

    def test_hit_and_miss_hand_out_identical_workloads(self, tmp_path):
        """Keyword ids are pinned by the round-trip (see datasets.py)."""
        missed, _ = DatasetCache(tmp_path / "a").materialize(SPEC)
        primed = DatasetCache(tmp_path / "b")
        primed.materialize(SPEC)
        hit, meta = primed.materialize(SPEC)
        assert meta["cache"] == "hit"
        for lhs, rhs in zip(
            generate_queries(missed, 3, 5, seed=1), generate_queries(hit, 3, 5, seed=1)
        ):
            assert lhs.keywords == rhs.keywords
            assert lhs.location == rhs.location

    def test_corrupt_cache_file_is_regenerated(self, tmp_path):
        cache = DatasetCache(tmp_path)
        _, meta = cache.materialize(SPEC)
        path = tmp_path / [p for p in tmp_path.iterdir() if p.suffix == ".tsv"][0].name
        path.write_text(
            path.read_text(encoding="utf-8") + "0.0\t0.0\tinjected\n", encoding="utf-8"
        )
        dataset, regenerated = cache.materialize(SPEC)
        assert regenerated["cache"] == "miss"
        assert regenerated["content_hash"] == meta["content_hash"]
        assert len(dataset) == SPEC.size

    def test_missing_meta_regenerates(self, tmp_path):
        cache = DatasetCache(tmp_path)
        cache.materialize(SPEC)
        for meta_file in tmp_path.glob("*.meta.json"):
            meta_file.unlink()
        _, meta = cache.materialize(SPEC)
        assert meta["cache"] == "miss"

    def test_meta_records_spec_and_hash(self, tmp_path):
        cache = DatasetCache(tmp_path)
        _, meta = cache.materialize(SPEC)
        recorded = json.loads(
            next(tmp_path.glob("*.meta.json")).read_text(encoding="utf-8")
        )
        assert recorded["content_hash"] == meta["content_hash"]
        assert recorded["spec"]["size"] == SPEC.size
        assert recorded["spec"]["seed"] == SPEC.seed


class TestSpecValidation:
    def test_unknown_kind_refused(self):
        with pytest.raises(InvalidParameterError):
            DatasetSpec(name="x", kind="galaxy", size=10)

    def test_non_positive_size_refused(self):
        with pytest.raises(InvalidParameterError):
            DatasetSpec(name="x", kind="uniform", size=0)
