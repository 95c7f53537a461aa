"""Pinned workload mixes and the smoke / quick / full profiles.

A *workload* is one measured cell: a dataset, a way of querying it
(registry solver, fallback chain, a parallel batch, or the sharded
scatter-gather engine) and a cache temperature.
A *profile* pins datasets + workloads + seed, so two runs of the same
profile measure byte-identical work — which is what makes the diff
gate meaningful.

Four profiles ship (docs/BENCHMARKS.md):

- ``smoke`` — seconds; runs inside tier-1 on every ``pytest``, so the
  harness itself can never rot.
- ``quick`` — a couple of minutes; the development loop profile.
- ``full``  — the production ladder: GN-shaped data at 10k → 1M objects
  plus hotel/web corpora at paper-like scale.
- ``shard`` — only the paired sharded-vs-single cells at 100k and 1M;
  the profile behind ``BENCH_shard.json`` (docs/SHARDING.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bench.macro.datasets import DatasetSpec
from repro.bench.macro.schema import WORKLOAD_KINDS
from repro.errors import InvalidParameterError

__all__ = ["WorkloadSpec", "Profile", "PROFILES", "profile_by_name"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One measured cell of a profile (see module docstring)."""

    id: str
    dataset: str
    kind: str = "solver"
    #: Registry algorithm name; for ``kind="chain"`` a comma-separated
    #: fallback chain spec (strongest stage first).
    solver: str = "maxsum-appro"
    num_keywords: int = 6
    queries: int = 8
    cache: str = "cold"
    #: ``batch`` only: process-pool width.
    workers: int = 2
    #: ``chain`` only: per-query deadline.
    deadline_ms: Optional[float] = None
    #: ``sharded`` only: STR shard count for the scatter-gather engine.
    shards: int = 0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise InvalidParameterError(
                "unknown workload kind %r; known: %s" % (self.kind, list(WORKLOAD_KINDS))
            )
        if self.cache not in ("cold", "warm"):
            raise InvalidParameterError("cache must be 'cold' or 'warm'")
        for count_field in ("queries", "num_keywords", "workers"):
            if getattr(self, count_field) < 1:
                raise InvalidParameterError("%s must be >= 1" % count_field)
        if self.shards < 0:
            raise InvalidParameterError("shards must be >= 0")
        if self.kind == "sharded" and self.shards < 1:
            raise InvalidParameterError("sharded workloads need shards >= 1")


@dataclass(frozen=True)
class Profile:
    """A pinned benchmark plan: datasets, workloads, one seed."""

    name: str
    description: str
    datasets: Tuple[DatasetSpec, ...]
    workloads: Tuple[WorkloadSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        names = {spec.name for spec in self.datasets}
        if len(names) != len(self.datasets):
            raise InvalidParameterError("profile %r has duplicate dataset names" % self.name)
        ids = [w.id for w in self.workloads]
        if len(set(ids)) != len(ids):
            raise InvalidParameterError("profile %r has duplicate workload ids" % self.name)
        for workload in self.workloads:
            if workload.dataset not in names:
                raise InvalidParameterError(
                    "workload %r references unknown dataset %r"
                    % (workload.id, workload.dataset)
                )


def _mixed_workloads(
    main: str,
    small: str,
    *,
    queries: int,
    exact_queries: int,
    num_keywords: int,
    batch_queries: int,
    workers: int,
    chain_deadline_ms: float,
) -> Tuple[WorkloadSpec, ...]:
    """The pinned workload mix every profile shares, scaled by counts.

    ``main`` hosts the fast paths, ``small`` the exponential exact
    search.  The mix covers appro, small exact, dia, a fallback chain
    (provenance counts), a parallel batch, the sharded engine, and cold
    vs warm.
    """
    return (
        WorkloadSpec(
            id="maxsum-appro/cold",
            dataset=main,
            solver="maxsum-appro",
            num_keywords=num_keywords,
            queries=queries,
        ),
        WorkloadSpec(
            id="maxsum-appro/warm",
            dataset=main,
            solver="maxsum-appro",
            num_keywords=num_keywords,
            queries=queries,
            cache="warm",
        ),
        WorkloadSpec(
            id="dia-appro/cold",
            dataset=main,
            solver="dia-appro",
            num_keywords=num_keywords,
            queries=queries,
        ),
        WorkloadSpec(
            id="maxsum-exact-small/cold",
            dataset=small,
            solver="maxsum-exact",
            num_keywords=4,
            queries=exact_queries,
        ),
        WorkloadSpec(
            id="chain-exact-appro/cold",
            dataset=main,
            kind="chain",
            solver="maxsum-exact,maxsum-appro",
            num_keywords=num_keywords,
            queries=exact_queries,
            deadline_ms=chain_deadline_ms,
        ),
        WorkloadSpec(
            id="batch-parallel/cold",
            dataset=main,
            kind="batch",
            solver="maxsum-appro",
            num_keywords=num_keywords,
            queries=batch_queries,
            workers=workers,
        ),
        WorkloadSpec(
            id="sharded/maxsum-appro/cold",
            dataset=main,
            kind="sharded",
            solver="maxsum-appro",
            num_keywords=num_keywords,
            queries=queries,
            shards=8,
        ),
    )


_SMOKE = Profile(
    name="smoke",
    description="seconds-scale harness self-test; runs inside tier-1",
    datasets=(
        DatasetSpec(name="smoke-hotel", kind="hotel", size=900, seed=7),
        DatasetSpec(name="smoke-small", kind="uniform", size=300, seed=7),
    ),
    workloads=_mixed_workloads(
        "smoke-hotel",
        "smoke-small",
        queries=8,
        exact_queries=4,
        num_keywords=6,
        batch_queries=12,
        workers=2,
        chain_deadline_ms=250.0,
    ),
    seed=7,
)

_QUICK = Profile(
    name="quick",
    description="minutes-scale development profile (10k-object corpora)",
    datasets=(
        DatasetSpec(name="quick-gn-10k", kind="gn", size=10_000, seed=7),
        DatasetSpec(name="quick-small", kind="uniform", size=2_000, seed=7),
        DatasetSpec(name="quick-gn-100k", kind="gn", size=100_000, seed=7),
    ),
    workloads=_mixed_workloads(
        "quick-gn-10k",
        "quick-small",
        queries=32,
        exact_queries=8,
        num_keywords=6,
        batch_queries=64,
        workers=2,
        chain_deadline_ms=1_000.0,
    )
    + (
        WorkloadSpec(
            id="sharded-100k",
            dataset="quick-gn-100k",
            kind="sharded",
            solver="maxsum-appro",
            num_keywords=6,
            queries=16,
            shards=64,
        ),
    ),
    seed=7,
)


def _full_workloads() -> Tuple[WorkloadSpec, ...]:
    """The production ladder: the shared mix at 100k plus a 10k → 1M sweep."""
    out = list(
        _mixed_workloads(
            "full-gn-100k",
            "full-hotel",
            queries=100,
            exact_queries=20,
            num_keywords=6,
            batch_queries=200,
            workers=4,
            chain_deadline_ms=2_000.0,
        )
    )
    for dataset in ("full-gn-10k", "full-gn-100k", "full-gn-1m"):
        out.append(
            WorkloadSpec(
                id="scaling/maxsum-appro/%s" % dataset.removeprefix("full-gn-"),
                dataset=dataset,
                solver="maxsum-appro",
                num_keywords=6,
                queries=50,
            )
        )
    out.append(
        WorkloadSpec(
            id="sharded-100k",
            dataset="full-gn-100k",
            kind="sharded",
            solver="maxsum-appro",
            num_keywords=6,
            queries=32,
            shards=64,
        )
    )
    for shards in (16, 256):  # shard-count sweep around the 64-shard pin
        out.append(
            WorkloadSpec(
                id="sharded-100k/s%d" % shards,
                dataset="full-gn-100k",
                kind="sharded",
                solver="maxsum-appro",
                num_keywords=6,
                queries=16,
                shards=shards,
            )
        )
    out.append(
        WorkloadSpec(
            id="sharded-1m",
            dataset="full-gn-1m",
            kind="sharded",
            solver="maxsum-appro",
            num_keywords=6,
            queries=8,
            shards=64,
        )
    )
    return tuple(out)


_FULL = Profile(
    name="full",
    description="production-scale ladder: GN-shaped 10k / 100k / 1M objects",
    datasets=(
        DatasetSpec(name="full-gn-10k", kind="gn", size=10_000, seed=7),
        DatasetSpec(name="full-gn-100k", kind="gn", size=100_000, seed=7),
        DatasetSpec(name="full-gn-1m", kind="gn", size=1_000_000, seed=7),
        DatasetSpec(name="full-hotel", kind="hotel", size=20_790, seed=7),
    ),
    workloads=_full_workloads(),
    seed=7,
)

_SHARD = Profile(
    name="shard",
    description="sharded scatter-gather vs single index: paired 100k / 1M cells",
    datasets=(
        DatasetSpec(name="shard-gn-100k", kind="gn", size=100_000, seed=7),
        DatasetSpec(name="shard-gn-1m", kind="gn", size=1_000_000, seed=7),
    ),
    workloads=(
        WorkloadSpec(
            id="sharded-100k",
            dataset="shard-gn-100k",
            kind="sharded",
            solver="maxsum-appro",
            num_keywords=6,
            queries=32,
            shards=64,
        ),
        WorkloadSpec(
            id="sharded-100k/s16",
            dataset="shard-gn-100k",
            kind="sharded",
            solver="maxsum-appro",
            num_keywords=6,
            queries=16,
            shards=16,
        ),
        WorkloadSpec(
            id="sharded-100k/s256",
            dataset="shard-gn-100k",
            kind="sharded",
            solver="maxsum-appro",
            num_keywords=6,
            queries=16,
            shards=256,
        ),
        WorkloadSpec(
            id="sharded-1m",
            dataset="shard-gn-1m",
            kind="sharded",
            solver="maxsum-appro",
            num_keywords=6,
            queries=8,
            shards=64,
        ),
    ),
    seed=7,
)

#: The registry ``coskq-bench run --profile <name>`` resolves against.
PROFILES: Dict[str, Profile] = {
    profile.name: profile for profile in (_SMOKE, _QUICK, _FULL, _SHARD)
}


def profile_by_name(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        raise InvalidParameterError(
            "unknown profile %r; known: %s" % (name, sorted(PROFILES))
        ) from None
