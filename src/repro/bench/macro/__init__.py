"""``repro.bench.macro`` — the system-level macro-benchmark harness.

Where ``repro.bench.experiments`` regenerates the *paper's* tables
(per-algorithm microbenches at bench scale), this package measures the
**system** end-to-end the way SIGMOD evaluations and SpatialBench-style
harnesses do: pinned scalable datasets (10k → 1M objects, seeded,
content-hash cached on disk), pinned mixed workloads (approximate /
small exact / fallback chains / parallel batches / sharded engine, cold
vs warm caches), per-query latency capture, and one summary JSON per
run under a versioned schema.

The pieces (see docs/BENCHMARKS.md):

- :mod:`repro.bench.macro.datasets`  — pinned dataset specs + disk cache;
- :mod:`repro.bench.macro.aggregate` — exact latency percentiles;
- :mod:`repro.bench.macro.workloads` — workload/profile registry;
- :mod:`repro.bench.macro.runner`    — executes a profile into a summary;
- :mod:`repro.bench.macro.schema`    — the versioned summary schema;
- :mod:`repro.bench.macro.diffmode`  — the two-run regression gate.

Entry points: ``coskq-bench run`` / ``coskq-bench diff`` (also installed
standalone as ``coskq-bench-macro``).
"""

from repro.bench.macro.aggregate import LatencyAccumulator, throughput_qps
from repro.bench.macro.datasets import (
    DatasetCache,
    DatasetSpec,
    build_dataset,
    content_hash,
)
from repro.bench.macro.diffmode import DiffEntry, DiffReport, diff_summaries
from repro.bench.macro.runner import run_profile
from repro.bench.macro.schema import (
    SCHEMA_VERSION,
    SchemaVersionMismatchError,
    SummarySchemaError,
    assert_valid,
    canonical_summary,
    validate_summary,
)
from repro.bench.macro.workloads import PROFILES, Profile, WorkloadSpec

__all__ = [
    "DatasetCache",
    "DatasetSpec",
    "DiffEntry",
    "DiffReport",
    "LatencyAccumulator",
    "PROFILES",
    "Profile",
    "SCHEMA_VERSION",
    "SchemaVersionMismatchError",
    "SummarySchemaError",
    "WorkloadSpec",
    "assert_valid",
    "build_dataset",
    "canonical_summary",
    "content_hash",
    "diff_summaries",
    "run_profile",
    "throughput_qps",
    "validate_summary",
]
