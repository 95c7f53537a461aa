"""The versioned summary-JSON schema of ``coskq-bench run``.

Every run emits one JSON document; this module is the single source of
truth for its shape.  ``SCHEMA_VERSION`` changes whenever a field is
added, removed or re-typed — the diff gate refuses to compare documents
across versions, so a schema bump can never masquerade as a perf change.

The validator is deliberately stdlib-only (no jsonschema dependency):
:func:`validate_summary` returns a list of human-readable problems,
:func:`assert_valid` raises :class:`SummarySchemaError` with all of them.

:func:`canonical_summary` produces the timing-free, environment-free
projection of a summary used by the golden-file test — structure,
pinned counts and identifiers survive; wall-clock measurements, hashes
and host details are replaced by fixed placeholders, so the golden file
pins the *schema*, not one machine's nondeterministic numbers.
"""

from __future__ import annotations

import copy
from typing import Dict, List

from repro.errors import CoSKQError

__all__ = [
    "SCHEMA_VERSION",
    "WORKLOAD_KINDS",
    "SummarySchemaError",
    "SchemaVersionMismatchError",
    "validate_summary",
    "assert_valid",
    "canonical_summary",
]

#: Bump on any structural change to the summary document.
#: /2: added the ``sharded`` workload kind, the per-workload ``shards``
#: count (0 = single index), and on sharded entries the paired
#: ``baseline_wall_s`` / ``shard_build_s`` extras.
#: /3: removed the per-workload ``toggles`` and the ``environment``
#: ``kernels`` / ``signatures`` flags (one code path, nothing to toggle).
#: /4: removed the ``adaptive`` workload kind (the learned planner).
#: /5: added ``environment.cpu_count`` (``os.cpu_count()``; null when
#: the host cannot tell).
#: /6: removed the ``boolean-knn`` workload kind (boolean kNN is not a
#: CoSKQ query, and no solver calls it).
SCHEMA_VERSION = "coskq-bench-macro/6"

#: How a workload is executed (see docs/BENCHMARKS.md).
WORKLOAD_KINDS = ("solver", "chain", "batch", "sharded")

_CACHE_MODES = ("cold", "warm")
_LATENCY_KEYS = ("count", "mean_ms", "min_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")


class SummarySchemaError(CoSKQError):
    """A summary document does not conform to :data:`SCHEMA_VERSION`."""


class SchemaVersionMismatchError(CoSKQError):
    """Two summaries under different schema versions cannot be diffed."""


def _require(doc: Dict, key: str, types, where: str, problems: List[str]) -> object:
    if key not in doc:
        problems.append("%s: missing key %r" % (where, key))
        return None
    value = doc[key]
    allowed = types if isinstance(types, tuple) else (types,)
    # bool subclasses int; only accept it when bool was asked for.
    wrong_type = not isinstance(value, allowed) or (
        isinstance(value, bool) and bool not in allowed
    )
    if wrong_type:
        problems.append(
            "%s: key %r must be %s, got %s"
            % (where, key, types, type(value).__name__)
        )
        return None
    return value


def _check_latency(latency: object, where: str, problems: List[str]) -> None:
    if latency is None:
        return
    if not isinstance(latency, dict):
        problems.append("%s: latency_ms must be an object or null" % where)
        return
    for key in _LATENCY_KEYS:
        if key not in latency:
            problems.append("%s: latency_ms missing %r" % (where, key))
            return
        if not isinstance(latency[key], (int, float)) or isinstance(latency[key], bool):
            problems.append("%s: latency_ms[%r] must be a number" % (where, key))
            return
    if latency["count"] < 1:
        problems.append("%s: latency_ms.count must be >= 1" % where)
    ordered = ("min_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")
    for lo, hi in zip(ordered, ordered[1:]):
        if latency[lo] > latency[hi]:
            problems.append(
                "%s: latency_ms must be monotone (%s=%r > %s=%r)"
                % (where, lo, latency[lo], hi, latency[hi])
            )


def _check_counter(value: object, key: str, where: str, problems: List[str]) -> None:
    if value is None:
        return
    if not isinstance(value, dict):
        problems.append("%s: %s must be an object or null" % (where, key))
        return
    for name, count in value.items():
        if not isinstance(name, str) or not isinstance(count, int) or isinstance(count, bool):
            problems.append("%s: %s must map strings to integers" % (where, key))
            return


def validate_summary(doc: object) -> List[str]:
    """Every way ``doc`` deviates from the schema (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["summary must be a JSON object, got %s" % type(doc).__name__]

    version = _require(doc, "schema_version", str, "summary", problems)
    if version is not None and version != SCHEMA_VERSION:
        problems.append(
            "summary: schema_version %r is not the supported %r"
            % (version, SCHEMA_VERSION)
        )
    _require(doc, "profile", str, "summary", problems)
    _require(doc, "seed", int, "summary", problems)

    environment = _require(doc, "environment", dict, "summary", problems)
    if environment is not None:
        _require(environment, "python", str, "environment", problems)
        _require(environment, "platform", str, "environment", problems)
        _require(environment, "cpu_count", (int, type(None)), "environment", problems)

    dataset_names = set()
    datasets = _require(doc, "datasets", list, "summary", problems)
    if datasets is not None:
        for position, entry in enumerate(datasets):
            where = "datasets[%d]" % position
            if not isinstance(entry, dict):
                problems.append("%s: must be an object" % where)
                continue
            name = _require(entry, "name", str, where, problems)
            if name is not None:
                if name in dataset_names:
                    problems.append("%s: duplicate dataset name %r" % (where, name))
                dataset_names.add(name)
            _require(entry, "kind", str, where, problems)
            objects = _require(entry, "objects", int, where, problems)
            if objects is not None and objects < 1:
                problems.append("%s: objects must be >= 1" % where)
            _require(entry, "content_hash", str, where, problems)
            cache = _require(entry, "cache", str, where, problems)
            if cache is not None and cache not in ("hit", "miss"):
                problems.append("%s: cache must be 'hit' or 'miss'" % where)
            _require(entry, "generate_s", (int, float), where, problems)
            _require(entry, "index_build_s", (int, float), where, problems)

    seen_ids = set()
    workloads = _require(doc, "workloads", list, "summary", problems)
    if workloads is not None:
        if not workloads:
            problems.append("summary: workloads must not be empty")
        for position, entry in enumerate(workloads):
            where = "workloads[%d]" % position
            if not isinstance(entry, dict):
                problems.append("%s: must be an object" % where)
                continue
            workload_id = _require(entry, "id", str, where, problems)
            if workload_id is not None:
                if workload_id in seen_ids:
                    problems.append("%s: duplicate workload id %r" % (where, workload_id))
                seen_ids.add(workload_id)
                where = "workloads[%r]" % workload_id
            kind = _require(entry, "kind", str, where, problems)
            if kind is not None and kind not in WORKLOAD_KINDS:
                problems.append(
                    "%s: kind %r not in %s" % (where, kind, list(WORKLOAD_KINDS))
                )
            dataset = _require(entry, "dataset", str, where, problems)
            if dataset is not None and dataset_names and dataset not in dataset_names:
                problems.append("%s: unknown dataset %r" % (where, dataset))
            _require(entry, "solver", str, where, problems)
            cache = _require(entry, "cache", str, where, problems)
            if cache is not None and cache not in _CACHE_MODES:
                problems.append("%s: cache must be one of %s" % (where, list(_CACHE_MODES)))
            queries = _require(entry, "queries", int, where, problems)
            if queries is not None and queries < 1:
                problems.append("%s: queries must be >= 1" % where)
            _require(entry, "num_keywords", int, where, problems)
            shards = _require(entry, "shards", int, where, problems)
            if shards is not None and shards < 0:
                problems.append("%s: shards must be >= 0" % where)
            if kind == "sharded" and shards is not None and shards < 1:
                problems.append("%s: sharded workloads need shards >= 1" % where)
            failures = _require(entry, "failures", int, where, problems)
            if failures is not None and failures < 0:
                problems.append("%s: failures must be >= 0" % where)
            wall = _require(entry, "wall_s", (int, float), where, problems)
            if wall is not None and wall < 0:
                problems.append("%s: wall_s must be >= 0" % where)
            _require(entry, "throughput_qps", (int, float), where, problems)
            if "latency_ms" not in entry:
                problems.append("%s: missing key 'latency_ms'" % where)
            else:
                _check_latency(entry["latency_ms"], where, problems)
            for counter_key in ("provenance", "cache_stats"):
                if counter_key not in entry:
                    problems.append("%s: missing key %r" % (where, counter_key))
                else:
                    _check_counter(entry[counter_key], counter_key, where, problems)

    totals = _require(doc, "totals", dict, "summary", problems)
    if totals is not None:
        _require(totals, "wall_s", (int, float), "totals", problems)
        total_queries = _require(totals, "queries", int, "totals", problems)
        _require(totals, "workloads", int, "totals", problems)
        if (
            total_queries is not None
            and isinstance(workloads, list)
            and all(isinstance(w, dict) and isinstance(w.get("queries"), int) for w in workloads)
        ):
            declared = sum(w["queries"] for w in workloads)
            if total_queries != declared:
                problems.append(
                    "totals: queries=%d but workloads declare %d"
                    % (total_queries, declared)
                )
    return problems


def assert_valid(doc: object) -> None:
    """Raise :class:`SummarySchemaError` listing every problem, if any."""
    problems = validate_summary(doc)
    if problems:
        raise SummarySchemaError(
            "summary fails schema %s:\n  %s"
            % (SCHEMA_VERSION, "\n  ".join(problems))
        )


#: Keys whose values are wall-clock measurements (zeroed in the golden
#: projection).  Matching is by suffix so new timing fields stay covered.
_TIMING_SUFFIXES = ("_s", "_ms", "_qps")

#: String fields that vary by host or by generator internals.
_PLACEHOLDERS = {
    "content_hash": "<sha256>",
    "path": "<path>",
    "python": "<python>",
    "platform": "<platform>",
}

#: Counter maps whose keys depend on timing (which chain stage answered,
#: how often a cache hit) — reduced to empty objects in the projection.
_VOLATILE_COUNTERS = ("provenance", "cache_stats")

#: Numeric fields that are pinned by the profile and therefore kept.
_PINNED_NUMERIC = (
    "count",
    "queries",
    "objects",
    "num_keywords",
    "failures",
    "seed",
    "workloads",
    "shards",
)


def canonical_summary(doc: Dict) -> Dict:
    """The golden-file projection: structure kept, measurements neutralized."""

    def walk(node, key: str = ""):
        if isinstance(node, dict):
            return {k: walk(v, k) for k, v in sorted(node.items())}
        if isinstance(node, list):
            return [walk(item, key) for item in node]
        if key in _VOLATILE_COUNTERS:
            return node
        if key in _PLACEHOLDERS and isinstance(node, str):
            return _PLACEHOLDERS[key]
        if isinstance(node, bool) or node is None or isinstance(node, str):
            return node
        if key in _PINNED_NUMERIC:
            return node
        if isinstance(node, (int, float)) and key.endswith(_TIMING_SUFFIXES):
            return 0.0
        return node

    projected = walk(copy.deepcopy(doc))
    if isinstance(projected.get("environment"), dict):
        # The host must not leak into the golden file.
        projected["environment"] = {"python": "<python>", "platform": "<platform>"}
    for dataset in projected.get("datasets", []):
        if isinstance(dataset, dict) and "cache" in dataset:
            # hit vs miss depends on what the cache dir already held.
            dataset["cache"] = "<hit|miss>"
    for workload in projected.get("workloads", []):
        for counter_key in _VOLATILE_COUNTERS:
            if isinstance(workload.get(counter_key), dict):
                workload[counter_key] = {}
    return projected
