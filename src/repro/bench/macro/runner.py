"""Execute a macro-benchmark profile into one schema-valid summary dict.

The runner owns the measurement discipline:

- **Index builds are not query latency.**  One
  :class:`~repro.algorithms.base.SearchContext` is built per dataset and
  shared by every workload over it; the build of its spatial index is
  timed separately and reported as ``index_build_s`` on the dataset
  entry (the keyword postings the feasibility check reads are built
  with the dataset, at load).
- **Cold vs warm is explicit.**  A ``cold`` workload times the first
  (and only) pass over its queries against uncached state.  A ``warm``
  workload puts a :class:`~repro.parallel.cache.ResultCache` in front of
  the solver, runs one untimed priming pass, then times the second pass
  — and reports the cache counters so hit rates are visible in the
  summary.
- **Failures never abort a run.**  A query that raises a typed CoSKQ
  error is counted in ``failures`` and excluded from the latency sample;
  an unexpected exception still propagates (a broken harness must not
  produce a pretty number).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.algorithms.base import SearchContext
from repro.algorithms.registry import make_algorithm
from repro.bench.macro.aggregate import LatencyAccumulator, throughput_qps
from repro.bench.macro.datasets import DatasetCache
from repro.bench.macro.schema import SCHEMA_VERSION, assert_valid
from repro.bench.macro.workloads import Profile, WorkloadSpec, profile_by_name
from repro.data.queries import generate_queries
from repro.errors import CoSKQError
from repro.model.dataset import Dataset
from repro.model.query import Query
from repro.parallel.cache import CachedSolver, ResultCache
from repro.parallel.executor import ParallelBatchExecutor
from repro.parallel.spec import SolverSpec, WorkerEnv

__all__ = ["run_profile"]

Echo = Optional[Callable[[str], None]]


def _say(echo: Echo, message: str) -> None:
    if echo is not None:
        echo(message)


def _timed_pass(
    solve: Callable[[Query], object],
    queries: List[Query],
    provenance: "Counter[str]",
) -> Tuple[LatencyAccumulator, int, float]:
    """Time ``solve`` per query; returns (latencies, failures, wall_s)."""
    latencies = LatencyAccumulator()
    failures = 0
    pass_started = time.perf_counter()
    for query in queries:
        started = time.perf_counter()
        try:
            result = solve(query)
        except CoSKQError as exc:
            failures += 1
            provenance["failed:%s" % type(exc).__name__] += 1
            continue
        latencies.add((time.perf_counter() - started) * 1_000.0)
        _count_provenance(result, provenance)
    return latencies, failures, time.perf_counter() - pass_started


def _count_provenance(result: object, provenance: "Counter[str]") -> None:
    """Tally who answered: the chain stage when stamped, else the solver."""
    stamp = getattr(result, "provenance", None)
    if stamp is not None:
        provenance[getattr(stamp, "answered_by", "unknown")] += 1
        if getattr(stamp, "degraded", False):
            provenance["degraded"] += 1
    elif hasattr(result, "algorithm"):
        provenance[result.algorithm] += 1


def _solver_workload(
    spec: WorkloadSpec, context: SearchContext, queries: List[Query]
) -> Dict[str, object]:
    provenance: "Counter[str]" = Counter()
    cache_stats: Optional[Dict[str, int]] = None
    if spec.cache == "warm":
        result_cache = ResultCache()
        solver = CachedSolver(make_algorithm(spec.solver, context), result_cache)
        for query in queries:  # priming pass, untimed
            solver.solve(query)
        latencies, failures, wall_s = _timed_pass(solver.solve, queries, provenance)
        cache_stats = result_cache.stats_dict("result_")
    else:
        solver = make_algorithm(spec.solver, context)
        latencies, failures, wall_s = _timed_pass(solver.solve, queries, provenance)
    return _workload_entry(spec, latencies, failures, wall_s, provenance, cache_stats)


def _chain_workload(
    spec: WorkloadSpec, context: SearchContext, queries: List[Query]
) -> Dict[str, object]:
    executor = SolverSpec(
        chain=spec.solver, deadline_ms=spec.deadline_ms, always_answer=True
    ).build(context)
    provenance: "Counter[str]" = Counter()
    latencies, failures, wall_s = _timed_pass(executor.solve, queries, provenance)
    return _workload_entry(spec, latencies, failures, wall_s, provenance, None)


def _batch_workload(
    spec: WorkloadSpec, dataset: Dataset, queries: List[Query]
) -> Dict[str, object]:
    env = WorkerEnv(dataset=dataset)
    solver_spec = SolverSpec(algorithm=spec.solver)
    provenance: "Counter[str]" = Counter()
    with ParallelBatchExecutor(env, solver_spec, workers=spec.workers) as executor:
        executor.run([])  # force pool + worker runtimes up before timing
        started = time.perf_counter()
        report = executor.run(queries)
        wall_s = time.perf_counter() - started
    for result in report.results:
        if result is not None:
            _count_provenance(result, provenance)
    entry = _workload_entry(
        spec,
        LatencyAccumulator(),
        len(report.failures),
        wall_s,
        provenance,
        dict(report.cache_stats) if report.cache_stats else None,
    )
    entry["latency_ms"] = None  # per-query wall is worker-local; batch reports throughput
    return entry


def _sharded_workload(
    spec: WorkloadSpec,
    dataset: Dataset,
    context: SearchContext,
    queries: List[Query],
) -> Dict[str, object]:
    """Paired measurement: the scatter-gather engine vs the single tree.

    Both passes run the same registry solver over the same query list.
    The sharded pass is the one the latency sample and throughput
    describe; the single-index pass (over the dataset's shared context,
    whose build the runner already excluded from query latency) is
    timed back to back, so the two numbers see the same machine state
    and their ratio is drift-free.  The ratio lands in provenance
    as ``speedup_pct`` (volatile, so the golden file never pins one
    machine's number); the shard build is reported separately as
    ``shard_build_s``, mirroring the dataset entries' ``index_build_s``
    discipline that index construction is not query latency.
    """
    from repro.shard import ScatterGather, ShardedIndexFactory

    provenance: "Counter[str]" = Counter()
    build_started = time.perf_counter()
    # Built outside the timed pass; the keyword postings are the
    # dataset's, built at load.
    sharded_context = context.with_index(
        ShardedIndexFactory(spec.shards).build(dataset)
    )
    shard_build_s = time.perf_counter() - build_started
    engine = ScatterGather(sharded_context, spec.solver)

    def solve(query: Query) -> object:
        result = engine.solve(query)
        counters = result.counters
        for key in ("shards_total", "shards_scanned", "shards_pruned_mask"):
            provenance[key] += counters.get(key, 0)
        if counters.get("shards_scanned", 0) < counters.get("shards_total", 0):
            provenance["queries_with_pruning"] += 1
        return result

    latencies, failures, wall_s = _timed_pass(solve, queries, provenance)

    baseline = make_algorithm(spec.solver, context)
    _, baseline_failed, baseline_wall_s = _timed_pass(
        baseline.solve, queries, Counter()
    )
    if baseline_failed:
        provenance["baseline_failed"] = baseline_failed
    if wall_s > 0.0:
        provenance["speedup_pct"] = int(round(100.0 * baseline_wall_s / wall_s))
    entry = _workload_entry(spec, latencies, failures, wall_s, provenance, None)
    entry["shard_build_s"] = shard_build_s
    entry["baseline_wall_s"] = baseline_wall_s
    return entry


def _workload_entry(
    spec: WorkloadSpec,
    latencies: LatencyAccumulator,
    failures: int,
    wall_s: float,
    provenance: "Counter[str]",
    cache_stats: Optional[Dict[str, int]],
) -> Dict[str, object]:
    completed = spec.queries - failures
    return {
        "id": spec.id,
        "dataset": spec.dataset,
        "kind": spec.kind,
        "solver": spec.solver,
        "cache": spec.cache,
        "queries": spec.queries,
        "num_keywords": spec.num_keywords,
        "shards": spec.shards,
        "failures": failures,
        "wall_s": wall_s,
        "throughput_qps": throughput_qps(completed, wall_s),
        "latency_ms": latencies.summary() if len(latencies) else None,
        "provenance": dict(sorted(provenance.items())),
        "cache_stats": cache_stats,
    }


def _run_workload(
    spec: WorkloadSpec,
    dataset: Dataset,
    context: SearchContext,
    queries: List[Query],
) -> Dict[str, object]:
    if spec.kind == "batch":
        return _batch_workload(spec, dataset, queries)
    if spec.kind == "sharded":
        return _sharded_workload(spec, dataset, context, queries)
    if spec.kind == "chain":
        return _chain_workload(spec, context, queries)
    return _solver_workload(spec, context, queries)


def run_profile(
    profile: Union[str, Profile],
    *,
    cache_dir: Optional[str | Path] = None,
    out: Optional[str | Path] = None,
    echo: Echo = None,
) -> Dict[str, object]:
    """Run every workload of ``profile``; return (and optionally write)
    the schema-valid summary document."""
    if isinstance(profile, str):
        profile = profile_by_name(profile)
    run_started = time.perf_counter()
    cache = DatasetCache(cache_dir)

    datasets: Dict[str, Dataset] = {}
    contexts: Dict[str, SearchContext] = {}
    dataset_entries: List[Dict[str, object]] = []
    for spec in profile.datasets:
        dataset, meta = cache.materialize(spec)
        _say(
            echo,
            "dataset %s: %d objects (%s, %.2fs)"
            % (spec.name, len(dataset), meta["cache"], meta["generate_s"]),
        )
        build_started = time.perf_counter()
        context = SearchContext(dataset)
        # Build the index now so workload latencies never pay for it.
        context.index
        index_build_s = time.perf_counter() - build_started
        datasets[spec.name] = dataset
        contexts[spec.name] = context
        dataset_entries.append(
            {
                "name": spec.name,
                "kind": spec.kind,
                "objects": len(dataset),
                "content_hash": meta["content_hash"],
                "cache": meta["cache"],
                "generate_s": meta["generate_s"],
                "index_build_s": index_build_s,
                "path": meta["path"],
            }
        )

    workload_entries: List[Dict[str, object]] = []
    for spec in profile.workloads:
        dataset = datasets[spec.dataset]
        queries = generate_queries(
            dataset, spec.num_keywords, spec.queries, seed=profile.seed
        )
        workload_started = time.perf_counter()
        entry = _run_workload(spec, dataset, contexts[spec.dataset], queries)
        _say(
            echo,
            "workload %-36s %5.2fs  %s"
            % (
                spec.id,
                time.perf_counter() - workload_started,
                "%.1f q/s" % entry["throughput_qps"],
            ),
        )
        workload_entries.append(entry)

    summary: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "profile": profile.name,
        "seed": profile.seed,
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "datasets": dataset_entries,
        "workloads": workload_entries,
        "totals": {
            "wall_s": time.perf_counter() - run_started,
            "queries": sum(w.queries for w in profile.workloads),
            "workloads": len(profile.workloads),
        },
    }
    assert_valid(summary)
    if out is not None:
        out = Path(out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _say(echo, "summary written to %s" % out)
    return summary
