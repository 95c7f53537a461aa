"""The repo benchmark: four pinned workloads, end-to-end and per-layer metrics.

Usage (from anywhere; paths resolve against this checkout)::

    python perf/run.py --seed 7                  # all workloads, end-to-end metrics
    python perf/run.py --seed 7 --trace          # per-layer metrics + trace.json
    python perf/run.py --workload exact-hotel20k --seed 3 --seconds 15 --trace 0

Each workload runs in fresh child processes (``perf/worker.py`` for the
library workloads, ``python -m repro.serve`` for the serving one).
Every answer is checked (``perf/gate.py``); on any violation the run
prints the violations, no metric numbers, and exits 1.  Otherwise it
prints one ``<workload> <metric> <value> <unit> n=<samples>`` line per
metric, writes ``perf/out/<run>/results.json`` (and ``trace.json`` when
traced), and ends with one JSON line::

    {"correct": true, "attempted": 1893, "failed": 0, "metrics": {...}}

Metric names, units and bounds live in ``BENCHMARK.json``; with
``--trace 0`` the metrics are its ``end_to_end`` list, with ``--trace 1``
its ``per_layer`` list.  Every per-layer time is measured on every
workload; a count or share of a layer that is not on a workload's path
reads 0, and times that exist only on some paths (``PATH_ONLY_UNITS``)
are printed and written but left out of the last line.
Exit codes: 0 pass, 1 a wrong answer or a crashed child, 2 the program
or a pinned input is missing or changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

from gate import check_records, check_references
from serve_load import run_serve
from summary import percentile
from timing import speed_factors, timed_start
from workloads import (
    CACHE_DIR,
    OUT_DIR,
    PERF_DIR,
    ROOT,
    SRC_DIR,
    WORKLOADS,
    file_sha256,
    load_pins,
    make_pool,
    pool_sha256,
    read_rows,
)

#: Set-ups per run; ``setup_s`` is their median.  Three, not more: a
#: ``gn-100k`` set-up takes 2–3 s, and set-ups within one run vary far
#: less than the machine's speed does from run to run.
SETUP_REPEATS = 3

#: How long a library child may take past its timed seconds (reference
#: solves, result transfer) before the run is declared hung.
CHILD_GRACE_S = 120.0

#: Per-layer times that exist only on some workloads' paths: index and
#: solver self time (library workloads) and the serving split.  They are
#: printed and written to ``results.json`` but are not ``BENCHMARK.json``
#: metrics, which every workload reports as measured.
PATH_ONLY_UNITS = {
    "index.busy_ms_per_query": "ms",
    "algorithms.self_ms_per_query": "ms",
    "serve.hit_latency_p50_ms": "ms",
    "serve.miss_latency_p50_ms": "ms",
    "serve.server_ms_p50": "ms",
    "serve.server_ms_p99": "ms",
    "serve.transport_ms_p50": "ms",
    "serve.overhead_ms_p50": "ms",
    "serve.generator_late_p99_ms": "ms",
}

COUNTERS = (
    ("owners_tried", "algorithms.owners_tried_per_query"),
    ("candidates_scanned", "algorithms.candidates_scanned_per_query"),
    ("bisection_probes", "algorithms.bisection_probes_per_query"),
    ("cover_probes", "algorithms.cover_probes_per_query"),
    ("cost_evaluations", "algorithms.cost_evaluations_per_query"),
    ("shards_pruned_mask", "shard.pruned_mask_per_query"),
    ("shards_pruned_bound", "shard.pruned_bound_per_query"),
    ("seed_runs", "shard.seed_runs_per_query"),
)


class BenchError(Exception):
    """The run cannot produce trustworthy numbers; exit with ``code``."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    # Fixed string hashing: set layouts, and so timings, repeat run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


# -- inputs --------------------------------------------------------------------


def pinned_dataset(workload_name: str, pins) -> Path:
    """The workload's dataset file, generated if missing, hash-checked."""
    workload = WORKLOADS[workload_name]
    pin = pins["datasets"][workload.dataset]
    path = CACHE_DIR / pin["file"]
    if not path.exists() or file_sha256(path) != pin["sha256"]:
        subprocess.run(
            [sys.executable, str(PERF_DIR / "worker.py"), workload_name, "--prepare"],
            env=child_env(),
            cwd=ROOT,
            check=True,
        )
    digest = file_sha256(path)
    if digest != pin["sha256"]:
        raise BenchError(
            "pinned dataset %s changed: sha256 %s, pinned %s"
            % (workload.dataset, digest, pin["sha256"]),
            2,
        )
    return path


def pinned_pool(workload_name: str, rows, pins):
    pool = make_pool(rows, WORKLOADS[workload_name])
    digest = pool_sha256(pool)
    if digest != pins["pools"][workload_name]:
        raise BenchError(
            "pinned query pool of %s changed: sha256 %s, pinned %s"
            % (workload_name, digest, pins["pools"][workload_name]),
            2,
        )
    return pool


def reference_sample(workload, pool) -> List[int]:
    """The pinned out-of-loop sample: leading canonical pool indices."""
    eligible = [
        idx for idx, item in enumerate(pool) if len(item.words) <= workload.reference_max_size
    ]
    return eligible[: workload.reference_count]


# -- library workloads -----------------------------------------------------------


class Worker(NamedTuple):
    """A worker process that has set up, and its ready line."""

    process: subprocess.Popen
    ready: Dict[str, object]  # {"event": "ready", "load_s": ..., "index_build_s": ...}

    @property
    def pid(self) -> int:
        return self.process.pid

    def setup_layer(self) -> Dict[str, float]:
        """The worker's own split of its set-up, in raw seconds."""
        return {
            "setup.load_s": self.ready["load_s"],
            "setup.index_build_s": self.ready["index_build_s"],
        }

    def stop(self) -> None:
        """End a set-up-only worker: end of input, then wait."""
        self.process.stdin.close()
        self.process.wait()


def start_worker(workload_name: str) -> Worker:
    """A worker that has set up and reported ready."""
    child = subprocess.Popen(
        [sys.executable, str(PERF_DIR / "worker.py"), workload_name],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    line = child.stdout.readline()
    ready = json.loads(line) if line else {}
    if ready.get("event") != "ready":
        child.kill()
        child.wait()
        raise BenchError("worker failed during set-up (exit %s)" % child.returncode, 1)
    return Worker(child, ready)


def run_library(name: str, pool, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    workload = WORKLOADS[name]
    setups: List[float] = []
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        setup_only, setup_s, _ = timed_start(lambda: start_worker(name))
        setups.append(setup_s)
        setup_only.stop()
    worker, setup_s, wall_s = timed_start(lambda: start_worker(name))
    setups.append(setup_s)
    child = worker.process
    job = {
        "items": [[idx, *item] for idx, item in enumerate(pool)],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reference": [[idx, *pool[idx]] for idx in reference_sample(workload, pool)],
    }
    try:
        out, _ = child.communicate(json.dumps(job) + "\n", timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise BenchError("%s worker hung" % name, 1)
    if child.returncode != 0 or not out.strip():
        raise BenchError("%s worker exited %s" % (name, child.returncode), 1)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setups
    result["setup"] = dict(worker.setup_layer(), **{"setup.ready_s": wall_s})
    return result


def latency_by_query(records, factors: Sequence[float]) -> Dict[int, float]:
    """Each query's median over its passes, in reference ms.

    ``factors`` are the speed factors of the records (see
    :func:`timing.speed_factors`).  A query that failed in any pass
    counts as infinitely slow.
    """
    tries: Dict[int, List[float]] = {}
    failed = set()
    for record, factor in zip(records, factors):
        idx, latency_ns, error = record[0], record[1], record[5]
        if error is not None:
            failed.add(idx)
        tries.setdefault(idx, []).append(latency_ns / 1e6 * factor)
    return {
        idx: float("inf") if idx in failed else statistics.median(values)
        for idx, values in tries.items()
    }


def latency_metrics(latency_ms: List[float]) -> Dict[str, tuple]:
    """Percentiles over per-query (or per-request) latencies, and the
    queries per second one client sustains at those latencies.

    Values are ``(value, samples)``; a failure is an infinite latency.
    """
    answered = [ms for ms in latency_ms if ms != float("inf")]
    return {
        "latency_p50_ms": (percentile(latency_ms, 50), len(latency_ms)),
        "latency_p95_ms": (percentile(latency_ms, 95), len(latency_ms)),
        "throughput_qps": (len(answered) / (sum(answered) / 1e3), len(answered)),
    }


def library_metrics(name: str, result, rows, pool) -> Dict[str, object]:
    """Gate the answers of one library run and derive its metrics."""
    workload = WORKLOADS[name]
    records = result["records"]
    checked = records + result["bare_records"]
    violations = check_records(rows, pool, checked)
    ref_violations, ratios = check_references(
        workload.reference, rows, pool, result["reference"]
    )
    violations += ref_violations
    out: Dict[str, object] = {
        "attempted": len(checked),
        "failed": len(checked) - sum(1 for r in checked if r[5] is None),
        "violations": violations,
        "answers": {r[0]: (r[2], r[3]) for r in checked if r[5] is None},
    }
    if "passes" in result:
        out["passes"] = result["passes"]
        factors = speed_factors(result["probes"], result["probe_at"])
        out["end_to_end"] = latency_metrics(list(latency_by_query(records, factors).values()))
        out["end_to_end"]["setup_s"] = (
            statistics.median(result["setup_s"]),
            len(result["setup_s"]),
        )
        out["end_to_end"]["peak_rss_mb"] = (result["rss_kb"] / 1024.0, 1)
        return out
    n = len(records)
    solve_ns = sum(r[1] for r in records)
    busy_ns = items = 0
    calls: Dict[str, int] = {}
    for record in records:
        for method, tally in record[6].items():
            busy_ns += tally["busy_ns"]
            items += tally["items"]
            calls[method] = calls.get(method, 0) + tally["calls"]
    counters: Dict[str, int] = {}
    for record in records:
        for key, value in record[4].items():
            counters[key] = counters.get(key, 0) + value
    solve_ms = [r[1] / 1e6 for r in records]
    layers: Dict[str, float] = {
        **result["setup"],
        "algorithms.solve_ms_p50": percentile(solve_ms, 50),
        "algorithms.solve_ms_p95": percentile(solve_ms, 95),
        "index.busy_ms_per_query": busy_ns / n / 1e6,
        "index.share": busy_ns / solve_ns,
        "index.items_per_query": items / n,
        "algorithms.self_ms_per_query": (solve_ns - busy_ns) / n / 1e6,
        "algorithms.cover_yield": (
            counters.get("covers_found", 0) / counters["cover_probes"]
            if counters.get("cover_probes")
            else 0.0
        ),
        "algorithms.cost_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "trace.overhead_pct": 100.0
        * (solve_ns / sum(r[1] for r in result["bare_records"]) - 1.0),
    }
    for method in (
        "nearest_relevant_iter",
        "keyword_nn",
        "nearest_neighbor_set",
        "relevant_in_circle",
        "relevant_in_region",
        "relevant_objects",
    ):
        layers["index.%s.calls_per_query" % method] = calls.get(method, 0) / n
    for counter, metric in COUNTERS:
        layers[metric] = counters.get(counter, 0) / n
    if workload.shards:
        layers["shard.scanned_fraction"] = (
            counters.get("shards_scanned", 0) / counters["shards_total"]
        )
    out["per_layer"] = layers
    out["spans"] = result["spans"]
    return out


# -- one workload, end to end ----------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, pins) -> Dict[str, object]:
    path = pinned_dataset(name, pins)
    rows = read_rows(path)
    pool = pinned_pool(name, rows, pins)
    if WORKLOADS[name].loop == "open":
        result = run_serve(rows, pool, path, child_env(), seed, seconds, trace)
        if trace:
            # The daemon's own load/build split is not observable from
            # outside; a set-up-only worker loads the same dataset file and
            # builds the same SearchContext index and inverted index.
            worker = start_worker(name)
            worker.stop()
            result["per_layer"].update(worker.setup_layer())
        return result
    result = run_library(name, pool, seed, seconds, trace)
    return library_metrics(name, result, rows, pool)


def check_shard_identity(results: Dict[str, Dict[str, object]]) -> None:
    """The gn workloads share one pool: answers must be bit-identical."""
    if "appro-gn100k" not in results or "sharded-gn100k" not in results:
        return
    single = results["appro-gn100k"]["answers"]
    sharded = results["sharded-gn100k"]
    for idx, answer in sharded["answers"].items():
        if idx in single and single[idx] != answer:
            sharded["violations"].append(
                "query %d: sharded %r differs from appro-gn100k %r"
                % (idx, answer, single[idx])
            )


def git_commit() -> Optional[str]:
    """HEAD of this checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7, help="query-stream seed")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"], help="measured seconds per workload"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics and trace.json instead of end-to-end metrics",
    )
    args = parser.parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print("no program to measure: %s/repro is missing" % SRC_DIR, file=sys.stderr)
        return 2
    trace = bool(args.trace)
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    pins = load_pins()
    run_dir = OUT_DIR / ("%s-%s-s%d%s-%d" % (
        time.strftime("%Y%m%d-%H%M%S"),
        args.workload or "all",
        args.seed,
        "-trace" if trace else "",
        os.getpid(),
    ))
    results: Dict[str, Dict[str, object]] = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, trace, pins)
    except BenchError as err:
        print("perf: %s" % err, file=sys.stderr)
        return err.code

    check_shard_identity(results)
    violations = [(n, v) for n, r in results.items() for v in r["violations"]]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if violations:
        for name, violation in violations[:20]:
            print("VIOLATION %s: %s" % (name, violation), file=sys.stderr)
        print("%d violations; no metrics reported" % len(violations), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    report: Dict[str, Dict[str, object]] = {}
    units = {m["name"]: m["unit"] for m in metric_specs}
    for name, result in results.items():
        values = result["per_layer"] if trace else result["end_to_end"]
        report[name] = {}
        for metric in [*units, *sorted(set(values) - set(units))]:
            value = values.get(metric, 0.0)
            value, samples = value if isinstance(value, tuple) else (value, None)
            unit = units[metric] if metric in units else PATH_ONLY_UNITS[metric]
            report[name][metric] = {"value": value, "unit": unit, "samples": samples}
            print("%s %s %r %s%s" % (
                name, metric, value, unit, "" if samples is None else " n=%d" % samples,
            ))

    run_dir.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": "perf-results/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "datasets": pins["datasets"],
        "pools": pins["pools"],
        "workloads": {
            name: {
                "attempted": results[name]["attempted"],
                "failed": results[name]["failed"],
                "passes": results[name].get("passes"),
                "metrics": report[name],
            }
            for name in names
        },
    }
    (run_dir / "results.json").write_text(json.dumps(document, indent=2) + "\n")
    if trace:
        spans = {name: results[name]["spans"] for name in names}
        (run_dir / "trace.json").write_text(json.dumps({"workloads": spans}) + "\n")
    print("wrote %s" % run_dir.relative_to(ROOT), file=sys.stderr)

    metrics = {
        m if args.workload else "%s/%s" % (name, m): {"value": v["value"], "unit": v["unit"]}
        for name in names
        for m, v in report[name].items()
        if m in units
    }
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
