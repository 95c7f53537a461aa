"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python perf/compare.py --base perf/out/RUN_A1 perf/out/RUN_A2 ... \\
                           --new  perf/out/RUN_B1 perf/out/RUN_B2 ...

Each argument is a ``results.json`` written by ``perf/run.py`` or the run
directory holding one.  For every workload and every end-to-end metric
of ``BENCHMARK.json`` the verdict is, with the metric's ``bound`` as a
share of the base median:

- ``unresolved`` — either side's quartile spread exceeds the bound, and
  not every new run reads better than every base run;
- ``worse`` — the new median is worse than the base median by more than
  the bound;
- ``better`` — it is better by more than the bound, or the spread is
  too wide but every new run reads better than every base run;
- ``same`` — otherwise.

A workload whose share of failed operations grew is ``worse`` too.
Exits 1 when any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from summary import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent

Runs = Dict[str, Dict[str, List[float]]]


def load(paths: Sequence[str]) -> Tuple[Runs, Dict[str, List[float]]]:
    """Metric values and failure shares per workload, one entry per run."""
    values: Runs = {}
    failures: Dict[str, List[float]] = {}
    for name in paths:
        path = Path(name)
        if path.is_dir():
            path = path / "results.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        for workload, result in document["workloads"].items():
            metrics = values.setdefault(workload, {})
            for metric, entry in result["metrics"].items():
                metrics.setdefault(metric, []).append(entry["value"])
            failures.setdefault(workload, []).append(
                result["failed"] / max(result["attempted"], 1)
            )
    return values, failures


def verdict(base: Sequence[float], new: Sequence[float], bound: float, better: str) -> str:
    """The verdict for one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    if spread(base) > bound or spread(new) > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better"
        return "unresolved"
    base_median = quartiles(base)[1]
    change = sign * (quartiles(new)[1] - base_median) / abs(base_median)
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def compare(base: Runs, new: Runs, base_failures, new_failures, specs) -> List[Tuple]:
    """``(workload, metric, base, new, change, verdict)`` rows."""
    rows = []
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            rows.append((workload, "-", None, None, None, "unresolved"))
            continue
        for spec in specs:
            name = spec["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            result = verdict(b, n, spec["bound"], spec["better"])
            base_median = quartiles(b)[1]
            change = (quartiles(n)[1] - base_median) / abs(base_median) if base_median else 0.0
            rows.append((workload, name, b, n, change, result))
        grew = max(new_failures[workload]) > max(base_failures[workload])
        rows.append(
            (
                workload,
                "failed_share",
                base_failures[workload],
                new_failures[workload],
                None,
                "worse" if grew else "same",
            )
        )
    return rows


def _describe(values: Optional[Sequence[float]]) -> str:
    if not values:
        return "-"
    q1, median, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g] n=%d" % (median, q1, q3, len(values))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perf/compare.py", description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="results of the parent")
    parser.add_argument("--new", nargs="+", required=True, help="results of the change")
    args = parser.parse_args(argv)
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    base, base_failures = load(args.base)
    new, new_failures = load(args.new)
    rows = compare(base, new, base_failures, new_failures, specs)
    print("%-16s %-16s %-32s %-32s %8s  %s" % ("workload", "metric", "base", "new", "change", "verdict"))
    for workload, metric, b, n, change, result in rows:
        print(
            "%-16s %-16s %-32s %-32s %8s  %s"
            % (
                workload,
                metric,
                _describe(b),
                _describe(n),
                "-" if change is None else "%+.1f%%" % (100 * change),
                result,
            )
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
