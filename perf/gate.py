"""The correctness gate: every answer the benchmark times is checked.

The checks use only the benchmark's own view of the data (rows parsed
from the pinned dataset file, queries as words), so a program that
corrupts its own objects or cost code cannot vouch for itself:

- **feasible** — the returned object ids are distinct, exist, and
  their keywords cover ``q.ψ``;
- **cost** — the reported cost equals MaxSum / Dia re-evaluated on the
  returned objects, within the program's float tolerance (1e-9 relative
  or absolute, ``repro.utils.floatcmp.EPSILON``);
- **references** — out-of-loop solves on a pinned sample:
  sharded answers bit-identical to the single tree; exact costs equal
  to the independent ``cao-exact``; appro costs within the published
  ratio of their exact counterpart (1.375 MaxSum, √3 Dia).

Each check returns a list of violation strings; an empty list passes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "EPSILON",
    "RATIO",
    "check_answer",
    "check_records",
    "check_references",
    "cost_name",
    "evaluate",
]

#: The program's float tolerance for distances and costs.
EPSILON = 1e-9

#: Published approximation ratios of the paper's appro algorithms.
RATIO = {"maxsum": 1.375, "dia": math.sqrt(3.0)}


def cost_name(solver: Optional[str]) -> str:
    """The cost a solver optimizes; the serving chain is all MaxSum."""
    if solver is None or solver == "nn-set":
        return "maxsum"
    return solver.split("-")[0]


def evaluate(name: str, qx: float, qy: float, points: Sequence[Tuple[float, float]]) -> float:
    """MaxSum (``0.5·max d(o,q) + 0.5·diameter``) or Dia of a point set."""
    far = max(math.hypot(x - qx, y - qy) for x, y in points)
    diameter = 0.0
    for i, (x1, y1) in enumerate(points):
        for x2, y2 in points[i + 1 :]:
            diameter = max(diameter, math.hypot(x1 - x2, y1 - y2))
    if name == "maxsum":
        return 0.5 * far + 0.5 * diameter
    if name == "dia":
        return max(far, diameter)
    raise ValueError("no reference cost for %r" % name)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=EPSILON, abs_tol=EPSILON)


def check_answer(rows, item, cost, oids) -> Optional[str]:
    """One answer's feasibility and cost; None when it passes."""
    solver, qx, qy, words = item
    if not oids or len(set(oids)) != len(oids):
        return "empty or repeated object ids %r" % (oids,)
    if any(not 0 <= oid < len(rows) for oid in oids):
        return "object id out of range in %r" % (oids,)
    covered = set()
    for oid in oids:
        covered |= rows[oid].words
    missing = set(words) - covered
    if missing:
        return "infeasible: %d query keywords uncovered" % len(missing)
    name = cost_name(solver)
    expected = evaluate(name, qx, qy, [(rows[o].x, rows[o].y) for o in oids])
    if not isinstance(cost, float) or not _close(cost, expected):
        return "reported %s cost %r, re-evaluated %r" % (name, cost, expected)
    return None


def check_records(rows, pool, records) -> List[str]:
    """Check every successful ``[idx, latency, cost, oids, ...]`` record."""
    violations = []
    for record in records:
        idx, _, cost, oids = record[:4]
        if record[5] is not None:
            continue  # a failure, counted separately
        problem = check_answer(rows, pool[idx], cost, oids)
        if problem is not None:
            violations.append("query %d: %s" % (idx, problem))
    return violations


def check_references(kind: str, rows, pool, refs) -> Tuple[List[str], List[float]]:
    """Check ``[idx, cost, oids, ref_cost, ref_oids]`` rows of a sample.

    Returns the violations and the answer/reference cost ratios.
    """
    violations: List[str] = []
    ratios: List[float] = []
    for idx, cost, oids, ref_cost, ref_oids in refs:
        item = pool[idx]
        for label, c, o in (("answer", cost, oids), ("reference", ref_cost, ref_oids)):
            problem = check_answer(rows, item, c, o)
            if problem is not None:
                violations.append("query %d %s: %s" % (idx, label, problem))
        if kind == "single-tree":
            if cost != ref_cost or list(oids) != list(ref_oids):
                violations.append(
                    "query %d: sharded answer %r %r differs from single tree %r %r"
                    % (idx, cost, oids, ref_cost, ref_oids)
                )
        elif kind == "cao-exact":
            if not _close(cost, ref_cost):
                violations.append(
                    "query %d: exact cost %r, cao-exact %r" % (idx, cost, ref_cost)
                )
        elif kind == "counterpart":
            name = cost_name(item.solver)
            if cost > RATIO[name] * ref_cost * (1 + EPSILON) + EPSILON:
                violations.append(
                    "query %d: appro cost %r exceeds %s x exact %r"
                    % (idx, cost, RATIO[name], ref_cost)
                )
        else:
            raise ValueError("unknown reference kind %r" % kind)
        if ref_cost > 0:
            ratios.append(cost / ref_cost)
    return violations, ratios
