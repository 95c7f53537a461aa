"""Static analysis and runtime contracts for the CoSKQ reproduction.

Two complementary correctness nets over the same invariants:

- the **static pass** (``python -m repro.analysis`` / ``coskq-lint``)
  walks the source with the stdlib :mod:`ast` module and enforces the
  repo-specific rules: the syntactic per-module set R1–R9 (algorithm
  registration, determinism, epsilon-safe float comparison, API
  hygiene, counter resets, typed aborts, read-only search state, and
  the single-definition distance/signature rules) plus the
  interprocedural dataflow set R10–R11 (:mod:`repro.analysis.dataflow`:
  call-graph escape analysis, checkpoint reachability);
- the **runtime contract layer** (:mod:`repro.analysis.contracts`,
  opt-in via ``REPRO_CHECK_CONTRACTS=1``) re-validates every ``solve()``
  result: feasibility, cost recomputation, and exactness/ratio bounds
  against the brute-force oracle on small instances.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and the
suppression syntax (``# repro: noqa(RX)``).
"""

from repro.analysis.config import AnalysisConfig, find_pyproject
from repro.analysis.dataflow import DataflowGraph, link, summarize_module
from repro.analysis.engine import AnalysisReport, SummaryCache, run_analysis
from repro.analysis.rules import RULE_SUMMARIES, Violation

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "DataflowGraph",
    "RULE_SUMMARIES",
    "SummaryCache",
    "Violation",
    "find_pyproject",
    "link",
    "run_analysis",
    "summarize_module",
]
