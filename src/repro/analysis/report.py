"""Rendering for analysis reports: human text and machine JSON.

The JSON shape is stable for CI consumption::

    {
      "ok": true,
      "files_checked": 62,
      "suppressed": 2,
      "cache": {"hits": 60, "misses": 2},
      "violations": [
        {"rule": "R3", "path": "repro/cost/x.py", "line": 10, "message": "..."}
      ]
    }

Interprocedural findings (R10-R11) additionally carry ``"function"``
(the enclosing ``relpath:Qual.name``) and ``"callchain"`` (the list of
functions from the analysis root to the offending site); both keys are
omitted on purely syntactic findings, SARIF-style.
"""

from __future__ import annotations

import json
from typing import List

from repro.analysis.engine import AnalysisReport
from repro.analysis.rules import RULE_SUMMARIES, Violation

__all__ = ["render_text", "render_json", "render_rule_list"]


def _as_dict(violation: Violation) -> dict:
    out = {
        "rule": violation.rule,
        "path": violation.path,
        "line": violation.line,
        "message": violation.message,
    }
    if violation.function is not None:
        out["function"] = violation.function
    if violation.chain:
        out["callchain"] = list(violation.chain)
    return out


def render_text(report: AnalysisReport, strict: bool = False) -> str:
    """The classic linter layout: one ``path:line: RULE message`` per hit."""
    lines: List[str] = [v.format() for v in report.effective_violations(strict)]
    count = len(lines)
    summary = "checked %d file%s: %s" % (
        report.files_checked,
        "" if report.files_checked == 1 else "s",
        "no violations" if count == 0 else "%d violation%s"
        % (count, "" if count == 1 else "s"),
    )
    if report.suppressed:
        summary += " (%d suppressed)" % report.suppressed
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: AnalysisReport, strict: bool = False) -> str:
    payload = {
        "ok": report.ok(strict),
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "cache": {"hits": report.cache_hits, "misses": report.cache_misses},
        "violations": [_as_dict(v) for v in report.effective_violations(strict)],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """One line per rule id for ``--list-rules``."""
    return "\n".join(
        "%-5s %s" % (rule, summary) for rule, summary in sorted(RULE_SUMMARIES.items())
    )
