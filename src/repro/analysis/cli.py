"""Command-line entry point: ``python -m repro.analysis`` / ``coskq-lint``.

Exit status: 0 when the tree is clean, 1 when any violation survives
suppression (with ``--strict``, unused suppression comments count too),
2 for usage errors such as a missing path, and 3 when a target file
could not be parsed at all — so CI can tell "found problems" apart from
"could not even look".
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.config import AnalysisConfig, find_pyproject
from repro.analysis.engine import run_analysis
from repro.analysis.report import render_json, render_rule_list, render_text

__all__ = ["main", "default_targets"]

#: Dataflow summary cache, written next to the governing pyproject.toml.
CACHE_BASENAME = ".coskq_lint_cache.json"

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


def default_targets() -> List[Path]:
    """``src/repro`` (or ``repro``) under the current directory."""
    for candidate in (Path("src/repro"), Path("repro")):
        if candidate.is_dir():
            return [candidate]
    return [Path(".")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coskq-lint",
        description="Repo-specific static analysis for the CoSKQ reproduction "
        "(syntactic rules R1-R9 plus interprocedural dataflow rules "
        "R10-R11; see docs/STATIC_ANALYSIS.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on suppression comments that suppress nothing",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report (same as --format json)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default=None,
        help="report format (default: text)",
    )
    parser.add_argument(
        "--no-dataflow",
        action="store_true",
        help="skip the interprocedural pass (rules R10-R11); "
        "syntactic rules only",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the dataflow summary cache",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="explicit pyproject.toml to read [tool.repro.analysis] from",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_list())
        return 0
    targets = list(args.paths) or default_targets()
    missing = [t for t in targets if not t.exists()]
    if missing:
        print(
            "coskq-lint: no such path: %s" % ", ".join(str(m) for m in missing),
            file=sys.stderr,
        )
        return EXIT_USAGE
    pyproject = args.config if args.config is not None else find_pyproject(targets[0])
    config = AnalysisConfig.load(pyproject)
    overrides = {}
    if args.no_dataflow:
        overrides["dataflow"] = False
    # The summary cache lives beside the pyproject.toml the config came
    # from; a loose file outside any project is linted uncached.
    caching = config.dataflow and not args.no_dataflow and not args.no_cache
    if pyproject is not None and caching:
        overrides["cache_path"] = str(pyproject.parent / CACHE_BASENAME)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    report = run_analysis(targets, config)
    use_json = args.json or args.format == "json"
    rendered = (
        render_json(report, strict=args.strict)
        if use_json
        else render_text(report, strict=args.strict)
    )
    print(rendered)
    if any(v.rule == "PARSE" for v in report.violations):
        return EXIT_PARSE
    return EXIT_CLEAN if report.ok(strict=args.strict) else EXIT_VIOLATIONS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
