"""Orchestration for the static-analysis pass.

The engine walks the target paths, parses every ``.py`` file with the
stdlib :mod:`ast` module, builds the cross-module class graph rules R1
and R5 need, applies all enabled rules, and folds ``# repro: noqa``
suppressions into the final report.  Everything is stdlib-only by
design: the repo is developed offline with ``dependencies = []``.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.dataflow import (
    SUMMARY_VERSION,
    ModuleSummary,
    check_dataflow_rules,
    link,
    summarize_module,
)
from repro.analysis.rules import (
    ClassInfo,
    ModuleInfo,
    Project,
    Violation,
    check_r1,
    check_r2,
    check_r3,
    check_r4,
    check_r5,
    check_r6,
    check_r7,
    check_r8,
    check_r9,
    parse_noqa,
)

__all__ = [
    "AnalysisReport",
    "SummaryCache",
    "run_analysis",
    "compute_relpath",
    "load_module",
]


@dataclass
class AnalysisReport:
    """Outcome of one full analysis pass."""

    violations: List[Violation] = field(default_factory=list)
    unused_noqa: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Dataflow summary-cache traffic (0/0 when the pass is skipped).
    cache_hits: int = 0
    cache_misses: int = 0

    def ok(self, strict: bool = False) -> bool:
        if self.violations:
            return False
        return not (strict and self.unused_noqa)

    def effective_violations(self, strict: bool = False) -> List[Violation]:
        out = list(self.violations)
        if strict:
            out.extend(self.unused_noqa)
        return sorted(out, key=lambda v: (v.path, v.line, v.rule, v.message))


def compute_relpath(path: Path) -> str:
    """Package-relative posix path (``repro/...`` when under the package).

    Files outside the ``repro`` package (e.g. test fixtures) fall back to
    a cwd-relative path, or the bare filename as a last resort.
    """
    resolved = path.resolve()
    parts = resolved.parts
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.name


def load_module(path: Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises on syntax error)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleInfo(
        path=str(path),
        relpath=compute_relpath(path),
        tree=tree,
        noqa=parse_noqa(source),
        digest=hashlib.sha256(source.encode("utf-8")).hexdigest(),
    )


class SummaryCache:
    """Content-hash keyed store of per-module dataflow summaries.

    A single JSON file maps ``relpath -> {"key": sha256+version,
    "summary": ModuleSummary.to_dict()}``.  A module whose source hash
    (and :data:`SUMMARY_VERSION`) matches skips re-extraction entirely,
    which is what keeps the interprocedural pass inside the ``make
    lint`` latency budget.  Corrupt or stale files degrade to a cold
    cache, never to an error.
    """

    def __init__(self, path: Optional[Path]) -> None:
        self.path = path
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, dict] = {}
        self._dirty = False
        if path is not None and path.is_file():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                if isinstance(data, dict):
                    self._entries = {
                        k: v for k, v in data.items() if isinstance(v, dict)
                    }
            except (OSError, ValueError):
                self._entries = {}

    @staticmethod
    def _key(module: ModuleInfo) -> str:
        return "%s:v%d" % (module.digest, SUMMARY_VERSION)

    def summarize(self, module: ModuleInfo) -> ModuleSummary:
        """Cached :func:`summarize_module`, keyed by content hash."""
        entry = self._entries.get(module.relpath)
        if entry is not None and entry.get("key") == self._key(module):
            try:
                summary = ModuleSummary.from_dict(entry["summary"])
                self.hits += 1
                return summary
            except (KeyError, TypeError, ValueError, IndexError):
                pass  # malformed entry: fall through to a fresh extraction
        self.misses += 1
        summary = summarize_module(module)
        self._entries[module.relpath] = {
            "key": self._key(module),
            "summary": summary.to_dict(),
        }
        self._dirty = True
        return summary

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        try:
            self.path.write_text(
                json.dumps(self._entries, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            pass  # a read-only checkout just runs cold every time


def _collect_files(paths: Iterable[Path]) -> List[Path]:
    out: List[Path] = []
    seen: Set[Path] = set()
    for target in paths:
        target = Path(target)
        candidates = (
            sorted(target.rglob("*.py")) if target.is_dir() else [target]
        )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def _class_info(module: ModuleInfo, classdef: ast.ClassDef) -> ClassInfo:
    bases = []
    for base in classdef.bases:
        if isinstance(base, ast.Name):
            bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            bases.append(base.attr)
    attrs: Set[str] = set()
    methods: Dict[str, ast.FunctionDef] = {}
    is_abstract = any(b in ("ABC", "ABCMeta", "Protocol") for b in bases)
    for stmt in classdef.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                attrs.add(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(stmt, ast.FunctionDef):
                methods[stmt.name] = stmt
            for decorator in stmt.decorator_list:
                name = (
                    decorator.attr
                    if isinstance(decorator, ast.Attribute)
                    else decorator.id
                    if isinstance(decorator, ast.Name)
                    else None
                )
                if name in ("abstractmethod", "abstractproperty"):
                    is_abstract = True
    return ClassInfo(
        name=classdef.name,
        relpath=module.relpath,
        lineno=classdef.lineno,
        bases=tuple(bases),
        attrs=frozenset(attrs),
        methods=methods,
        is_abstract=is_abstract,
    )


def _registered_names(registry: ModuleInfo) -> Set[str]:
    """Class names referenced by the registry's factory table.

    Prefers the value expression of the ``_FACTORIES`` assignment; falls
    back to every imported name when the table is not found (so a
    refactor of the registry degrades to a laxer check, not a broken one).
    """
    for stmt in registry.tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_FACTORIES" for t in stmt.targets
        ):
            return {
                node.id
                for node in ast.walk(stmt.value)
                if isinstance(node, ast.Name)
            }
    imported: Set[str] = set()
    for stmt in registry.tree.body:
        if isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                imported.add(alias.asname or alias.name)
    return imported


def _build_project(modules: List[ModuleInfo], config: AnalysisConfig) -> Project:
    project = Project(modules=modules)
    for module in modules:
        for classdef in module.classes():
            info = _class_info(module, classdef)
            # First definition wins on (unlikely) cross-module collisions.
            project.classes.setdefault(info.name, info)
    registry = next(
        (m for m in modules if m.relpath == config.registry), None
    )
    if registry is None:
        registry = _locate_registry_on_disk(modules, config)
    if registry is not None:
        project.registry_found = True
        project.registered = _registered_names(registry)
    return project


def _locate_registry_on_disk(
    modules: List[ModuleInfo], config: AnalysisConfig
) -> Optional[ModuleInfo]:
    """Find the registry next to the linted package when linting a subset.

    Lets ``coskq-lint src/repro/algorithms/nnset.py`` still resolve
    registration instead of flagging every class as unregistered.
    """
    for module in modules:
        abspath = Path(module.path).resolve().as_posix()
        if not abspath.endswith("/" + module.relpath):
            continue
        src_root = Path(abspath[: -len(module.relpath) - 1])
        candidate = src_root / config.registry
        if candidate.is_file():
            try:
                return load_module(candidate)
            except (OSError, SyntaxError):
                return None
    return None


def _suppressed(module: ModuleInfo, violation: Violation) -> bool:
    if violation.line not in module.noqa:
        return False
    rules = module.noqa[violation.line]
    return rules is None or violation.rule in rules


def run_analysis(
    paths: Iterable[Path], config: Optional[AnalysisConfig] = None
) -> AnalysisReport:
    """Run every enabled rule over ``paths`` and fold in suppressions."""
    config = config if config is not None else AnalysisConfig()
    report = AnalysisReport()
    modules: List[ModuleInfo] = []
    for path in _collect_files(paths):
        try:
            modules.append(load_module(path))
        except SyntaxError as err:
            report.violations.append(
                Violation(
                    "PARSE",
                    compute_relpath(path),
                    err.lineno or 1,
                    "syntax error: %s" % (err.msg,),
                )
            )
        except ValueError as err:
            # ast.parse raises bare ValueError on e.g. null bytes.
            report.violations.append(
                Violation(
                    "PARSE", compute_relpath(path), 1, "unparseable: %s" % err
                )
            )
        except OSError as err:
            report.violations.append(
                Violation("PARSE", compute_relpath(path), 1, "unreadable: %s" % err)
            )
    report.files_checked = len(modules)
    project = _build_project(modules, config)

    raw: List[Tuple[ModuleInfo, Violation]] = []
    by_relpath = {module.relpath: module for module in modules}
    if config.rule_enabled("R1"):
        for violation in check_r1(project, config):
            module = by_relpath.get(violation.path)
            if module is not None:
                raw.append((module, violation))
    for module in modules:
        for violation in check_r2(module, config):
            raw.append((module, violation))
        for violation in check_r3(module, config):
            raw.append((module, violation))
        for violation in check_r4(module, config):
            raw.append((module, violation))
        for violation in check_r5(module, config, project):
            raw.append((module, violation))
        for violation in check_r6(module, config):
            raw.append((module, violation))
        for violation in check_r7(module, config):
            raw.append((module, violation))
        for violation in check_r8(module, config):
            raw.append((module, violation))
        for violation in check_r9(module, config):
            raw.append((module, violation))

    if config.dataflow and any(
        config.rule_enabled(r) for r in ("R10", "R11")
    ):
        cache = SummaryCache(
            Path(config.cache_path) if config.cache_path else None
        )
        summaries = {
            module.relpath: cache.summarize(module) for module in modules
        }
        cache.save()
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
        graph = link(summaries, project)
        for relpath, violation in check_dataflow_rules(graph, config):
            module = by_relpath.get(relpath)
            if module is not None:
                raw.append((module, violation))

    used_noqa: Set[Tuple[str, int]] = set()
    for module, violation in raw:
        if _suppressed(module, violation):
            report.suppressed += 1
            used_noqa.add((module.relpath, violation.line))
        else:
            report.violations.append(violation)
    for module in modules:
        for line in sorted(module.noqa):
            if (module.relpath, line) not in used_noqa:
                report.unused_noqa.append(
                    Violation(
                        "NOQA",
                        module.relpath,
                        line,
                        "suppression comment matches no violation",
                    )
                )
    report.violations.sort(key=lambda v: (v.path, v.line, v.rule, v.message))
    report.unused_noqa.sort(key=lambda v: (v.path, v.line, v.rule, v.message))
    return report
