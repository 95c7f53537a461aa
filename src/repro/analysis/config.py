"""Configuration for the repro static-analysis pass.

Defaults are baked in so ``python -m repro.analysis`` works on a bare
checkout; a ``[tool.repro.analysis]`` table in ``pyproject.toml``
overrides them per key.  The recognized settings:

- ``disable``     — list of rule ids to turn off entirely;
- ``registry``    — repo-relative path of the algorithm registry module
  rule R1 cross-checks;
- ``include.RX``  — restrict rule ``RX`` to paths matching these
  prefixes/suffixes (directories end with ``/``);
- ``exclude.RX``  — exempt matching paths from rule ``RX``.

Path patterns match the package-relative posix path of each file (e.g.
``repro/utils/rng.py``); a pattern ending in ``/`` matches any file
under that directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

try:  # pragma: no cover - tomllib is stdlib on 3.11+, absent on 3.10
    import tomllib
except ImportError:  # pragma: no cover
    tomllib = None  # type: ignore[assignment]

__all__ = ["AnalysisConfig", "find_pyproject", "path_matches"]

#: Default per-rule path restrictions, mirrored in pyproject.toml.
_DEFAULT_INCLUDE: Dict[str, Tuple[str, ...]] = {
    # Float-equality bans apply to the distance/cost layers only.
    "R3": (
        "repro/algorithms/",
        "repro/cost/",
        "repro/geometry/",
        "repro/kernels/",
        "repro/network/",
    ),
    # Typed-abort rule: solver code must raise the CoSKQError taxonomy,
    # never a bare RuntimeError.
    "R6": (
        "repro/algorithms/",
        "repro/network/",
    ),
    # Read-only search state: solvers may not assign through shared
    # context/index owners — the memoizing caches depend on it.
    "R7": (
        "repro/algorithms/",
        "repro/network/",
    ),
    # One distance definition: solver hot loops route distance math
    # through repro.geometry / repro.kernels instead of inlining it.
    "R8": (
        "repro/algorithms/",
        "repro/cost/",
    ),
    # One keyword-signature definition: index/solver hot code routes
    # keyword-set predicates through repro.index.signatures.
    "R9": (
        "repro/index/",
        "repro/algorithms/",
    ),
    # Interprocedural escape analysis: nothing reachable from a solver's
    # solve() may mutate shared search state.  Scoped by the *solver's*
    # module; the sanctioned-writer carve-out is `sanction` below.
    "R10": (
        "repro/algorithms/",
        "repro/network/",
    ),
    # Checkpoint reachability: unbounded solver loops must reach
    # _bump()/_checkpoint() on every iteration path.
    "R11": (
        "repro/algorithms/",
        "repro/network/",
    ),
}

_DEFAULT_EXCLUDE: Dict[str, Tuple[str, ...]] = {
    # Determinism rule: the RNG plumbing, the timing harness, and the
    # exec layer's injectable clock are the sanctioned homes for
    # randomness/clocks.
    "R2": ("repro/utils/rng.py", "repro/bench/", "repro/exec/clock.py"),
    # The signature module itself is the sanctioned home of the algebra.
    "R9": ("repro/index/signatures.py",),
}

_DEFAULT_REGISTRY = "repro/algorithms/registry.py"

#: R10's sanctioned writers: modules that are *allowed* to mutate shared
#: search state even when reachable from a solver — the worker-resident
#: runtimes and result caches of the parallel engine, and the
#: fault-injection wrapper (whose whole point is to instrument index
#: traffic).
_DEFAULT_R10_SANCTIONED: Tuple[str, ...] = (
    "repro/parallel/",
    "repro/exec/chaos.py",
)


def path_matches(relpath: str, pattern: str) -> bool:
    """Whether a package-relative posix path matches a config pattern."""
    pattern = pattern.strip()
    if not pattern:
        return False
    if pattern.endswith("/"):
        return relpath.startswith(pattern) or ("/" + pattern) in ("/" + relpath)
    return relpath == pattern or relpath.endswith("/" + pattern)


def find_pyproject(start: Path) -> Optional[Path]:
    """The nearest ``pyproject.toml`` at or above ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


@dataclass(frozen=True)
class AnalysisConfig:
    """Effective settings for one analysis run."""

    disable: Tuple[str, ...] = ()
    include: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(_DEFAULT_INCLUDE)
    )
    exclude: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(_DEFAULT_EXCLUDE)
    )
    registry: str = _DEFAULT_REGISTRY
    #: Run the interprocedural dataflow pass (R10-R11).  ``coskq-lint
    #: --no-dataflow`` / ``make lint-fast`` turn it off for quick loops.
    dataflow: bool = True
    #: Where to persist per-module dataflow summaries between runs,
    #: keyed by content hash.  ``None`` disables caching (the default
    #: for library callers; the CLI enables it next to pyproject.toml).
    cache_path: Optional[str] = None
    #: Modules allowed to mutate shared search state under R10.
    r10_sanctioned: Tuple[str, ...] = _DEFAULT_R10_SANCTIONED

    @classmethod
    def load(cls, pyproject: Optional[Path]) -> "AnalysisConfig":
        """Config from a pyproject file (defaults when absent/unreadable)."""
        if pyproject is None or tomllib is None:
            return cls()
        try:
            with open(pyproject, "rb") as handle:
                data = tomllib.load(handle)
        except (OSError, ValueError):
            return cls()
        table = data.get("tool", {}).get("repro", {}).get("analysis", {})
        if not isinstance(table, dict):
            return cls()
        include = dict(_DEFAULT_INCLUDE)
        for rule, paths in table.get("include", {}).items():
            include[str(rule)] = tuple(str(p) for p in paths)
        exclude = dict(_DEFAULT_EXCLUDE)
        for rule, paths in table.get("exclude", {}).items():
            exclude[str(rule)] = tuple(str(p) for p in paths)
        return cls(
            disable=tuple(str(r) for r in table.get("disable", ())),
            include=include,
            exclude=exclude,
            registry=str(table.get("registry", _DEFAULT_REGISTRY)),
            dataflow=bool(table.get("dataflow", True)),
            r10_sanctioned=tuple(
                str(p) for p in table.get("sanction", _DEFAULT_R10_SANCTIONED)
            ),
        )

    def rule_enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disable

    def applies_to(self, rule_id: str, relpath: str) -> bool:
        """Whether ``rule_id`` should run on the file at ``relpath``."""
        if not self.rule_enabled(rule_id):
            return False
        only = self.include.get(rule_id)
        if only and not any(path_matches(relpath, p) for p in only):
            return False
        return not any(
            path_matches(relpath, p) for p in self.exclude.get(rule_id, ())
        )
