"""The repo-specific lint rules (R1–R5) over Python ASTs.

Each rule encodes an invariant the CoSKQ reproduction's correctness
story depends on; ``docs/STATIC_ANALYSIS.md`` documents the rationale
and the suppression mechanism (``# repro: noqa(RX)``).  The rules:

- **R1** — every concrete ``CoSKQAlgorithm`` subclass declares ``name``
  and ``exact`` and is registered in the algorithm registry;
- **R2** — no direct ``random``/``time``/``datetime`` calls outside the
  sanctioned modules (determinism of experiments);
- **R3** — no ``==``/``!=`` between float-typed distance/cost
  expressions; use :mod:`repro.utils.floatcmp`;
- **R4** — no mutable default arguments, no bare ``except:``, every
  public module declares ``__all__``;
- **R5** — every ``solve()`` override resets its work counters first;
- **R6** — no bare ``RuntimeError`` raised in solver code
  (``repro/algorithms/``, ``repro/network/``): budget/search aborts must
  use the typed taxonomy in :mod:`repro.errors`
  (``BudgetExceededError`` etc.) so the resilience runtime can catch
  them and degrade instead of dying;
- **R7** — solver code never assigns through shared search state: no
  writes reaching through a ``context``/``index``/``inverted`` owner
  (``self.context.index = ...``, ``algo.index._cache[k] = v``).  The
  cross-query result cache and the fork-inherited worker runtimes are
  only sound because solvers treat the index as read-only; this rule
  pins that assumption;
- **R8** — solver hot-loop code (``repro/algorithms/``, ``repro/cost/``)
  does not inline ``hypot``/``sqrt`` distance math: distances route
  through :mod:`repro.geometry` or :mod:`repro.kernels`, keeping one
  auditably exact distance definition (all-constant calls such as the
  ``sqrt(3)`` ratio literals are exempt);
- **R9** — index/solver hot code (``repro/index/``,
  ``repro/algorithms/``) does not inline keyword-set algebra
  (``isdisjoint``/``issubset`` calls, ``&`` or ordering comparisons on
  ``*keyword*`` operands): keyword predicates route through
  :mod:`repro.index.signatures`, so the bitmask representation has a
  single home.

Rules are pure functions from parsed module/project structure to
:class:`Violation` streams; the engine (see :mod:`repro.analysis.engine`)
handles file walking, suppression and reporting.  The interprocedural
rules R10-R11 (call-graph purity, checkpoint reachability) live in
:mod:`repro.analysis.dataflow`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.config import AnalysisConfig

__all__ = [
    "Violation",
    "ModuleInfo",
    "ClassInfo",
    "Project",
    "RULE_SUMMARIES",
    "parse_noqa",
    "check_r1",
    "check_r2",
    "check_r3",
    "check_r4",
    "check_r5",
    "check_r6",
    "check_r7",
    "check_r8",
    "check_r9",
]

#: One-line summaries, used by ``--list-rules`` and the docs test.
RULE_SUMMARIES: Dict[str, str] = {
    "R1": "CoSKQAlgorithm subclasses declare name/exact and are registered",
    "R2": "no direct random/time/datetime calls outside rng.py and bench/",
    "R3": "no float ==/!= in distance/cost code; use repro.utils.floatcmp",
    "R4": "no mutable defaults, no bare except, public modules need __all__",
    "R5": "every solve() override calls self._reset_counters() first",
    "R6": "no bare RuntimeError in solver code; raise the typed taxonomy",
    "R7": "solver code never mutates shared context/index state",
    "R8": "no inline hypot/sqrt distance math in solver code; use geometry/kernels",
    "R9": "no inline keyword-set algebra in index/solver code; use index.signatures",
    "R10": "nothing reachable from solve() mutates shared search state (call graph)",
    "R11": "every unbounded solver loop checkpoints on every iteration path",
    "NOQA": "suppression comment suppresses nothing (reported with --strict)",
    "PARSE": "file failed to parse (syntax error or unreadable); exit code 3",
}


@dataclass(frozen=True)
class Violation:
    """One rule breach at a specific source location.

    The interprocedural rules (R10-R11) also carry the enclosing
    ``function`` (``relpath:Qual.name``) and, where a finding is only
    explicable through the call graph, the ``chain`` of functions from
    the analysis root to the offending site.
    """

    rule: str
    path: str
    line: int
    message: str
    function: Optional[str] = None
    chain: Tuple[str, ...] = ()

    def format(self) -> str:
        base = "%s:%d: %s %s" % (self.path, self.line, self.rule, self.message)
        if self.chain:
            base += " [call chain: %s]" % " -> ".join(self.chain)
        return base


#: Matches the suppression comment, bare or with a rule list (R3 / R3,R5).
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\s*\(([^)]*)\))?")


def parse_noqa(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Per-line suppressions: line → rule-id set (None = all rules).

    Tokenizes so that noqa-looking text inside string literals and
    docstrings is ignored — only genuine comments count.
    """
    out: Dict[int, Optional[FrozenSet[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenizeError, SyntaxError, IndentationError):
        # Unparseable source is reported as a PARSE violation elsewhere;
        # fall back to a plain line scan so suppressions still resolve.
        comments = list(enumerate(source.splitlines(), start=1))
    for lineno, text in comments:
        match = _NOQA_RE.search(text)
        if not match:
            continue
        rules = match.group(1)
        if rules is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                r.strip().upper() for r in rules.split(",") if r.strip()
            )
    return out


@dataclass
class ClassInfo:
    """What the rules need to know about one class definition."""

    name: str
    relpath: str
    lineno: int
    bases: Tuple[str, ...]
    attrs: FrozenSet[str]
    methods: Dict[str, ast.FunctionDef]
    is_abstract: bool


@dataclass
class ModuleInfo:
    """One parsed source file plus its suppression map."""

    path: str
    relpath: str
    tree: ast.Module
    noqa: Dict[int, Optional[FrozenSet[str]]] = field(default_factory=dict)
    #: sha256 of the source text — the dataflow pass keys its summary
    #: cache on it so unchanged modules skip re-extraction.
    digest: str = ""

    def classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node


@dataclass
class Project:
    """Cross-module structure: the class graph and the registry."""

    modules: List[ModuleInfo]
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    registered: Set[str] = field(default_factory=set)
    registry_found: bool = False

    def ancestors(self, class_name: str) -> Set[str]:
        """All (transitive) base-class names, resolved where possible."""
        seen: Set[str] = set()
        frontier = list(self.classes[class_name].bases) if class_name in self.classes else []
        while frontier:
            base = frontier.pop()
            if base in seen:
                continue
            seen.add(base)
            if base in self.classes:
                frontier.extend(self.classes[base].bases)
        return seen

    def coskq_family(self) -> List[ClassInfo]:
        """Every class that (transitively) subclasses ``CoSKQAlgorithm``."""
        return [
            info
            for name, info in sorted(self.classes.items())
            if name != "CoSKQAlgorithm" and "CoSKQAlgorithm" in self.ancestors(name)
        ]


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    """The last dotted component of a Name/Attribute, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name of a (possibly dotted) expression, else None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# -- R1: algorithm-family contract ---------------------------------------------


def check_r1(project: Project, config: AnalysisConfig) -> Iterator[Violation]:
    """Concrete CoSKQAlgorithm subclasses declare name/exact + register."""
    registered_closure: Set[str] = set(project.registered)
    for reg in project.registered:
        registered_closure |= project.ancestors(reg)
    for cls in project.coskq_family():
        if not config.applies_to("R1", cls.relpath):
            continue
        if cls.name.startswith("_") or cls.is_abstract:
            continue
        chain = [cls] + [
            project.classes[a]
            for a in project.ancestors(cls.name)
            if a in project.classes and a != "CoSKQAlgorithm"
        ]
        for attr in ("name", "exact"):
            if not any(attr in link.attrs for link in chain):
                yield Violation(
                    "R1",
                    cls.relpath,
                    cls.lineno,
                    "algorithm class %r does not define the %r class attribute"
                    % (cls.name, attr),
                )
        if cls.name not in registered_closure:
            yield Violation(
                "R1",
                cls.relpath,
                cls.lineno,
                "algorithm class %r is not registered in the algorithm registry"
                % (cls.name,),
            )


# -- R2: determinism -----------------------------------------------------------

_NONDETERMINISTIC_MODULES = ("random", "time", "datetime")


def check_r2(module: ModuleInfo, config: AnalysisConfig) -> Iterator[Violation]:
    """No direct randomness/clock calls outside the sanctioned modules.

    A bare ``import random`` used only for type annotations is fine; any
    *call* through the module (``random.random()``, ``random.Random()``,
    ``time.time()``, ``datetime.datetime.now()``) and any
    ``from random import ...`` is flagged.
    """
    if not config.applies_to("R2", module.relpath):
        return
    aliases: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _NONDETERMINISTIC_MODULES:
                    aliases.add(alias.asname or root)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                root = node.module.split(".")[0]
                if root in _NONDETERMINISTIC_MODULES:
                    yield Violation(
                        "R2",
                        module.relpath,
                        node.lineno,
                        "from-import of nondeterministic module %r; route through "
                        "repro.utils.rng" % (root,),
                    )
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            root = _root_name(node.func)
            if root in aliases:
                yield Violation(
                    "R2",
                    module.relpath,
                    node.lineno,
                    "direct call into the %r module; route through "
                    "repro.utils.rng (seeds) or keep timing in bench/" % (root,),
                )


# -- R3: float equality --------------------------------------------------------

_FLOATY_EXACT = {
    "d",
    "dx",
    "dy",
    "df",
    "d_f",
    "r",
    "r1",
    "r2",
    "alpha",
    "eps",
    "epsilon",
    "lo",
    "hi",
    "budget",
}
_FLOATY_SUBSTRINGS = ("dist", "cost", "radius", "diam", "bound")


def _is_floaty(node: ast.AST) -> bool:
    """Heuristic: does this expression smell like a distance/cost float?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, (ast.Name, ast.Attribute)):
        term = _terminal_identifier(node)
        if term is None:
            return False
        lowered = term.lower()
        return lowered in _FLOATY_EXACT or any(
            sub in lowered for sub in _FLOATY_SUBSTRINGS
        )
    if isinstance(node, ast.BinOp):
        return _is_floaty(node.left) or _is_floaty(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_floaty(node.operand)
    if isinstance(node, ast.Call):
        term = _terminal_identifier(node.func)
        if term is None:
            return False
        lowered = term.lower()
        return any(sub in lowered for sub in _FLOATY_SUBSTRINGS)
    return False


def check_r3(module: ModuleInfo, config: AnalysisConfig) -> Iterator[Violation]:
    """No exact equality between float-typed distance/cost expressions."""
    if not config.applies_to("R3", module.relpath):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(_is_floaty(operand) for operand in operands):
            yield Violation(
                "R3",
                module.relpath,
                node.lineno,
                "float equality on a distance/cost expression; use "
                "repro.utils.floatcmp (float_eq/is_zero)",
            )


# -- R4: API hygiene -----------------------------------------------------------

_MUTABLE_FACTORIES = {"list", "dict", "set"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_FACTORIES
        and not node.args
        and not node.keywords
    )


def check_r4(module: ModuleInfo, config: AnalysisConfig) -> Iterator[Violation]:
    """Mutable defaults, bare excepts, and missing ``__all__``."""
    if not config.applies_to("R4", module.relpath):
        return
    basename = module.relpath.rsplit("/", 1)[-1]
    public = basename == "__init__.py" or not basename.startswith("_")
    if public:
        has_all = any(
            (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets
                )
            )
            or (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__all__"
            )
            or (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__all__"
            )
            for stmt in module.tree.body
        )
        if not has_all:
            yield Violation(
                "R4",
                module.relpath,
                1,
                "public module does not declare __all__",
            )
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield Violation(
                        "R4",
                        module.relpath,
                        default.lineno,
                        "mutable default argument; default to None and build "
                        "inside the function",
                    )
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Violation(
                "R4",
                module.relpath,
                node.lineno,
                "bare except:; catch a concrete exception type",
            )


# -- R5: counter reset ---------------------------------------------------------


def _is_abstract_method(fn: ast.FunctionDef) -> bool:
    for decorator in fn.decorator_list:
        term = _terminal_identifier(decorator)
        if term in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _real_body(fn: ast.FunctionDef) -> List[ast.stmt]:
    """The body minus a leading docstring."""
    body = list(fn.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return body


def _calls_reset_counters(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr == "_reset_counters"
        and isinstance(stmt.value.func.value, ast.Name)
        and stmt.value.func.value.id == "self"
    )


def check_r5(
    module: ModuleInfo, config: AnalysisConfig, project: Project
) -> Iterator[Violation]:
    """``solve()`` overrides reset work counters before doing work.

    Applies to classes in the counter family: those whose ancestry
    (including unresolved base names) reaches ``CoSKQAlgorithm`` or any
    class defining ``_reset_counters``.  The reset must be the first
    non-docstring statement so partial work can never leak between
    queries; delegating implementations suppress with
    ``# repro: noqa(R5)``.
    """
    if not config.applies_to("R5", module.relpath):
        return
    for classdef in module.classes():
        solve = next(
            (
                stmt
                for stmt in classdef.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "solve"
            ),
            None,
        )
        if solve is None:
            continue
        in_family = False
        lineage = {classdef.name} | project.ancestors(classdef.name)
        for member in lineage:
            if member == "CoSKQAlgorithm":
                in_family = True
                break
            member_info = project.classes.get(member)
            if member_info is not None and "_reset_counters" in member_info.methods:
                in_family = True
                break
        if not in_family:
            continue
        if _is_abstract_method(solve):
            continue
        body = _real_body(solve)
        if not body or all(
            isinstance(stmt, (ast.Pass, ast.Raise))
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in body
        ):
            continue
        if not _calls_reset_counters(body[0]):
            yield Violation(
                "R5",
                module.relpath,
                solve.lineno,
                "solve() in %r must call self._reset_counters() as its first "
                "statement" % (classdef.name,),
            )


# -- R6: typed aborts in solver code ------------------------------------------


def check_r6(module: ModuleInfo, config: AnalysisConfig) -> Iterator[Violation]:
    """No bare ``RuntimeError`` raised in solver code.

    A ``raise RuntimeError`` from a search loop escapes every typed
    handler in the resilience runtime (:mod:`repro.exec`), turning a
    budget blow-up into a dead batch instead of a degraded answer.
    Scoped by default to ``repro/algorithms/`` and ``repro/network/``;
    aborts there must use the :class:`repro.errors.CoSKQError` taxonomy
    (``BudgetExceededError``, ``DeadlineExceededError``, ...).

    Both ``raise RuntimeError(...)`` and a bare ``raise RuntimeError``
    are flagged; re-raises of a caught name and other exception types
    are not this rule's business.
    """
    if not config.applies_to("R6", module.relpath):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        if _terminal_identifier(target) == "RuntimeError":
            yield Violation(
                "R6",
                module.relpath,
                node.lineno,
                "bare RuntimeError raised in solver code; raise a typed "
                "CoSKQError (e.g. repro.errors.BudgetExceededError) so the "
                "resilience layer can degrade instead of dying",
            )


# -- R8: one distance definition -----------------------------------------------

#: Call targets that compute Euclidean distances when fed live operands.
_R8_DISTANCE_CALLS = frozenset({"hypot", "sqrt"})


def check_r8(module: ModuleInfo, config: AnalysisConfig) -> Iterator[Violation]:
    """No inline ``hypot``/``sqrt`` distance math in solver hot loops.

    The bit-identity story of the flat-array kernels
    (:mod:`repro.kernels`) rests on there being exactly one distance
    definition: ``math.hypot`` as wrapped by :mod:`repro.geometry` and
    :mod:`repro.kernels`.  A solver that inlines its own
    ``math.sqrt(dx*dx + dy*dy)`` silently forks that definition — it
    rounds differently from ``hypot`` and bypasses the kernels' guarded
    fast paths, so the differential matrix stops being able to vouch for
    it.  Scoped by default to ``repro/algorithms/`` and ``repro/cost/``.

    Calls whose arguments are all literal constants (``math.sqrt(3.0)``
    — the paper's approximation-ratio constants) are not distance math
    and are exempt.
    """
    if not config.applies_to("R8", module.relpath):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        term = _terminal_identifier(node.func)
        if term not in _R8_DISTANCE_CALLS:
            continue
        if node.args and all(isinstance(a, ast.Constant) for a in node.args):
            continue
        yield Violation(
            "R8",
            module.relpath,
            node.lineno,
            "inline %s() distance math in solver code; route through "
            "repro.geometry or repro.kernels so there is a single exact "
            "distance definition" % (term,),
        )


# -- R9: one keyword-signature definition ---------------------------------------

#: Method calls that are always keyword-set algebra in the scoped dirs.
_R9_SET_CALLS = frozenset({"isdisjoint", "issubset", "issuperset"})

#: Substring marking an operand as a keyword set (``obj.keywords``,
#: ``query_keywords``, ``keyword_ids`` ...).  Mask operands are named
#: ``*_mask``/``kw_mask`` and deliberately do not match.
_R9_OPERAND_MARKER = "keyword"


def _r9_keyword_operand(node: ast.AST) -> bool:
    term = _terminal_identifier(node)
    return term is not None and _R9_OPERAND_MARKER in term.lower()


def check_r9(module: ModuleInfo, config: AnalysisConfig) -> Iterator[Violation]:
    """No inline keyword-set algebra in index/solver hot code.

    The signature layer (:mod:`repro.index.signatures`) is the single
    home of the keyword-set representation: ``isdisjoint`` is
    ``mask & mask == 0``, ``issubset`` is ``mask & ~mask == 0``, traces
    are ``&`` on masks.  An inline frozenset ``isdisjoint``/``issubset``
    call, a ``&`` intersection or a subset-ordering comparison on a
    ``*keyword*`` operand in the scoped directories forks that
    representation and silently bypasses the bitmask paths.  Scoped by
    default to ``repro/index/`` and ``repro/algorithms/`` with the
    signature module itself excluded.
    """
    if not config.applies_to("R9", module.relpath):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            term = _terminal_identifier(node.func)
            if isinstance(node.func, ast.Attribute) and term in _R9_SET_CALLS:
                yield Violation(
                    "R9",
                    module.relpath,
                    node.lineno,
                    "inline %s() keyword-set algebra; route through "
                    "repro.index.signatures (mask predicates or the set-level "
                    "companions)" % (term,),
                )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            if _r9_keyword_operand(node.left) or _r9_keyword_operand(node.right):
                yield Violation(
                    "R9",
                    module.relpath,
                    node.lineno,
                    "inline '&' on a keyword set; route through "
                    "repro.index.signatures (mask_of/shared_keywords)",
                )
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitAnd):
            if _r9_keyword_operand(node.target) or _r9_keyword_operand(node.value):
                yield Violation(
                    "R9",
                    module.relpath,
                    node.lineno,
                    "inline '&=' on a keyword set; route through "
                    "repro.index.signatures (mask_of/shared_keywords)",
                )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                    continue
                if _r9_keyword_operand(left) or _r9_keyword_operand(right):
                    yield Violation(
                        "R9",
                        module.relpath,
                        node.lineno,
                        "subset-ordering comparison on a keyword set; route "
                        "through repro.index.signatures (covers_all)",
                    )
                    break


# -- R7: shared search state is read-only --------------------------------------

#: Names that denote shared search state when they appear as an *owner*
#: in an assignment target (``self.context.index = ...``).  A bare
#: ``self.context = ...`` (construction) has no such owner and is fine.
_R7_SHARED_OWNERS = frozenset({"context", "index", "inverted"})

#: Method calls that mutate their receiver in place.  A solver calling
#: ``self.context.index._cache.clear()`` corrupts shared state exactly
#: like ``self.context.index._cache = {}`` — the assignment form was
#: caught, the call form was R7's blind spot (now shared with the
#: interprocedural R10, so the cheap rule and the dataflow rule agree
#: on direct cases).
_R7_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "clear",
        "pop",
        "popitem",
        "remove",
        "discard",
        "insert",
        "setdefault",
        "sort",
        "reverse",
        "__setitem__",
        "__delitem__",
    }
)


def _owner_components(node: ast.AST) -> List[str]:
    """Dotted/subscripted components of an assignment target's owner."""
    parts: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts


def check_r7(module: ModuleInfo, config: AnalysisConfig) -> Iterator[Violation]:
    """Solver code never assigns through shared context/index state.

    The cross-query result cache and the fork-inherited worker runtimes
    are sound only while solvers treat the :class:`SearchContext` and
    its indexes as read-only.  This rule flags assignments, augmented
    assignments, annotated assignments and deletes whose target reaches
    *through* a ``context``/``index``/``inverted`` component
    (``self.context.dataset = ...``, ``self.index._cache[k] = v``,
    ``del algo.context.index``).  Plain construction-time attributes
    (``self.context = context``) have no shared owner and are untouched.
    Scoped by default to ``repro/algorithms/`` and ``repro/network/``;
    legitimate wiring elsewhere (e.g. the parallel worker runtime) is
    out of scope by configuration, not suppression.
    """
    if not config.applies_to("R7", module.relpath):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.Call):
            # The mutating-call form: ``self.context.index._cache.clear()``.
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _R7_MUTATOR_METHODS
            ):
                owners = _owner_components(func.value)
                touched = sorted(set(owners) & _R7_SHARED_OWNERS)
                if touched:
                    yield Violation(
                        "R7",
                        module.relpath,
                        node.lineno,
                        "solver code calls mutating method %s() through shared "
                        "search state (%s); SearchContext and its indexes are "
                        "read-only — the memoizing caches depend on it"
                        % (func.attr, ", ".join(repr(t) for t in touched)),
                    )
            continue
        else:
            continue
        for target in targets:
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            owners = _owner_components(target.value)
            touched = sorted(set(owners) & _R7_SHARED_OWNERS)
            if touched:
                yield Violation(
                    "R7",
                    module.relpath,
                    node.lineno,
                    "solver code mutates shared search state (through %s); "
                    "SearchContext and its indexes are read-only — the "
                    "memoizing caches depend on it" % ", ".join(repr(t) for t in touched),
                )
