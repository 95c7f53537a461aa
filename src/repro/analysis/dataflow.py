"""Interprocedural dataflow analysis: call graph, effects, rules R10-R11.

The syntactic rules R1-R9 (:mod:`repro.analysis.rules`) are per-module
and per-statement: a one-line helper function silently defeats them.
This module closes that hole with a project-wide **call graph** (AST
symbol resolution over ``src/repro`` — module functions, methods
resolved through the class hierarchy the engine's :class:`Project`
already tracks, and simple local aliasing) plus a fixed-point
purity/effect lattice.  Two interprocedural rules run on top:

- **R10 (escape-hardened R7)** — any function *transitively reachable*
  from a registered solver's ``solve()`` that writes through a
  ``context``/``index``/``inverted``/``oracle`` owner is flagged,
  including mutating *calls* (``.append``/``.update``/``.clear``/
  ``__setitem__``-style writes) on index-owned containers, writes
  through locals aliased to shared state, and writes through parameters
  that a caller binds to shared state.  The worker-resident runtimes
  and result caches of ``repro/parallel/`` and the fault-injection
  wrapper are the sanctioned writers.
- **R11 (checkpoint reachability)** — every ``while`` loop and every
  unbounded-stream ``for`` loop in solver code must reach a
  ``_bump``/``_checkpoint`` call on every iteration path, directly or
  via a called function, so :class:`repro.exec.policy.ExecutionPolicy`
  deadlines keep their ±1-checkpoint abort-latency guarantee.

Everything is stdlib-only.  Per-module extraction
(:func:`summarize_module`) is purely local and serializes to plain
JSON-able dicts, which is what makes the engine's content-hash cache
(:mod:`repro.analysis.engine`) sound; all cross-module reasoning
(resolution, fixed points, reachability) happens in :func:`link` and
:func:`check_dataflow_rules` from summaries alone.

Precision notes (documented limits, mirrored in
``docs/STATIC_ANALYSIS.md``): property *accesses* are not call edges,
attribute-method calls resolve by class-hierarchy analysis over the
project's own classes (external receivers fall out of the graph), and
the loop analysis treats nested loops as zero-iteration-able.  The
rules err on the conservative side; ``# repro: noqa(RXX)`` records the
cases a human has vouched for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.rules import (
    ModuleInfo,
    Project,
    Violation,
    _owner_components,
    _root_name,
    _terminal_identifier,
)

__all__ = [
    "SUMMARY_VERSION",
    "CallDesc",
    "MutationSite",
    "LoopSummary",
    "FunctionSummary",
    "ModuleSummary",
    "DataflowGraph",
    "summarize_module",
    "link",
    "check_dataflow_rules",
]

#: Bump when the summary shape or extraction semantics change: the
#: engine's content-hash cache keys on it, so stale cached summaries
#: from an older analyzer version can never leak into a run.
#: 2: function summaries no longer carry toggle-branch sites or off-path
#: slices.
SUMMARY_VERSION = 2

#: Owners that denote shared search state (R7's set plus ``oracle``).
_SHARED_OWNERS = frozenset({"context", "index", "inverted", "oracle"})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
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
    }
)

#: Cooperative-cancellation probes (R11's targets): solver-side
#: ``self._bump``/``self._checkpoint`` and the duck-typed budget hooks.
_BUMP_METHODS = frozenset({"_bump", "_checkpoint"})
_BUDGET_METHODS = frozenset({"tick", "checkpoint"})

#: Method names the class-hierarchy-analysis index refuses to resolve.
#: A non-``self`` attribute call like ``counters.get(...)`` or
#: ``out.extend(...)`` is almost always a builtin container operation;
#: resolving it to *every* project class that happens to define the
#: name (``CacheIndex.get``, ``_State.extend``, every ``__init__``)
#: unions unrelated effect summaries into the caller and drowns the
#: interprocedural rules in false positives.  Receiver-typed calls
#: (``self.x()`` through the class hierarchy, module-alias calls)
#: resolve precisely and are unaffected.
_CHA_OPAQUE = _MUTATOR_METHODS | frozenset(
    {
        "get",
        "keys",
        "values",
        "items",
        "copy",
        "count",
        "index",
        "split",
        "join",
        "strip",
        "format",
        "close",
        "open",
        "read",
        "write",
        "put",
        "isdisjoint",
        "union",
        "intersection",
        "difference",
        "issubset",
        "issuperset",
        "popleft",
        "appendleft",
    }
)

#: ``for`` loops over these producers count as unbounded streams (R11):
#: index walks and network expansions yield in ascending distance until
#: exhausted, which on large datasets is "until the deadline".
_STREAM_SUFFIXES = ("_iter",)
_STREAM_PREFIXES = ("iter_",)
_STREAM_NAMES = frozenset({"count", "expansion_from"})

#: Path-explosion guard for the per-loop analysis.
_MAX_PATHS = 48


# -- serializable summary records ----------------------------------------------


@dataclass
class CallDesc:
    """One call site, unresolved (resolution happens at link time)."""

    kind: str  # "name" | "self" | "attr"
    name: str
    lineno: int
    #: Positional-arg indexes whose expression roots in shared state.
    shared_args: Tuple[int, ...] = ()
    #: ``(arg index, caller param index)`` for args that are parameters.
    param_args: Tuple[Tuple[int, int], ...] = ()
    #: "attr" calls: receiver owner components, leftmost root last.
    recv: Tuple[str, ...] = ()
    recv_shared: bool = False
    #: "attr" calls whose receiver roots in a caller parameter.
    recv_param: Optional[int] = None
    is_bump: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "lineno": self.lineno,
            "shared_args": list(self.shared_args),
            "param_args": [list(p) for p in self.param_args],
            "recv": list(self.recv),
            "recv_shared": self.recv_shared,
            "recv_param": self.recv_param,
            "is_bump": self.is_bump,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CallDesc":
        return cls(
            kind=data["kind"],
            name=data["name"],
            lineno=data["lineno"],
            shared_args=tuple(data["shared_args"]),
            param_args=tuple((a, p) for a, p in data["param_args"]),
            recv=tuple(data["recv"]),
            recv_shared=data["recv_shared"],
            recv_param=data["recv_param"],
            is_bump=data["is_bump"],
        )


@dataclass
class MutationSite:
    """One write whose target chain matters to R10."""

    lineno: int
    kind: str  # "assign" | "call" | "del"
    root: str  # "shared" | "param"
    param: Optional[int]  # set when root == "param"
    detail: str  # human-readable target, e.g. "self.context.index._cache"

    def to_dict(self) -> dict:
        return {
            "lineno": self.lineno,
            "kind": self.kind,
            "root": self.root,
            "param": self.param,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MutationSite":
        return cls(**data)


@dataclass
class LoopSummary:
    """One R11-relevant loop with its locally analyzed iteration paths."""

    lineno: int
    kind: str  # "while" | "for"
    stream: str  # producer name for for-loops, "" for while
    #: Some continuing path neither bumps nor calls anything.
    definite_leak: bool
    #: Paths that only checkpoint if one of their calls transitively
    #: bumps; each entry is the call list of one such path.
    reliant_paths: List[List[CallDesc]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "lineno": self.lineno,
            "kind": self.kind,
            "stream": self.stream,
            "definite_leak": self.definite_leak,
            "reliant_paths": [
                [c.to_dict() for c in path] for path in self.reliant_paths
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoopSummary":
        return cls(
            lineno=data["lineno"],
            kind=data["kind"],
            stream=data["stream"],
            definite_leak=data["definite_leak"],
            reliant_paths=[
                [CallDesc.from_dict(c) for c in path]
                for path in data["reliant_paths"]
            ],
        )


@dataclass
class FunctionSummary:
    """Everything the interprocedural rules need to know about one function."""

    qualname: str  # "func", "Class.method", "outer.inner"
    lineno: int
    cls: Optional[str]
    params: Tuple[str, ...]
    is_static: bool = False
    is_classmethod: bool = False
    calls: List[CallDesc] = field(default_factory=list)
    mutations: List[MutationSite] = field(default_factory=list)
    mutates_self: bool = False
    bumps: bool = False
    loops: List[LoopSummary] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "cls": self.cls,
            "params": list(self.params),
            "is_static": self.is_static,
            "is_classmethod": self.is_classmethod,
            "calls": [c.to_dict() for c in self.calls],
            "mutations": [m.to_dict() for m in self.mutations],
            "mutates_self": self.mutates_self,
            "bumps": self.bumps,
            "loops": [l.to_dict() for l in self.loops],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        return cls(
            qualname=data["qualname"],
            lineno=data["lineno"],
            cls=data["cls"],
            params=tuple(data["params"]),
            is_static=data["is_static"],
            is_classmethod=data["is_classmethod"],
            calls=[CallDesc.from_dict(c) for c in data["calls"]],
            mutations=[MutationSite.from_dict(m) for m in data["mutations"]],
            mutates_self=data["mutates_self"],
            bumps=data["bumps"],
            loops=[LoopSummary.from_dict(l) for l in data["loops"]],
        )


@dataclass
class ModuleSummary:
    """The per-module extraction product (cacheable by content hash)."""

    relpath: str
    functions: List[FunctionSummary] = field(default_factory=list)
    #: Local name -> (dotted module, symbol) for from-imports; symbol is
    #: "" for module aliases (``from repro.kernels import flat as _flat``
    #: binds a module, but we cannot tell — "" marks plain imports).
    imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": SUMMARY_VERSION,
            "relpath": self.relpath,
            "functions": [f.to_dict() for f in self.functions],
            "imports": {k: list(v) for k, v in self.imports.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        return cls(
            relpath=data["relpath"],
            functions=[FunctionSummary.from_dict(f) for f in data["functions"]],
            imports={k: (v[0], v[1]) for k, v in data["imports"].items()},
        )


# -- extraction helpers --------------------------------------------------------


def _stream_producer(iter_expr: ast.AST) -> Optional[str]:
    """The producer name when a for-loop's iterable is an unbounded stream."""
    if not isinstance(iter_expr, ast.Call):
        return None
    term = _terminal_identifier(iter_expr.func)
    if term is None:
        return None
    if (
        term in _STREAM_NAMES
        or any(term.endswith(s) for s in _STREAM_SUFFIXES)
        or any(term.startswith(p) for p in _STREAM_PREFIXES)
    ):
        return term
    return None


def _chain_text(node: ast.AST) -> str:
    """Best-effort dotted rendering of an attribute/subscript chain."""
    parts = _owner_components(node)
    return ".".join(reversed(parts)) if parts else "<expr>"


def _module_imports(tree: ast.Module) -> Dict[str, Tuple[str, str]]:
    out: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (alias.name, "")
    return out


class _FunctionExtractor:
    """Single-function walker: calls, mutations, bumps, loops."""

    def __init__(
        self,
        fn: ast.FunctionDef,
        qualname: str,
        cls_name: Optional[str],
    ):
        self.fn = fn
        decorators = {
            _terminal_identifier(d) for d in fn.decorator_list
        }
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        self.summary = FunctionSummary(
            qualname=qualname,
            lineno=fn.lineno,
            cls=cls_name,
            params=tuple(params),
            is_static="staticmethod" in decorators,
            is_classmethod="classmethod" in decorators,
        )
        self.param_index: Dict[str, int] = {p: i for i, p in enumerate(params)}
        self.self_name: Optional[str] = None
        if cls_name is not None and not self.summary.is_static and params:
            self.self_name = params[0]
        self.tainted: Set[str] = set()
        self.param_alias: Dict[str, int] = dict(self.param_index)
        if self.self_name is not None:
            self.param_alias.pop(self.self_name, None)

    # -- pre-passes ---------------------------------------------------------

    def prepass(self) -> None:
        """Flow-insensitive alias/taint discovery."""
        for _ in range(2):  # two rounds: catches alias-of-alias
            for node in self._walk_stmts(self.fn.body):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if self._expr_shared(node.value):
                        self.tainted.add(target.id)
                    root = _root_name(node.value)
                    if (
                        isinstance(node.value, ast.Name)
                        and root in self.param_alias
                    ):
                        self.param_alias.setdefault(
                            target.id, self.param_alias[root]
                        )

    def _expr_shared(self, node: ast.AST) -> bool:
        """Does this expression reach through shared search state?"""
        if not isinstance(node, (ast.Attribute, ast.Subscript, ast.Name)):
            return False
        parts = _owner_components(node)
        if not parts:
            return False
        root = parts[-1]
        if set(parts) & _SHARED_OWNERS:
            return True
        return root in self.tainted

    # -- generic statement walking (skips nested defs) ----------------------

    def _walk_stmts(self, stmts: Sequence[ast.stmt]) -> Iterator[ast.AST]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield from self._walk_node(stmt)

    def _walk_node(self, node: ast.AST) -> Iterator[ast.AST]:
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield from self._walk_node(child)

    # -- call / mutation classification -------------------------------------

    def _classify_call(self, node: ast.Call) -> Optional[CallDesc]:
        func = node.func
        shared_args = tuple(
            i for i, a in enumerate(node.args) if self._expr_shared(a)
        )
        param_args = tuple(
            (i, self.param_alias[a.id])
            for i, a in enumerate(node.args)
            if isinstance(a, ast.Name) and a.id in self.param_alias
        )
        if isinstance(func, ast.Name):
            return CallDesc(
                kind="name",
                name=func.id,
                lineno=node.lineno,
                shared_args=shared_args,
                param_args=param_args,
            )
        if isinstance(func, ast.Attribute):
            recv = tuple(_owner_components(func.value))
            root = recv[-1] if recv else None
            is_bump = func.attr in _BUMP_METHODS or (
                func.attr in _BUDGET_METHODS and "budget" in recv
            )
            if (
                isinstance(func.value, ast.Name)
                and self.self_name is not None
                and func.value.id == self.self_name
            ):
                return CallDesc(
                    kind="self",
                    name=func.attr,
                    lineno=node.lineno,
                    shared_args=shared_args,
                    param_args=param_args,
                    recv=recv,
                    is_bump=is_bump,
                )
            recv_shared = bool(set(recv) & _SHARED_OWNERS) or (
                root in self.tainted if root else False
            )
            recv_param = (
                self.param_alias.get(root) if root is not None else None
            )
            return CallDesc(
                kind="attr",
                name=func.attr,
                lineno=node.lineno,
                shared_args=shared_args,
                param_args=param_args,
                recv=recv,
                recv_shared=recv_shared,
                recv_param=recv_param,
                is_bump=is_bump,
            )
        return None

    def _mutation_of_target(
        self, target: ast.AST, lineno: int, kind: str
    ) -> None:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        owners = _owner_components(target.value)
        if not owners:
            return
        root = owners[-1]
        detail = _chain_text(target.value)
        if set(owners) & _SHARED_OWNERS or root in self.tainted:
            self.summary.mutations.append(
                MutationSite(lineno, kind, "shared", None, detail)
            )
        elif root in self.param_alias:
            self.summary.mutations.append(
                MutationSite(lineno, kind, "param", self.param_alias[root], detail)
            )
        elif self.self_name is not None and root == self.self_name:
            self.summary.mutates_self = True

    def _mutating_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATOR_METHODS:
            return
        owners = _owner_components(func.value)
        if not owners:
            return
        root = owners[-1]
        detail = "%s.%s()" % (_chain_text(func.value), func.attr)
        if set(owners) & _SHARED_OWNERS or root in self.tainted:
            self.summary.mutations.append(
                MutationSite(node.lineno, "call", "shared", None, detail)
            )
        elif root in self.param_alias:
            self.summary.mutations.append(
                MutationSite(
                    node.lineno, "call", "param", self.param_alias[root], detail
                )
            )
        elif (
            self.self_name is not None
            and root == self.self_name
            and len(owners) > 1
        ):
            self.summary.mutates_self = True

    # -- main extraction -----------------------------------------------------

    def extract(self) -> FunctionSummary:
        self.prepass()
        for node in self._walk_stmts(self.fn.body):
            if isinstance(node, ast.Call):
                desc = self._classify_call(node)
                if desc is not None:
                    self.summary.calls.append(desc)
                    if desc.is_bump:
                        self.summary.bumps = True
                self._mutating_call(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._mutation_of_target(target, node.lineno, "assign")
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._mutation_of_target(node.target, node.lineno, "assign")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._mutation_of_target(target, node.lineno, "del")
            elif isinstance(node, ast.While):
                self._record_loop(node, "while", "")
            elif isinstance(node, ast.For):
                stream = _stream_producer(node.iter)
                if stream is not None:
                    self._record_loop(node, "for", stream)
        return self.summary

    # -- R11 loop-path analysis ----------------------------------------------

    def _record_loop(self, node: ast.AST, kind: str, stream: str) -> None:
        paths = _LoopPaths(self)
        body = node.body  # type: ignore[attr-defined]
        continuing = paths.analyze(body)
        definite_leak = False
        reliant: List[List[CallDesc]] = []
        for bumped, calls in continuing:
            if bumped:
                continue
            if not calls:
                definite_leak = True
            else:
                reliant.append(list(calls))
        self.summary.loops.append(
            LoopSummary(node.lineno, kind, stream, definite_leak, reliant)
        )


class _LoopPaths:
    """Enumerate a loop body's continuing iteration paths.

    A *continuing* path is one that reaches the next iteration — by
    falling off the end of the body or via ``continue``.  Paths that
    ``break``/``return``/``raise`` exit the loop and are dropped.  Each
    path carries (bumped, calls-made): nested loops are treated as
    zero-iteration-able (their bodies guarantee nothing), and any call
    on an un-bumped path is recorded so link() can credit callees that
    transitively checkpoint.
    """

    def __init__(self, extractor: _FunctionExtractor):
        self.ex = extractor

    def analyze(
        self, body: Sequence[ast.stmt]
    ) -> List[Tuple[bool, Tuple[CallDesc, ...]]]:
        falls, continues = self._seq(body, (False, ()))
        return self._cap(falls + continues)

    # A path state is (bumped, calls-tuple).

    def _cap(self, paths: List[Tuple[bool, Tuple[CallDesc, ...]]]):
        if len(paths) <= _MAX_PATHS:
            return paths
        # Conservative merge: bumped only if every path bumped; calls
        # only those common to all paths (by call identity).
        bumped = all(p[0] for p in paths)
        common = set(id(c) for c in paths[0][1])
        keyed = {id(c): c for p in paths for c in p[1]}
        for p in paths[1:]:
            common &= {id(c) for c in p[1]}
        return [(bumped, tuple(keyed[k] for k in common))]

    def _expr_effects(
        self, node: Optional[ast.AST], state: Tuple[bool, Tuple[CallDesc, ...]]
    ) -> Tuple[bool, Tuple[CallDesc, ...]]:
        """Fold the calls of one (leaf) expression/statement into a state."""
        if node is None:
            return state
        bumped, calls = state
        for sub in self.ex._walk_node(node):
            if isinstance(sub, ast.Call):
                desc = self.ex._classify_call(sub)
                if desc is None:
                    continue
                if desc.is_bump:
                    bumped = True
                else:
                    calls = calls + (desc,)
        return (bumped, calls)

    def _seq(self, stmts, state):
        """Returns (falls, continues): path states out of this list."""
        falls: List[Tuple[bool, Tuple[CallDesc, ...]]] = []
        continues: List[Tuple[bool, Tuple[CallDesc, ...]]] = []
        states = [state]
        for stmt in stmts:
            next_states: List[Tuple[bool, Tuple[CallDesc, ...]]] = []
            for current in states:
                f, c = self._stmt(stmt, current)
                next_states.extend(f)
                continues.extend(c)
            states = self._cap(next_states)
            if not states:
                break
        falls.extend(states)
        return self._cap(falls), self._cap(continues)

    def _stmt(self, stmt, state):
        """One statement: returns (fall-through states, continue states)."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [state], []
        if isinstance(stmt, ast.Continue):
            return [], [state]
        if isinstance(stmt, (ast.Break, ast.Return, ast.Raise)):
            # Exits the loop (or the function): not a continuing path.
            # Effects in the value expression do not matter for R11.
            return [], []
        if isinstance(stmt, ast.If):
            test_state = self._expr_effects(stmt.test, state)
            body_f, body_c = self._seq(stmt.body, test_state)
            else_f, else_c = self._seq(stmt.orelse, test_state)
            return self._cap(body_f + else_f), self._cap(body_c + else_c)
        if isinstance(stmt, (ast.For, ast.While)):
            # Nested loop: header expression runs; the body may run zero
            # times, so it guarantees nothing.  ``continue``/``break``
            # inside bind to the nested loop, not this one.
            header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
            after = self._expr_effects(header, state)
            orelse_f, orelse_c = self._seq(stmt.orelse, after)
            return self._cap([after] + orelse_f), orelse_c
        if isinstance(stmt, ast.Try):
            body_f, body_c = self._seq(stmt.body, state)
            outs_f = list(body_f)
            outs_c = list(body_c)
            for handler in stmt.handlers:
                # A handler may run after any prefix of the body: start
                # from the pre-try state (conservative).
                h_f, h_c = self._seq(handler.body, state)
                outs_f.extend(h_f)
                outs_c.extend(h_c)
            if stmt.orelse:
                o_f, o_c = [], []
                for s in body_f:
                    f2, c2 = self._seq(stmt.orelse, s)
                    o_f.extend(f2)
                    o_c.extend(c2)
                outs_f = [s for s in outs_f if s not in body_f] + o_f
                outs_c.extend(o_c)
            if stmt.finalbody:
                fin_f, fin_c = [], []
                for s in outs_f:
                    f2, c2 = self._seq(stmt.finalbody, s)
                    fin_f.extend(f2)
                    fin_c.extend(c2)
                outs_f = fin_f
                outs_c.extend(fin_c)
            return self._cap(outs_f), self._cap(outs_c)
        if isinstance(stmt, ast.With):
            entry = state
            for item in stmt.items:
                entry = self._expr_effects(item.context_expr, entry)
            return self._seq(stmt.body, entry)
        # Leaf statement: fold in its expression effects.
        return [self._expr_effects(stmt, state)], []


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Extract the (cacheable) dataflow summary of one parsed module."""
    summary = ModuleSummary(
        relpath=module.relpath, imports=_module_imports(module.tree)
    )

    def visit_functions(
        body: Sequence[ast.stmt], prefix: str, cls_name: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                visit_functions(stmt.body, stmt.name + ".", stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(stmt, ast.AsyncFunctionDef):
                    continue
                qualname = prefix + stmt.name
                extractor = _FunctionExtractor(stmt, qualname, cls_name)
                summary.functions.append(extractor.extract())
                # Nested defs become their own summaries; calls to their
                # bare name resolve module-locally via the name table.
                visit_functions(stmt.body, qualname + ".", cls_name)

    visit_functions(module.tree.body, "", None)
    return summary


# -- linking and fixed points --------------------------------------------------


def _dotted_to_relpath(dotted: str) -> str:
    return dotted.replace(".", "/") + ".py"


@dataclass
class DataflowGraph:
    """Linked project-wide view: resolution tables + effect closures."""

    summaries: Dict[str, ModuleSummary]  # relpath -> summary
    project: Project
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: relpath -> {local function simple/qual name -> key}
    local_names: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: method name -> [keys] over every project class (CHA).
    methods: Dict[str, List[str]] = field(default_factory=dict)
    #: (class name, method name) -> key
    class_methods: Dict[Tuple[str, str], str] = field(default_factory=dict)
    # Fixed-point results:
    bumps: Set[str] = field(default_factory=set)
    mutates_params: Dict[str, Set[int]] = field(default_factory=dict)
    mutates_self: Set[str] = field(default_factory=set)

    def key(self, relpath: str, qualname: str) -> str:
        return "%s::%s" % (relpath, qualname)

    def relpath_of(self, key: str) -> str:
        return key.split("::", 1)[0]

    def display(self, key: str) -> str:
        relpath, qualname = key.split("::", 1)
        return "%s:%s" % (relpath, qualname)

    # -- resolution ---------------------------------------------------------

    def resolve(self, relpath: str, fn: FunctionSummary, desc: CallDesc) -> List[str]:
        """Candidate function keys for one call site."""
        if desc.kind == "name":
            local = self.local_names.get(relpath, {})
            # Nested functions are registered under their dotted
            # qualname; prefer a sibling nested def, then module scope.
            nested = "%s.%s" % (fn.qualname, desc.name)
            if nested in local:
                return [local[nested]]
            if desc.name in local:
                return [local[desc.name]]
            imports = self.summaries[relpath].imports if relpath in self.summaries else {}
            target = imports.get(desc.name)
            if target is not None:
                module_dotted, symbol = target
                symbol = symbol or desc.name
                target_rel = _dotted_to_relpath(module_dotted)
                target_local = self.local_names.get(target_rel, {})
                if symbol in target_local:
                    return [target_local[symbol]]
                # Imported class used as a constructor.
                init = self.class_methods.get((symbol, "__init__"))
                if init is not None:
                    return [init]
            # A class constructed by its local name.
            init = self.class_methods.get((desc.name, "__init__"))
            if init is not None:
                return [init]
            return []
        if desc.kind == "self":
            if fn.cls is None:
                return []
            lineage = [fn.cls] + sorted(self.project.ancestors(fn.cls))
            for cls_name in lineage:
                key = self.class_methods.get((cls_name, desc.name))
                if key is not None:
                    return [key]
            return []
        # attr call: module alias first, then class-hierarchy analysis.
        root = desc.recv[-1] if desc.recv else None
        if root is not None and len(desc.recv) == 1:
            imports = self.summaries[relpath].imports if relpath in self.summaries else {}
            target = imports.get(root)
            if target is not None and target[1] == "":
                target_rel = _dotted_to_relpath(target[0])
                target_local = self.local_names.get(target_rel, {})
                if desc.name in target_local:
                    return [target_local[desc.name]]
        return list(self.methods.get(desc.name, ()))


def link(summaries: Dict[str, ModuleSummary], project: Project) -> DataflowGraph:
    """Build resolution tables and run the effect fixed points."""
    graph = DataflowGraph(summaries=summaries, project=project)
    for relpath, summary in summaries.items():
        local: Dict[str, str] = {}
        for fn in summary.functions:
            key = graph.key(relpath, fn.qualname)
            graph.functions[key] = fn
            local.setdefault(fn.qualname, key)
            if fn.cls is None:
                local.setdefault(fn.qualname.split(".")[-1], key)
            else:
                method = fn.qualname.split(".")[-1]
                graph.class_methods.setdefault((fn.cls, method), key)
                if method not in _CHA_OPAQUE and not method.startswith("__"):
                    graph.methods.setdefault(method, []).append(key)
            if fn.bumps:
                graph.bumps.add(key)
            if fn.mutates_self:
                graph.mutates_self.add(key)
            direct_params = {
                m.param for m in fn.mutations if m.root == "param" and m.param is not None
            }
            if direct_params:
                graph.mutates_params[key] = set(direct_params)
        graph.local_names[relpath] = local
    for keys in graph.methods.values():
        keys.sort()

    # Fixed point: transitive bumps, param mutation, self mutation, and
    # call-induced shared mutations (shared state escaping via an
    # argument into a param-mutating callee, or via a method call on a
    # shared receiver whose target mutates its own self).
    changed = True
    rounds = 0
    while changed and rounds < 50:
        changed = False
        rounds += 1
        for key, fn in graph.functions.items():
            relpath = graph.relpath_of(key)
            for desc in fn.calls:
                candidates = graph.resolve(relpath, fn, desc)
                # bumps closure
                if key not in graph.bumps and any(
                    c in graph.bumps for c in candidates
                ):
                    graph.bumps.add(key)
                    changed = True
                for cand in candidates:
                    offset = _param_offset(graph.functions[cand], desc)
                    mutated = graph.mutates_params.get(cand, ())
                    for arg_i, param_i in desc.param_args:
                        if arg_i + offset in mutated:
                            mine = graph.mutates_params.setdefault(key, set())
                            if param_i not in mine:
                                mine.add(param_i)
                                changed = True
                    # method call on a self-ish receiver that reaches a
                    # self-mutating target: the method mutates our self
                    # too (``self._helper()`` chains).
                    if (
                        desc.kind == "self"
                        and cand in graph.mutates_self
                        and key not in graph.mutates_self
                    ):
                        graph.mutates_self.add(key)
                        changed = True
    return graph


def _param_offset(callee: FunctionSummary, desc: CallDesc) -> int:
    """Positional-arg index -> callee param index offset."""
    if callee.cls is None or callee.is_static:
        return 0
    if desc.kind == "name":
        # Constructor or unbound call: arg 0 is param 1 for __init__.
        return 1 if callee.qualname.endswith("__init__") else 0
    return 1


# -- the rules -----------------------------------------------------------------


def _solver_roots(graph: DataflowGraph, config: AnalysisConfig) -> List[str]:
    """``solve()`` keys of every solver-family class in R10's scope."""
    roots: List[str] = []
    for name, info in sorted(graph.project.classes.items()):
        lineage = {name} | graph.project.ancestors(name)
        in_family = "CoSKQAlgorithm" in lineage
        if not in_family:
            for member in lineage:
                member_info = graph.project.classes.get(member)
                if member_info is not None and "_reset_counters" in member_info.methods:
                    in_family = True
                    break
        if not in_family:
            continue
        key = graph.class_methods.get((name, "solve"))
        if key is None:
            continue
        if config.applies_to("R10", graph.relpath_of(key)):
            roots.append(key)
    return roots


def _sanctioned(relpath: str, config: AnalysisConfig) -> bool:
    from repro.analysis.config import path_matches

    return any(path_matches(relpath, p) for p in config.r10_sanctioned)


def check_r10(
    graph: DataflowGraph, config: AnalysisConfig
) -> Iterator[Tuple[str, Violation]]:
    """Shared-state writes transitively reachable from solver ``solve()``."""
    reported: Set[Tuple[str, int]] = set()
    for root in _solver_roots(graph, config):
        # BFS with parent pointers for call-chain reporting.
        parents: Dict[str, Optional[str]] = {root: None}
        queue: List[str] = [root]
        while queue:
            key = queue.pop(0)
            fn = graph.functions[key]
            relpath = graph.relpath_of(key)
            sanctioned = _sanctioned(relpath, config)
            if not sanctioned:
                for site in self_mutations(fn):
                    spot = (relpath, site.lineno)
                    if spot in reported:
                        continue
                    reported.add(spot)
                    yield relpath, Violation(
                        "R10",
                        relpath,
                        site.lineno,
                        "function reachable from %s mutates shared search "
                        "state (%s); only the sanctioned writer modules "
                        "(the `sanction` list in [tool.repro.analysis]) may "
                        "write through context/index/inverted/oracle owners"
                        % (graph.display(root), site.detail),
                        function=graph.display(key),
                        chain=_chain_to(graph, parents, key),
                    )
            for desc in fn.calls:
                candidates = graph.resolve(relpath, fn, desc)
                if not sanctioned:
                    for viol in _call_site_escapes(
                        graph, config, key, desc, candidates
                    ):
                        spot = (relpath, desc.lineno)
                        if spot in reported:
                            continue
                        reported.add(spot)
                        yield relpath, Violation(
                            "R10",
                            relpath,
                            desc.lineno,
                            viol % (graph.display(root),),
                            function=graph.display(key),
                            chain=_chain_to(graph, parents, key),
                        )
                for cand in candidates:
                    if cand not in parents:
                        parents[cand] = key
                        queue.append(cand)


def self_mutations(fn: FunctionSummary) -> List[MutationSite]:
    return [m for m in fn.mutations if m.root == "shared"]


def _call_site_escapes(
    graph: DataflowGraph,
    config: AnalysisConfig,
    key: str,
    desc: CallDesc,
    candidates: List[str],
) -> Iterator[str]:
    """R10 messages for escapes at one call site (shared args/receivers).

    Effects are attributed by *consensus*: when resolution is ambiguous
    (a protocol method defined by several classes), the call is flagged
    only if every unsanctioned candidate carries the effect — a single
    mutating implementation of a mostly-pure protocol must not condemn
    every call through the interface.  Candidates defined in sanctioned
    writer modules (the parallel engine's runtimes and caches, the
    fault-injection wrapper) are excluded before the vote: their writes
    are allowed by design.
    """
    unsanctioned = [
        c for c in candidates if not _sanctioned(graph.relpath_of(c), config)
    ]
    if not unsanctioned:
        return
    if desc.shared_args:

        def arg_escapes(cand: str) -> bool:
            offset = _param_offset(graph.functions[cand], desc)
            mutated = graph.mutates_params.get(cand, ())
            return any(a + offset in mutated for a in desc.shared_args)

        if all(arg_escapes(c) for c in unsanctioned):
            yield (
                "shared search state escapes into %s(), which mutates it; "
                "reachable from %%s" % (desc.name,)
            )
            return
    if (
        desc.kind == "attr"
        and desc.recv_shared
        and all(c in graph.mutates_self for c in unsanctioned)
    ):
        yield (
            "mutating call %s() on shared search state (receiver %s); "
            "reachable from %%s" % (desc.name, ".".join(reversed(desc.recv)))
        )


def _chain_to(
    graph: DataflowGraph, parents: Dict[str, Optional[str]], key: str
) -> Tuple[str, ...]:
    chain: List[str] = []
    cursor: Optional[str] = key
    while cursor is not None:
        chain.append(graph.display(cursor))
        cursor = parents.get(cursor)
    return tuple(reversed(chain))


def check_r11(
    graph: DataflowGraph, config: AnalysisConfig
) -> Iterator[Tuple[str, Violation]]:
    """Unbounded loops must checkpoint on every iteration path."""
    for key in sorted(graph.functions):
        fn = graph.functions[key]
        relpath = graph.relpath_of(key)
        if not fn.loops or not config.applies_to("R11", relpath):
            continue
        for loop in fn.loops:
            what = (
                "while loop"
                if loop.kind == "while"
                else "for loop over %s()" % (loop.stream,)
            )
            if loop.definite_leak:
                yield relpath, Violation(
                    "R11",
                    relpath,
                    loop.lineno,
                    "%s has an iteration path that never reaches "
                    "_bump()/_checkpoint(); ExecutionPolicy deadlines "
                    "cannot interrupt it" % (what,),
                    function=graph.display(key),
                )
                continue
            for path in loop.reliant_paths:
                satisfied = False
                witness: Tuple[str, ...] = ()
                for desc in path:
                    for cand in graph.resolve(relpath, fn, desc):
                        if cand in graph.bumps:
                            satisfied = True
                            witness = (graph.display(cand),)
                            break
                    if satisfied:
                        break
                if not satisfied:
                    called = ", ".join(
                        sorted({d.name + "()" for d in path})
                    )
                    yield relpath, Violation(
                        "R11",
                        relpath,
                        loop.lineno,
                        "%s has an iteration path whose calls (%s) never "
                        "reach _bump()/_checkpoint(); ExecutionPolicy "
                        "deadlines cannot interrupt it" % (what, called),
                        function=graph.display(key),
                    )
                    break


def check_dataflow_rules(
    graph: DataflowGraph, config: AnalysisConfig
) -> Iterator[Tuple[str, Violation]]:
    """All interprocedural rules, in rule order."""
    if config.rule_enabled("R10"):
        yield from check_r10(graph, config)
    if config.rule_enabled("R11"):
        yield from check_r11(graph, config)
