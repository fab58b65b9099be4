"""Exception-flow rule: broad handlers must not swallow control flow.

``SearchCancelled``, ``WorkerDiedError``, and ``AdmissionError`` (see
:attr:`~repro.analysis.config.CheckConfig.guarded_exceptions`) are not
error *reports* — they are control-flow signals the solver loop, the
worker tier, and the admission gate rely on crossing function
boundaries intact. A ``try: ... except Exception: log(...)`` anywhere
on such a path converts "cancel this search" into "keep burning the
worker on a dead job".

The analysis computes, per function, which guarded exceptions **may
escape** it: direct ``raise`` statements (minus those caught by
enclosing ``try`` blocks *inside* the same function) plus everything
escaping its callees, closed over the project call graph to a
fixpoint. Callable references passed as arguments count as calls —
``run_in_executor(None, self.submit, job)`` re-raises ``submit``'s
``AdmissionError`` at the ``await``.

A finding fires when, inside a function reachable from
:attr:`~repro.analysis.config.CheckConfig.solver_roots` (registry
dispatch included) and within
:attr:`~repro.analysis.config.CheckConfig.exception_paths`, a **broad**
handler — bare ``except``, ``except Exception``/``BaseException``, or
one naming a guarded *base* class such as ``RuntimeError`` — can
receive a guarded exception and does not re-raise it. A bare ``raise``
(or ``raise <bound name>``) anywhere in the handler body exempts it:
that is the standard "inspect, then propagate" shape.

Deliberate last-line-of-defense handlers (a daemon's top-level catch)
carry ``# repro: allow[exception-flow] <why>`` with the justification.
"""

from __future__ import annotations

import ast

from ..callgraph import CallGraph, FunctionInfo
from ..config import path_matches
from ..findings import Finding
from ..project import Project, dotted_name
from ..registry import register_rule

__all__ = ["ExceptionFlowRule"]

_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _own_try_nodes(func: ast.AST) -> list:
    """``Try`` nodes in a function body, nested scopes excluded.

    Nested defs are separate call-graph functions and get their own
    reachability-gated pass; walking into them here would double-report
    (or report unreachable closures).
    """
    out: list = []

    def scan(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(child, ast.Try):
                out.append(child)
            scan(child)

    scan(func)
    return out


def _handler_type_names(handler: ast.ExceptHandler) -> "set | None":
    """Short class names a handler catches; ``None`` for bare except."""
    if handler.type is None:
        return None
    nodes = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names = set()
    for node in nodes:
        name = dotted_name(node)
        if name is not None:
            names.add(name.split(".")[-1])
    return names


class _EscapeAnalysis:
    """Fixpoint of guarded exceptions escaping each function."""

    def __init__(self, graph: CallGraph, guarded: frozenset,
                 bases: frozenset):
        self.graph = graph
        self.guarded = guarded
        self.bases = bases
        self.escapes: dict[str, frozenset] = {
            qual: frozenset() for qual in graph.functions}
        self._solve()

    # -- handler semantics -------------------------------------------------

    def catches(self, handler: ast.ExceptHandler, exc: str) -> bool:
        names = _handler_type_names(handler)
        if names is None:
            return True
        return bool(names & ({exc} | _BROAD_NAMES | self.bases))

    def is_broad(self, handler: ast.ExceptHandler) -> bool:
        names = _handler_type_names(handler)
        if names is None:
            return True
        return bool(names & (_BROAD_NAMES | self.bases))

    def reraises(self, handler: ast.ExceptHandler) -> bool:
        """Bare ``raise`` / ``raise <bound name>`` in the handler body."""
        def scan(node: ast.AST) -> bool:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                return False
            if isinstance(node, ast.Raise):
                if node.exc is None:
                    return True
                if (handler.name is not None
                        and isinstance(node.exc, ast.Name)
                        and node.exc.id == handler.name):
                    return True
            return any(scan(child)
                       for child in ast.iter_child_nodes(node))
        return any(scan(stmt) for stmt in handler.body)

    # -- escape computation ------------------------------------------------

    def _call_escapes(self, info: FunctionInfo,
                      node: ast.Call) -> frozenset:
        out: frozenset = frozenset()
        targets = self.graph.resolve_call(info, node)
        targets |= self.graph._callable_refs(info, node)
        for callee in targets:
            out |= self.escapes.get(callee, frozenset())
        return out

    def _expr_escapes(self, info: FunctionInfo,
                      node: ast.AST) -> frozenset:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return frozenset()
        out: frozenset = frozenset()
        if isinstance(node, ast.Call):
            out |= self._call_escapes(info, node)
        for child in ast.iter_child_nodes(node):
            out |= self._expr_escapes(info, child)
        return out

    def stmt_escapes(self, info: FunctionInfo,
                     stmt: ast.AST) -> frozenset:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return frozenset()
        if isinstance(stmt, ast.Raise):
            out = frozenset()
            if stmt.exc is not None:
                name = dotted_name(
                    stmt.exc.func if isinstance(stmt.exc, ast.Call)
                    else stmt.exc)
                if name is not None:
                    short = name.split(".")[-1]
                    if short in self.guarded:
                        out = frozenset({short})
                if isinstance(stmt.exc, ast.Call):
                    out |= self._expr_escapes(info, stmt.exc)
            return out
        if isinstance(stmt, ast.Try):
            return self._try_escapes(info, stmt)
        out = frozenset()
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, ast.excepthandler,
                                  ast.match_case)):
                out |= self.stmt_escapes(info, child)
            else:
                out |= self._expr_escapes(info, child)
        return out

    def body_escapes(self, info: FunctionInfo,
                     body: list) -> frozenset:
        out: frozenset = frozenset()
        for stmt in body:
            out |= self.stmt_escapes(info, stmt)
        return out

    def _try_escapes(self, info: FunctionInfo,
                     stmt: ast.Try) -> frozenset:
        potential = self.body_escapes(info, stmt.body)
        remaining: frozenset = frozenset()
        for exc in potential:
            handler = next((h for h in stmt.handlers
                            if self.catches(h, exc)), None)
            if handler is None or self.reraises(handler):
                remaining |= frozenset({exc})
        for handler in stmt.handlers:
            remaining |= self.body_escapes(info, handler.body)
        remaining |= self.body_escapes(info, stmt.orelse)
        remaining |= self.body_escapes(info, stmt.finalbody)
        return remaining

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for qual, info in self.graph.functions.items():
                escaped = self.body_escapes(info, info.node.body)
                if escaped != self.escapes[qual]:
                    self.escapes[qual] = escaped
                    changed = True


@register_rule("exception-flow")
class ExceptionFlowRule:
    """Flag broad handlers that can swallow guarded exceptions."""

    hint = ("cancellation/worker-death/admission signals must cross "
            "the solver loop intact; catch them by name or re-raise")

    def check(self, project: Project) -> list:
        config = project.config
        graph = project.call_graph
        analysis = _EscapeAnalysis(
            graph,
            guarded=frozenset(config.guarded_exceptions),
            bases=frozenset(config.guarded_exception_bases))
        roots: set = set()
        for suffix in config.solver_roots:
            roots |= graph.by_suffix(suffix)
        reachable = graph.reachable_from(roots)
        findings: list = []
        for qual in sorted(reachable):
            info = graph.functions[qual]
            if not path_matches(info.module.path, config.exception_paths):
                continue
            for node in _own_try_nodes(info.node):
                potential = analysis.body_escapes(info, node.body)
                remaining = set(potential)
                for handler in node.handlers:
                    caught = {exc for exc in remaining
                              if analysis.catches(handler, exc)}
                    remaining -= caught
                    if not caught or not analysis.is_broad(handler):
                        continue
                    if analysis.reraises(handler):
                        continue
                    what = ", ".join(sorted(caught))
                    label = ("bare except"
                             if handler.type is None else
                             "broad except")
                    findings.append(Finding(
                        rule="exception-flow",
                        path=info.module.path,
                        line=handler.lineno,
                        message=(f"{label} in "
                                 f"{qual.partition('::')[2]}() can "
                                 f"swallow {what} on a solver-reachable "
                                 "path"),
                        hint=("catch the guarded exception by name and "
                              "re-raise it before the broad handler, "
                              "or justify with # repro: "
                              "allow[exception-flow]"),
                    ))
        findings.sort(key=lambda f: f.sort_key())
        return findings
