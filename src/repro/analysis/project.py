"""Parsed-module collection every rule runs over, plus AST helpers.

A :class:`Project` is the unit of analysis: a list of
:class:`ModuleSource` (path, source text, parsed ``ast`` tree), the
:class:`~repro.analysis.config.CheckConfig` that scopes path-sensitive
rules, and the project-wide call graph every rule shares. Build one
from filesystem paths (:meth:`Project.from_paths`, the CLI route) or
from in-memory sources (:meth:`Project.from_sources`, the fixture
route tests use).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .config import DEFAULT_CONFIG, CheckConfig
from .findings import Finding

if TYPE_CHECKING:
    from .callgraph import CallGraph

__all__ = ["ModuleSource", "Project", "dotted_name", "iter_python_files"]

#: directories never worth scanning
_SKIP_DIRS = {".git", "__pycache__", ".venv", "venv", "build", "dist",
              ".eggs", "node_modules"}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    The workhorse of every rule: turns ``time.time`` / ``self._lock`` /
    ``loop.run_in_executor`` references into matchable strings.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


@dataclass
class ModuleSource:
    """One parsed module: where it lives, its text, and its AST."""

    path: str
    source: str
    tree: ast.Module
    #: line-indexed source (1-based access via ``lines[lineno - 1]``)
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()


def iter_python_files(paths: "list[str | Path]") -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    out: list[Path] = []
    seen: set[Path] = set()
    for entry in paths:
        root = Path(entry)
        if root.is_file():
            candidates = [root] if root.suffix == ".py" else []
        else:
            candidates = sorted(
                p for p in root.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts))
            )
        for path in candidates:
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(path)
    return out


@dataclass
class Project:
    """Everything one ``repro check`` invocation analyzes."""

    modules: list[ModuleSource]
    config: CheckConfig = DEFAULT_CONFIG
    #: modules that failed to parse, surfaced as unsuppressable findings
    parse_failures: list[Finding] = field(default_factory=list)

    @cached_property
    def call_graph(self) -> "CallGraph":
        """The project-wide call graph, built on first use, shared by rules."""
        from .callgraph import CallGraph  # callgraph imports this module
        return CallGraph.build(self)

    @classmethod
    def from_paths(cls, paths: "list[str | Path]",
                   config: CheckConfig = DEFAULT_CONFIG) -> "Project":
        modules: list[ModuleSource] = []
        failures: list[Finding] = []
        for path in iter_python_files(paths):
            rel = path.as_posix()
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                failures.append(Finding(
                    rule="parse-error", path=rel, line=0,
                    message=f"cannot read module: {exc}",
                    hint="fix the file encoding/permissions or exclude it",
                ))
                continue
            parsed = _parse(rel, source, failures)
            if parsed is not None:
                modules.append(parsed)
        return cls(modules=modules, config=config, parse_failures=failures)

    @classmethod
    def from_sources(cls, sources: dict,
                     config: CheckConfig = DEFAULT_CONFIG) -> "Project":
        """Build from ``{path: source}`` — the test-fixture entry point."""
        modules: list[ModuleSource] = []
        failures: list[Finding] = []
        for rel, source in sources.items():
            parsed = _parse(str(rel), source, failures)
            if parsed is not None:
                modules.append(parsed)
        return cls(modules=modules, config=config, parse_failures=failures)


def _parse(rel: str, source: str,
           failures: list[Finding]) -> ModuleSource | None:
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        failures.append(Finding(
            rule="parse-error", path=rel, line=int(exc.lineno or 0),
            message=f"syntax error: {exc.msg}",
            hint="repro check only analyzes modules that parse",
        ))
        return None
    return ModuleSource(path=rel, source=source, tree=tree)
