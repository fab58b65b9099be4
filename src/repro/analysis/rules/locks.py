"""The project-wide lock model, and the lock-discipline rule built on it.

The service registries (``TuningService._jobs`` / ``_inflight``), the
metrics ledger, and the process-wide
:data:`~repro.core.memo.GLOBAL_MENU_MEMO` are mutated from the asyncio
loop *and* solver worker threads; their invariant is "every touch holds
the owning lock". Two rules read one model of the project's locks:

* :class:`_LockIndex` — every lock declaration in the project and the
  mutable containers it guards. A class that creates a lock in
  ``__init__``/``__post_init__`` (or as a dataclass
  ``field(default_factory=threading.Lock)``) guards the container
  attributes it creates the same way (``self._jobs = {}``); a module
  that declares a module-level ``threading.Lock()`` guards its
  module-level containers. Classes nested anywhere are indexed. Lock
  identity is ``ClassName.attr`` for instance locks (all instances of
  a class collapse) and ``<module stem>.name`` for module-level locks.
* :class:`_FunctionScan` — one walk per function recording the locks
  held at each point. A sync ``with <lock>:`` *acquires* the lock;
  ``async with <lock>:`` holds it without blocking a thread. A nested
  def or lambda runs later, so its calls and awaits are its own, but
  its accesses are judged by the locks held where it appears.

**lock-discipline** (this module) flags a method access to
``self.<container>`` — or a module function's access to a guarded
module-level container — while none of the owning scope's locks is
held (``with`` or ``async with``). ``__init__`` / ``__post_init__``
and the defs nested in them are construction-time and exempt.
**lock-order** (:mod:`.lock_order`) builds its acquisition graph from
the same scans.

Deliberately lock-free fast paths (racy-but-safe reads) are exactly
what ``# repro: allow[lock-discipline] <why it is safe>`` is for.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, NamedTuple

from ..callgraph import FunctionInfo
from ..findings import Finding
from ..project import ModuleSource, Project, dotted_name
from ..registry import register_rule

__all__ = ["LockDisciplineRule", "lock_scans"]

_LOCK_FACTORIES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "Lock", "RLock", "Condition",
}

_MUTABLE_FACTORIES = {
    "dict", "list", "set", "dict.fromkeys",
    "OrderedDict", "collections.OrderedDict",
    "defaultdict", "collections.defaultdict",
    "deque", "collections.deque",
}

#: construction-time methods: nothing else can hold a reference yet
_CONSTRUCTORS = ("__init__", "__post_init__")


def _initializer_kind(value: ast.AST) -> str | None:
    """``"lock"`` / ``"mutable"`` / ``None`` for an assigned value."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return "mutable"
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name in _LOCK_FACTORIES:
            return "lock"
        if name in _MUTABLE_FACTORIES:
            return "mutable"
        # dataclass field(default_factory=...) declarations
        if name in ("field", "dataclasses.field"):
            for kw in value.keywords:
                if kw.arg == "default_factory":
                    factory = dotted_name(kw.value)
                    if factory in _LOCK_FACTORIES:
                        return "lock"
                    if factory in _MUTABLE_FACTORIES:
                        return "mutable"
    return None


def _assignments(stmts: Iterable[ast.AST]) -> Iterator[tuple]:
    """``(target, kind)`` for each lock/container assignment in ``stmts``."""
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        kind = _initializer_kind(value)
        if kind is not None:
            for target in targets:
                yield target, kind


def _split(named: Iterable[tuple]) -> "tuple[set, set]":
    """``(locks, mutables)`` from ``(name, kind)`` pairs."""
    locks: set = set()
    mutables: set = set()
    for name, kind in named:
        (locks if kind == "lock" else mutables).add(name)
    return locks, mutables


def _class_attrs(node: ast.ClassDef) -> "tuple[set, set]":
    """``(lock_attrs, mutable_attrs)`` a class declares."""
    # dataclass-style field declarations
    fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
    named = [(target.id, kind) for target, kind in _assignments(fields)
             if isinstance(target, ast.Name)]
    for item in node.body:
        if (isinstance(item, ast.FunctionDef)
                and item.name in _CONSTRUCTORS):
            named += [
                (target.attr, kind)
                for target, kind in _assignments(ast.walk(item))
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"]
    return _split(named)


def _module_attrs(tree: ast.Module) -> "tuple[set, set]":
    """``(lock_names, mutable_names)`` declared at module level."""
    return _split((target.id, kind)
                  for target, kind in _assignments(tree.body)
                  if isinstance(target, ast.Name))


class _LockIndex:
    """Every lock declaration in the project, with what each guards."""

    def __init__(self) -> None:
        #: attr name -> set of "ClassName.attr" ids (for obj.attr)
        self.by_attr: dict[str, set] = {}
        #: module path -> {bare name: lock id} (module-level locks)
        self.module_locks: dict[str, dict] = {}
        #: module path -> {class name: {attr: lock id}}
        self.class_locks: dict[str, dict] = {}
        #: (module path, class name or None) -> guarded container names
        self.guarded: dict[tuple, set] = {}

    @classmethod
    def build(cls, project: Project) -> "_LockIndex":
        index = cls()
        for module in project.modules:
            stem = module.path.rsplit("/", 1)[-1].removesuffix(".py")
            locks, mutables = _module_attrs(module.tree)
            index.module_locks[module.path] = {
                name: f"{stem}.{name}" for name in locks}
            if locks:
                index.guarded[(module.path, None)] = mutables
            classes = index.class_locks.setdefault(module.path, {})
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                locks, mutables = _class_attrs(node)
                if not locks:
                    continue
                attrs = classes.setdefault(node.name, {})
                for attr in locks:
                    lock_id = f"{node.name}.{attr}"
                    index.by_attr.setdefault(attr, set()).add(lock_id)
                    attrs[attr] = lock_id
                index.guarded.setdefault(
                    (module.path, node.name), set()).update(mutables)
        return index

    def resolve(self, info: FunctionInfo,
                expr: ast.AST) -> "str | None":
        """Lock id for a ``with`` context expression, if known."""
        name = dotted_name(expr)
        if name is None:
            return None
        module_path = info.module.path
        if "." not in name:
            return self.module_locks.get(module_path, {}).get(name)
        base, _, attr = name.rpartition(".")
        if base in ("self", "cls") and info.class_name is not None:
            owned = self.class_locks.get(module_path, {}) \
                .get(info.class_name, {})
            if attr in owned:
                return owned[attr]
        # obj.attr with a unique declaring class project-wide
        candidates = self.by_attr.get(attr, set())
        if len(candidates) == 1:
            return next(iter(candidates))
        return None


class _Site(NamedTuple):
    """Where an ordered pair of acquisitions was observed."""

    path: str
    line: int
    where: str


class _FunctionScan:
    """One function's walk: what it acquires, calls, awaits, touches.

    Lock-order reads ``acquires``/``pairs``/``calls``/``awaits``, which
    count sync ``with`` acquisitions made in this function's own body.
    Lock-discipline reads ``unguarded``, judged against every lock held
    at that point: ``with`` and ``async with`` alike, plus the locks
    held where an enclosing function defines this one (``entry``).
    """

    def __init__(self, info: FunctionInfo, index: _LockIndex,
                 scans: list, *, where: str, exempt: bool,
                 entry: tuple = ()):
        self.info = info
        self.index = index
        self.where = where
        self.exempt = exempt
        #: all scans of the module, nested functions' included
        self._scans = scans
        # methods guard ``self.<name>`` with their class's locks; module
        # functions guard bare names with the module's locks
        path = info.module.path
        self._guarded = index.guarded.get((path, info.class_name), set())
        owners = (index.module_locks.get(path, {}) if info.class_name is None
                  else index.class_locks[path].get(info.class_name, {}))
        self._owners = set(owners.values())
        #: locks this function acquires at any nesting (incl. top level)
        self.acquires: set = set()
        #: (held, acquired) -> first _Site observed
        self.pairs: dict = {}
        #: (call node, tuple of locks acquired at the call)
        self.calls: list = []
        #: (await line, locks acquired) — only under at least one lock
        self.awaits: list = []
        #: (line, label) of guarded accesses with no owning lock held
        self.unguarded: list = []
        self._acquired: list = []
        self._held: list = list(entry)
        scans.append(self)
        self._walk(info.node.body)

    # -- traversal ---------------------------------------------------------

    def _walk(self, body: list) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.AST) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname=f"{self.info.qualname}.{stmt.name}",
                module=self.info.module, node=stmt,
                class_name=self.info.class_name)
            _FunctionScan(info, self.index, self._scans, where=self.where,
                          exempt=self.exempt, entry=tuple(self._held))
            return
        if isinstance(stmt, ast.ClassDef):
            dotted = self.info.qualname.partition("::")[2]
            _scan_scope(stmt.body, self.info.module,
                        f"{dotted}.{stmt.name}.", stmt.name,
                        self.index, self._scans)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            taken = []
            for item in stmt.items:
                self._expr(item.context_expr)
                lock_id = self.index.resolve(self.info, item.context_expr)
                if lock_id is None:
                    continue
                # only a sync `with` blocks a thread on the lock
                blocking = isinstance(stmt, ast.With)
                if blocking:
                    self._acquire(lock_id, item.context_expr.lineno)
                self._held.append(lock_id)
                taken.append(blocking)
            self._walk(stmt.body)
            for blocking in reversed(taken):
                self._held.pop()
                if blocking:
                    self._acquired.pop()
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, ast.excepthandler,
                                  ast.match_case)):
                self._stmt(child)
            else:
                self._expr(child)

    def _expr(self, node: ast.AST, deferred: bool = False) -> None:
        # a lambda body runs later: its calls are not made here
        deferred = deferred or isinstance(node, ast.Lambda)
        if not deferred:
            if isinstance(node, ast.Call):
                self.calls.append((node, tuple(self._acquired)))
            elif isinstance(node, ast.Await) and self._acquired:
                self.awaits.append((node.lineno, tuple(self._acquired)))
        if self._guarded and not self.exempt:
            self._access(node)
        for child in ast.iter_child_nodes(node):
            self._expr(child, deferred)

    def _access(self, node: ast.AST) -> None:
        if self.info.class_name is None:
            if not (isinstance(node, ast.Name)
                    and node.id in self._guarded):
                return
            label = f"module-level {node.id}"
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self._guarded):
            label = f"self.{node.attr}"
        else:
            return
        key = (node.lineno, label)
        if not self._owners.intersection(self._held) \
                and key not in self.unguarded:
            self.unguarded.append(key)

    def _acquire(self, lock_id: str, line: int) -> None:
        self.acquires.add(lock_id)
        dotted = self.info.qualname.partition("::")[2]
        site = _Site(self.info.module.path, line, f"{dotted}()")
        for held in self._acquired:
            self.pairs.setdefault((held, lock_id), site)
        if lock_id in self._acquired:
            # direct re-acquisition in one lexical path
            self.pairs.setdefault((lock_id, lock_id), site)
        self._acquired.append(lock_id)


def _scan_scope(body: list, module: ModuleSource, prefix: str,
                class_name: "str | None", index: _LockIndex,
                scans: list) -> None:
    """Scan the functions of a module or class body, classes included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            _scan_scope(node.body, module, f"{prefix}{node.name}.",
                        node.name, index, scans)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(qualname=f"{module.path}::{prefix}{node.name}",
                                module=module, node=node,
                                class_name=class_name)
            if class_name is None:
                where, exempt = f"{node.name}()", False
            else:
                where = f"{class_name}.{node.name}"
                exempt = node.name in _CONSTRUCTORS
            _FunctionScan(info, index, scans, where=where, exempt=exempt)
        else:  # defs under if/try/with at module or class level
            _scan_scope([child for child in ast.iter_child_nodes(node)
                         if isinstance(child, (ast.stmt, ast.excepthandler,
                                               ast.match_case))],
                        module, prefix, class_name, index, scans)


def lock_scans(project: Project) -> list:
    """A :class:`_FunctionScan` for every function in the project."""
    index = _LockIndex.build(project)
    scans: list = []
    for module in project.modules:
        _scan_scope(module.tree.body, module, "", None, index, scans)
    return scans


@register_rule("lock-discipline")
class LockDisciplineRule:
    """Flag guarded state touched without its owning lock held."""

    hint = ("state shared between the event loop and worker threads is "
            "only consistent under its owning lock")

    def check(self, project: Project) -> list[Finding]:
        return [
            Finding(
                rule="lock-discipline", path=scan.info.module.path,
                line=line,
                message=f"{label} accessed outside 'with <lock>' in "
                        f"{scan.where}",
                hint="take the owning lock around the access, or "
                     "suppress with a justification for a deliberately "
                     "racy read",
            )
            for scan in lock_scans(project)
            for line, label in scan.unguarded
        ]
