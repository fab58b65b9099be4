"""Determinism rule: fingerprint/memo/serialization paths must be pure.

``TuningJob.fingerprint()``, menu-memo keys, and every serialized
artifact are content addresses: two processes building the same value
must produce the same bytes, or the :class:`~repro.api.cache.PlanCache`
and campaign resume silently stop deduplicating (worse: serve stale
mismatches). Inside the configured path set
(:attr:`~repro.analysis.config.CheckConfig.determinism_paths`) this
rule reports two kinds of finding under one id.

**Per-statement** findings (:func:`legacy_findings`, the pattern
matcher):

* wall-clock reads (``time.time``, ``datetime.now``, ...) — including
  bare references such as ``field(default_factory=time.time)``;
* nondeterministic randomness (module-level ``random.*``,
  ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*``);
* direct iteration over sets (hash-order-dependent), including
  ``list(set(...))`` / ``tuple(set(...))``;
* ``json.dump(s)`` without ``sort_keys=True`` (unsorted dict emission).

**Flow** findings (:func:`flow_findings`, the dataflow engine with one
level of call-graph propagation): a nondeterministic value laundered
through locals, arithmetic, an f-string, a dict, or a helper's return
value before reaching a sink, where no single line pattern-matches.

* Sources (kind): the wall clock above plus the monotonic and perf
  counters, which are fine to read for durations but not to key on
  (``wall-clock``); the entropy sources above (``entropy``);
  ``os.environ`` / ``os.getenv`` (``env``); materializing or iterating
  an unordered ``set`` (``hash-order``).
* Sinks: any ``fingerprint(...)``/``*.fingerprint(...)`` argument,
  ``json.dump(s)`` payloads, ``hashlib.*`` digests, and memo-key calls
  (``*.lookup``/``*.store`` on a ``*memo*`` receiver, ``*_key(...)``
  helpers).
* Sanitizers are kind-aware: ``sorted(...)`` launders ``hash-order``
  (a sorted set is deterministic) but *not* a wall-clock or entropy
  value flowing through it; ``len``/``min``/``max``/``sum`` launder
  ``hash-order`` too (order-insensitive folds).

Flows are tracked through locals only; attribute and global flows are
left to the per-statement matcher. Each ``(path, line, message)`` is
reported once.

Wall-clock *display* timestamps are legitimate — suppress them with a
justification: ``# repro: allow[determinism] wall-clock display only``.
"""

from __future__ import annotations

import ast

from ..callgraph import CallGraph, FunctionInfo
from ..cfg import build_cfg
from ..config import path_matches
from ..dataflow import TaintAnalysis, TaintSpec, _is_set_expr
from ..findings import Finding
from ..project import ModuleSource, Project, dotted_name
from ..registry import register_rule

__all__ = ["DeterminismRule", "flow_findings", "legacy_findings"]

#: dotted references that read the wall clock or equivalent
_CLOCK_REFS = {
    "time.time": "use time.monotonic()/time.perf_counter() for "
                 "durations; wall-clock is display-only here",
    "time.time_ns": "use time.monotonic_ns() for durations",
    "datetime.now": "inject the timestamp from the caller instead",
    "datetime.utcnow": "inject the timestamp from the caller instead",
    "datetime.today": "inject the timestamp from the caller instead",
    "datetime.datetime.now": "inject the timestamp from the caller instead",
    "datetime.datetime.utcnow": "inject the timestamp from the caller "
                                "instead",
    "datetime.datetime.today": "inject the timestamp from the caller "
                               "instead",
    "date.today": "inject the date from the caller instead",
    "datetime.date.today": "inject the date from the caller instead",
}

#: duration clocks: reading one is fine, keying on one is not, so they
#: are flow sources only
_DURATION_CLOCKS = (
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
)

#: dotted references to nondeterministic entropy sources
_ENTROPY_REFS = {
    "os.urandom": "derive bytes from the content being fingerprinted",
    "uuid.uuid1": "uuid1 mixes in host + wall clock",
    "uuid.uuid4": "uuid4 is fresh entropy every call; derive ids from "
                  "content, or suppress for runtime-only identifiers",
    "secrets.token_hex": "secrets is entropy by design",
    "secrets.token_bytes": "secrets is entropy by design",
    "secrets.token_urlsafe": "secrets is entropy by design",
}

#: module-level random is unseeded global state
_RANDOM_ALLOWED = {"random.Random"}

#: the seeded, reproducible entry points a flow may pass through
_SEEDED_RANDOM = ("random.Random", "random.seed")

#: calls whose output order follows set hash order
_SET_CASTS = {"list", "tuple"}

_FLOW_CLOCKS = {name: ("wall-clock", name)
                for name in (*_CLOCK_REFS, *_DURATION_CLOCKS)}
_FLOW_ENTROPY = {name: ("entropy", name) for name in _ENTROPY_REFS}

_FLOW_SPEC = TaintSpec(
    call_sources={**_FLOW_CLOCKS, **_FLOW_ENTROPY,
                  "os.getenv": ("env", "os.getenv"),
                  "os.environ.get": ("env", "os.environ.get")},
    ref_sources={**_FLOW_CLOCKS, **_FLOW_ENTROPY,
                 "os.environ": ("env", "os.environ")},
    prefix_sources={"random.": ("entropy", "unseeded random.*")},
    sanitizers={name: frozenset({"hash-order"})
                for name in ("sorted", "len", "min", "max", "sum")},
)

#: call-name suffixes that key a cache / fingerprint something
_SINK_SUFFIXES = ("fingerprint", "_key")
_SINK_EXACT = frozenset({"json.dumps", "json.dump"})
_SINK_PREFIXES = ("hashlib.",)
#: ``memo.lookup(key)`` / ``memo.store(key, ...)``: the key argument
_MEMO_METHODS = frozenset({"lookup", "store"})


# -- per-statement matcher ---------------------------------------------------


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: ModuleSource):
        self.module = module
        self.findings: list[Finding] = []
        #: lines already flagged, to avoid Call + Attribute double hits
        self._seen: set = set()

    def _flag(self, node: ast.AST, message: str, hint: str) -> None:
        key = (node.lineno, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(
            rule="determinism", path=self.module.path, line=node.lineno,
            message=message, hint=hint,
        ))

    # -- wall clock / entropy: flag references, not just calls -------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        if name in _CLOCK_REFS:
            self._flag(node, f"wall-clock reference {name!r} in a "
                             f"determinism-critical path",
                       _CLOCK_REFS[name])
        elif name in _ENTROPY_REFS:
            self._flag(node, f"nondeterministic entropy source {name!r}",
                       _ENTROPY_REFS[name])
        elif (name is not None and name.startswith("random.")
                and name not in _RANDOM_ALLOWED):
            self._flag(node, f"unseeded global RNG {name!r}",
                       "use an explicitly seeded random.Random(seed) "
                       "instance")
        self.generic_visit(node)

    # -- set-order dependence ----------------------------------------------

    def _check_iter(self, node: ast.AST, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self._flag(node, "iteration over a set follows hash order",
                       "sort first: iterate sorted(...) for a "
                       "deterministic order")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- calls: set casts + unsorted JSON emission -------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if (name in _SET_CASTS and node.args
                and _is_set_expr(node.args[0])):
            self._flag(node, f"{name}(set(...)) materializes hash order",
                       "use sorted(...) for a deterministic order")
        if name in ("json.dumps", "json.dump"):
            sort_keys = next((kw for kw in node.keywords
                              if kw.arg == "sort_keys"), None)
            unsorted = sort_keys is None or (
                isinstance(sort_keys.value, ast.Constant)
                and sort_keys.value.value is not True)
            has_kwargs = any(kw.arg is None for kw in node.keywords)
            if unsorted and not (sort_keys is None and has_kwargs):
                self._flag(node, f"{name}() without sort_keys=True emits "
                                 f"dict-insertion order",
                           "pass sort_keys=True so emitted JSON is "
                           "canonical")
        self.generic_visit(node)


def legacy_findings(project: Project) -> list[Finding]:
    """The per-statement (pattern-matched) findings, verbatim.

    Exposed so the differential test can pin the superset guarantee:
    ``DeterminismRule.check(p) ⊇ legacy_findings(p)`` on any corpus.
    """
    findings: list[Finding] = []
    for module in project.modules:
        if not path_matches(module.path,
                            project.config.determinism_paths):
            continue
        visitor = _Visitor(module)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings


# -- flow scan ---------------------------------------------------------------


def _sink_description(node: ast.Call) -> "str | None":
    """Sink label for a call node, or ``None`` if it is not a sink."""
    name = dotted_name(node.func)
    if name is not None:
        if name in _SINK_EXACT:
            return name
        if any(name.startswith(prefix) for prefix in _SINK_PREFIXES):
            return name
        short = name.split(".")[-1]
        if any(short == suffix or short.endswith(suffix)
               for suffix in _SINK_SUFFIXES):
            return name
    if isinstance(node.func, ast.Attribute):
        receiver = dotted_name(node.func.value) or ""
        if (node.func.attr in _MEMO_METHODS
                and "memo" in receiver.lower()):
            return f"{receiver}.{node.func.attr}"
    return None


class _Summaries:
    """Lazy intraprocedural return-taint summaries, one per function.

    ``summary(qualname)`` answers: do this function's *own* sources
    reach its return value? Used at call sites for exactly one level
    of call-graph propagation (a summary never includes its callees'
    summaries, so laundering chains longer than one hop are out of
    scope by design — and documented as such).
    """

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self._cache: dict[str, frozenset] = {}

    def summary(self, qualname: str) -> frozenset:
        if qualname in self._cache:
            return self._cache[qualname]
        self._cache[qualname] = frozenset()  # cycle guard
        info = self.graph.functions.get(qualname)
        if info is None:
            return frozenset()
        analysis = TaintAnalysis(build_cfg(info.node), _FLOW_SPEC)
        self._cache[qualname] = analysis.return_taint
        return analysis.return_taint


def _function_flows(info: FunctionInfo, graph: CallGraph,
                    summaries: _Summaries) -> list[Finding]:
    """Flow findings of one function: tainted arguments at sink calls."""

    def call_summary(node: ast.Call) -> frozenset:
        taints: frozenset = frozenset()
        for callee in graph.resolve_call(info, node):
            for source in summaries.summary(callee):
                _, _, dotted = callee.partition("::")
                taints |= frozenset({type(source)(
                    source.kind,
                    f"{source.description} via {dotted}()",
                    node.lineno)})
        return taints

    analysis = TaintAnalysis(build_cfg(info.node), _FLOW_SPEC,
                             call_summary=call_summary)
    out = []
    seen: set = set()
    for _block, element, state in analysis.iter_states():
        for node in ast.walk(element):
            if not isinstance(node, ast.Call):
                continue
            sink = _sink_description(node)
            if sink is None:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords
                                      if kw.arg != "sort_keys"]
            taints: frozenset = frozenset()
            for arg in args:
                taints |= analysis.expr_taint(arg, state)
            taints = frozenset(
                t for t in taints
                if not t.description.startswith(_SEEDED_RANDOM))
            for taint in sorted(taints,
                                key=lambda t: (t.kind, t.description)):
                key = (node.lineno, sink, taint.kind, taint.description)
                if key in seen:
                    continue
                seen.add(key)
                out.append(Finding(
                    rule="determinism",
                    path=info.module.path,
                    line=node.lineno,
                    message=(f"{taint.kind} value from "
                             f"{taint.description} (line {taint.line}) "
                             f"flows into {sink}()"),
                    hint=("fingerprints/memo keys must be pure "
                          "functions of their inputs; drop the "
                          "nondeterministic input or sanitize the "
                          "flow (sorted() launders hash-order)"),
                ))
    return out


def flow_findings(project: Project) -> list[Finding]:
    """Nondeterministic values flowing into sinks in determinism paths."""
    graph = project.call_graph
    summaries = _Summaries(graph)
    findings = []
    for info in graph.functions.values():
        if path_matches(info.module.path, project.config.determinism_paths):
            findings.extend(_function_flows(info, graph, summaries))
    return findings


@register_rule("determinism")
class DeterminismRule:
    """Ban wall-clock, entropy, and hash-order in fingerprint paths."""

    hint = ("fingerprints, memo keys, and serialized artifacts must be "
            "pure functions of their inputs")

    def check(self, project: Project) -> list[Finding]:
        findings = legacy_findings(project)
        seen = {(f.path, f.line, f.message) for f in findings}
        for flow in flow_findings(project):
            key = (flow.path, flow.line, flow.message)
            if key not in seen:
                seen.add(key)
                findings.append(flow)
        return findings
