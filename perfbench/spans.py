"""In-memory span recorder and the layer wrappers of the traced run.

A span is one call into a layer: ``(id, layer, start_ns, end_ns,
parent_id, trace_id, thread_id)``. Times come from
``time.monotonic_ns()``, which on Linux reads ``CLOCK_MONOTONIC`` and
so is comparable across the processes of one run (``run.py``, its
tune/slice children and the spawned daemon). Parents are tracked
per thread; at merge time the spans of the daemon are placed under the
client request that was open when they started (see :func:`merge`).

The wrappers are installed from the benchmark's own files by patching
each layer's entry point *where the program looks it up* (see
:data:`TARGETS`), so nothing under ``src/`` changes. A target that no
longer resolves raises at install time, and the per-workload coverage
check in ``perfbench/tests`` fails when a layer records no span, so a
rename cannot turn into a silent zero.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import importlib
import itertools
import threading
from collections import defaultdict
from time import monotonic_ns
from typing import Any, Callable

#: (layer, "module" or "module:Class", attribute) — the call sites the
#: traced run wraps. Module-level functions are patched in the module
#: that *calls* them, because the callers bound them by name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("costmodel.calibrate", "repro.evaluation.runner", "fit_interference_model"),
    ("tracing.trace", "repro.core.tuner", "trace"),
    ("tracing.trace", "repro.execution.engine", "trace"),
    ("core.analyzer", "repro.core.analyzer:SymbolicPerformanceAnalyzer", "__init__"),
    ("core.search", "repro.core.tuner:MistTuner", "search"),
    ("core.price", "repro.core.intra_stage:IntraStageTuner", "tune"),
    ("core.ilp", "repro.core.inter_stage", "solve"),
    ("execution.simulate", "repro.execution.engine:ExecutionEngine", "run"),
    ("execution.corun", "repro.execution.schedule", "corun_total_time"),
    ("execution.memory", "repro.execution.engine", "track_stage_memory"),
    ("execution.pipeline", "repro.execution.engine", "simulate_pipeline"),
    ("baselines.grid", "repro.baselines.common:GridSearchTuner", "tune"),
    ("campaigns.run", "repro.campaigns", "run_campaign"),
    ("api.cache", "repro.api.cache:PlanCache", "load_fingerprint"),
    ("api.cache", "repro.api.cache:PlanCache", "store"),
    ("service.http", "repro.service.client:Client", "submit"),
    ("service.http", "repro.service.client:Client", "wait"),
    ("service.http", "repro.service.server:TuningService", "submit"),
)

#: every layer, in report order; ``import`` is timed by the entry
#: scripts around ``import repro.api`` rather than by a wrapper
LAYERS: tuple[str, ...] = ("import",) + tuple(
    dict.fromkeys(layer for layer, _, _ in TARGETS))

#: per-layer counters taken from the wrapped call's result
COUNTERS: dict[str, tuple[str, ...]] = {
    "core.search": ("configs_evaluated", "configs_prefiltered",
                    "cells_explored", "cells_pruned", "memo_hits",
                    "memo_misses"),
    "execution.simulate": ("oom",),
    "baselines.grid": ("candidates_tried", "candidates_oom"),
    "api.cache": ("loads", "hits"),
}


def _search_stats(counters: dict, result: Any, error: Any) -> None:
    if error is None and result.stats is not None:
        stats = result.stats.to_dict()
        for name in COUNTERS["core.search"]:
            counters[name] += int(stats.get(name, 0))


def _simulate(counters: dict, result: Any, error: Any) -> None:
    if type(error).__name__ == "OOMError":
        counters["oom"] += 1


def _grid(counters: dict, result: Any, error: Any) -> None:
    if error is None:
        counters["candidates_tried"] += result.candidates_tried
        counters["candidates_oom"] += result.candidates_oom


def _cache_load(counters: dict, result: Any, error: Any) -> None:
    if error is None:
        counters["loads"] += 1
        counters["hits"] += result is not None


#: "Class.attr" of a target -> how its result feeds the layer counters
_OBSERVERS: dict[str, Callable[[dict, Any, Any], None]] = {
    "MistTuner.search": _search_stats,
    "ExecutionEngine.run": _simulate,
    "GridSearchTuner.tune": _grid,
    "PlanCache.load_fingerprint": _cache_load,
}


def resolve(where: str) -> Any:
    """The module or class a :data:`TARGETS` entry patches."""
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


class Recorder:
    """Collects spans and per-layer counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        #: id shared by the spans of the current job or request
        self.trace_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def add(self, layer: str, start_ns: int, end_ns: int) -> None:
        """Record a span timed by the caller (the ``import`` layer)."""
        self.spans.append((next(self._ids), layer, start_ns, end_ns, 0,
                           self.trace_id, threading.get_ident()))

    def wrap(self, fn: Callable, layer: str,
             observe: Callable[[dict, Any, Any], None] | None = None
             ) -> Callable:
        counters = self.counters[layer]
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = error = None
            start = monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = monotonic_ns()
                stack.pop()
                spans.append((span_id, layer, start, end, parent,
                              self.trace_id, threading.get_ident()))
                if observe is not None:
                    observe(counters, result, error)

        return wrapper

    def install(self) -> None:
        """Patch every :data:`TARGETS` call site (imports its module)."""
        for layer, where, attr in TARGETS:
            owner = resolve(where)
            original = owner.__dict__[attr]
            observe = _OBSERVERS.get(f"{where.partition(':')[2]}.{attr}")
            setattr(owner, attr, self.wrap(original, layer, observe))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counters": {k: dict(v) for k, v in self.counters.items()}}


def merge(processes: list[dict], windows: list[tuple[int, int]]
          ) -> dict[tuple[int, int], list]:
    """The spans of one unit, keyed ``(process, id)``, as
    ``[layer, start, end, parent, trace_id, depth]``.

    ``processes`` are :meth:`Recorder.dump` payloads. The first is the
    one that waits on the others: the serve client, whose requests
    enclose the daemon's work. The root spans of later processes sit one
    level deeper, under the first process's root span that was open when
    they started, whose trace id they take (one client: its requests
    never overlap). Only spans inside one of ``windows`` are kept.
    """
    spans: dict[tuple[int, int], list] = {}
    for p, payload in enumerate(processes):
        for sid, layer, start, end, parent, trace, _ in payload["spans"]:
            if any(lo <= start and end <= hi for lo, hi in windows):
                spans[(p, sid)] = [layer, start, end,
                                   (p, parent) if parent else None, trace, 0]
    for span in spans.values():
        if span[3] not in spans:
            span[3] = None
    outer = sorted((s[1], s[2], key) for key, s in spans.items()
                   if key[0] == 0 and s[3] is None)
    starts = [o[0] for o in outer]
    for key in sorted(spans, key=lambda k: (spans[k][1], k)):
        span = spans[key]
        parent = spans.get(span[3])
        if parent is not None:
            span[4], span[5] = parent[4], parent[5] + 1
        elif key[0] > 0:
            span[5] = 1
            i = bisect.bisect_right(starts, span[1]) - 1
            if i >= 0 and span[1] < outer[i][1]:
                span[3] = outer[i][2]
                span[4] = spans[span[3]][4]
    return spans


def attribute(processes: list[dict], windows: list[tuple[int, int]]
              ) -> dict[str, Any]:
    """Per-layer busy and self time, and an unattributed remainder.

    Each instant of the unit's wall time belongs to the deepest span
    open then (the latest started, on a tie), or to nobody. A layer's
    self time is what its spans own; for nested spans on one thread
    that is duration minus children, and across processes it makes the
    client's share of a request what the daemon's spans leave over. So
    the layers' self times plus ``unattributed`` (interpreter start,
    harness code, process exit) sum to the wall time exactly. A layer's
    busy time sums the durations of its spans that are not nested in a
    span of the same layer.
    """
    spans = merge(processes, windows)
    events = sorted([(s[1], 1, key) for key, s in spans.items()]
                    + [(s[2], 0, key) for key, s in spans.items()])
    owned: dict[tuple[int, int], int] = defaultdict(int)
    open_spans: list[tuple[int, int, tuple[int, int]]] = []
    closed: set[tuple[int, int]] = set()
    previous = 0
    for time_ns, is_start, key in events:
        while open_spans and open_spans[0][2] in closed:
            heapq.heappop(open_spans)
        if open_spans:
            owned[open_spans[0][2]] += time_ns - previous
        previous = time_ns
        if is_start:
            heapq.heappush(open_spans, (-spans[key][5], -spans[key][1], key))
        else:
            closed.add(key)
    layers: dict[str, dict[str, float]] = {
        name: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for name in LAYERS}
    for key, (layer, start, end, parent, _, _) in spans.items():
        row = layers[layer]
        row["calls"] += 1
        row["self_s"] += owned[key] / 1e9
        while parent is not None and spans[parent][0] != layer:
            parent = spans[parent][3]
        if parent is None:
            row["busy_s"] += (end - start) / 1e9
    wall = sum(hi - lo for lo, hi in windows) / 1e9
    attributed = sum(row["self_s"] for row in layers.values())
    return {"layers": layers, "wall_s": wall,
            "unattributed_s": wall - attributed}
