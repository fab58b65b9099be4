"""Lock-order rule: the global lock-acquisition graph must be acyclic.

The lock-discipline rule checks that guarded state is touched *under*
its lock; this rule checks the relationship **between** locks. Both
read the project-wide lock model in :mod:`.locks`: every lock declared
anywhere in the project, and one scan per function recording which
locks a sync ``with`` acquires *while others are already held*. The
rule follows those acquisitions through nested ``with`` blocks and
through direct calls resolved on the project call graph. Three
findings fall out:

* **cycle** — the acquisition graph has a cycle (``A → B`` somewhere,
  ``B → A`` elsewhere): two threads interleaving those paths deadlock.
* **re-acquisition** — a path acquires the same ``threading.Lock``
  while already holding it; ``threading.Lock`` is not reentrant, so
  this self-deadlocks deterministically.
* **await-under-lock** — an ``await`` while holding a *threading*
  lock parks the entire event loop behind a worker-thread mutex; any
  coroutine needing that lock (or that thread needing the loop)
  deadlocks the service.

``async with`` is not an acquisition here: it does not block a thread.
``obj._lock`` with an unknown receiver resolves only when exactly one
known class declares that attribute name. Callable *references* passed
to executors are deliberately **not** followed:
``pool.submit(self._work)`` runs later, on another thread, not under
the caller's locks; nor are nested defs and lambdas, which run later.
"""

from __future__ import annotations

from ..findings import Finding
from ..project import Project
from ..registry import register_rule
from .locks import _Site, lock_scans

__all__ = ["LockOrderRule"]


def _find_cycles(edges: dict) -> list:
    """Distinct simple cycles (as lock-id tuples), canonicalized."""
    graph: dict = {}
    for held, acquired in edges:
        graph.setdefault(held, set()).add(acquired)
    cycles: set = set()

    def dfs(start: str, node: str, path: list, seen: set) -> None:
        for nxt in sorted(graph.get(node, set())):
            if nxt == start:
                cycle = tuple(path)
                pivot = cycle.index(min(cycle))
                cycles.add(cycle[pivot:] + cycle[:pivot])
            elif nxt not in seen and nxt > start:
                # only explore nodes >= start: each cycle is found
                # exactly once, from its smallest member
                dfs(start, nxt, path + [nxt], seen | {nxt})

    for node in sorted(graph):
        dfs(node, node, [node], {node})
    return sorted(cycles)


@register_rule("lock-order")
class LockOrderRule:
    """Flag lock-graph cycles, re-acquisition, and await-under-lock."""

    hint = ("two threads taking the same locks in opposite orders "
            "deadlock under load, never in unit tests")

    def check(self, project: Project) -> list:
        graph = project.call_graph
        scans = lock_scans(project)
        #: (scan, call, locks acquired at the call, resolved callees)
        calls = [(scan, call, held, graph.resolve_call(scan.info, call))
                 for scan in scans for call, held in scan.calls]

        # transitive acquisition summaries over direct-call edges
        summary: dict = {}
        for scan in scans:
            summary.setdefault(scan.info.qualname, set()).update(
                scan.acquires)
        changed = True
        while changed:
            changed = False
            for scan, _call, _held, callees in calls:
                mine = summary[scan.info.qualname]
                for callee in callees:
                    extra = summary.get(callee, set()) - mine
                    if extra:
                        mine |= extra
                        changed = True

        # ordered pairs: lexical nesting + calls made while holding
        pairs: dict = {}
        for scan in scans:
            for pair, site in scan.pairs.items():
                pairs.setdefault(pair, site)
        for scan, call, held, callees in calls:
            if not held:
                continue
            acquired: set = set()
            for callee in callees:
                acquired |= summary.get(callee, set())
            dotted = scan.info.qualname.partition("::")[2]
            site = _Site(scan.info.module.path, call.lineno, f"{dotted}()")
            for lock_id in acquired:
                for held_id in held:
                    pairs.setdefault((held_id, lock_id), site)

        findings: list = []
        for cycle in _find_cycles(pairs):
            if len(cycle) == 1:
                continue  # self-loops reported as re-acquisition below
            chain = " -> ".join(cycle + (cycle[0],))
            for i, lock_id in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                site = pairs[(lock_id, nxt)]
                findings.append(Finding(
                    rule="lock-order", path=site.path, line=site.line,
                    message=(f"lock-order cycle {chain}: {site.where} "
                             f"acquires {nxt} while holding {lock_id}"),
                    hint=("pick one global acquisition order for these "
                          "locks and restructure the late taker"),
                ))
        for (held, acquired), site in sorted(
                pairs.items(), key=lambda kv: kv[1].line):
            if held == acquired:
                findings.append(Finding(
                    rule="lock-order", path=site.path, line=site.line,
                    message=(f"{site.where} acquires {acquired} while "
                             "already holding it; threading.Lock is "
                             "not reentrant"),
                    hint=("split the locked region or switch the "
                          "shared lock to RLock deliberately"),
                ))
        for scan in scans:
            dotted = scan.info.qualname.partition("::")[2]
            for line, held in scan.awaits:
                findings.append(Finding(
                    rule="lock-order", path=scan.info.module.path,
                    line=line,
                    message=(f"await while holding threading lock "
                             f"{held[-1]} in {dotted}(); the event "
                             "loop blocks behind a thread mutex"),
                    hint=("release the lock before awaiting, or use "
                          "an asyncio.Lock for loop-side exclusion"),
                ))
        findings.sort(key=lambda f: f.sort_key())
        return findings
