"""Keyed memoization of intra-stage tuning subproblems.

The tuner's search (:meth:`repro.core.tuner.MistTuner.search`)
evaluates many *stage-cost subproblems*: "the Pareto
menu of one stage shape (device group, GPU count, gradient-accumulation
steps, in-flight microbatches, pre/post flags, p2p clamps) over a given
layer-count range". Identical subproblems recur

* across heterogeneous stage -> device-group assignments (different
  assignments share slots),
* across repeated searches of the same tuner (the serial-then-parallel
  fig. 16 re-run, ``repro serve`` solving job variants),
* across the parallel (S, G) fan-out workers, which all share one memo.

:class:`MenuMemo` is a thread-safe LRU keyed by the full subproblem
fingerprint. Entries store the menus *plus* the evaluation counters the
fresh computation produced, so a memo hit replays the counters and
``TuningResult.configurations_evaluated`` stays deterministic no matter
how warm the memo is — only the hit/miss telemetry differs.

The module-level :data:`GLOBAL_MENU_MEMO` is the default shared
instance (bounded; tune with ``REPRO_MENU_MEMO_SIZE``). Menus are pure
functions of their key, so sharing it process-wide is safe: a hit
returns bit-identical menus to a fresh computation.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["GLOBAL_MENU_MEMO", "MemoEntry", "MenuMemo"]

_DEFAULT_MAXSIZE = 4096


@dataclass(frozen=True)
class MemoEntry:
    """One memoized subproblem: menus + the counters that built them."""

    #: ``{layer_count: [ParetoPoint, ...]}`` as returned by
    #: :meth:`repro.core.intra_stage.IntraStageTuner.tune`
    menus: dict
    #: configurations enumerated for these menus (pre-prefilter)
    evaluated: int
    #: configurations the symbolic memory prefilter rejected
    prefiltered: int


class MenuMemo:
    """Thread-safe LRU cache of :class:`MemoEntry` by subproblem key.

    Lookups never block computation: concurrent misses on the same key
    may compute the entry twice, but both computations are pure and
    produce identical values, so the last store wins harmlessly.
    """

    def __init__(self, maxsize: int | None = None):
        if maxsize is None:
            maxsize = int(os.environ.get("REPRO_MENU_MEMO_SIZE",
                                         _DEFAULT_MAXSIZE))
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, MemoEntry]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def lookup(self, key: tuple) -> MemoEntry | None:
        """Return the entry for ``key`` (refreshing LRU order) or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def store(self, key: tuple, entry: MemoEntry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses


#: default process-wide memo shared by every tuner's pruned search
GLOBAL_MENU_MEMO = MenuMemo()
