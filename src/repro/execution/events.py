"""Channel contention ground truth for the execution engine.

The engine models each GPU as four concurrent hardware channels —
compute, NCCL, H2D, D2H. When several channels are busy at once they
slow each other down. The engine resolves this with *piecewise
integration*: at every instant, each active channel progresses at
``1 / slowdown(channel, active_set)``, where the slowdown is the
product of pairwise contention coefficients; the integrator advances to
the next channel-completion boundary and repeats.

This plays the role the real hardware plays in the paper: the
analyzer's Algorithm-1 interference model (a different, cheaper
computation with per-combination fitted factors) is *calibrated
against* this integrator via :mod:`repro.costmodel.calibration`, just
as the paper fits its factors to benchmarked co-runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.costmodel.interference import CHANNELS

__all__ = ["ContentionSpec", "corun_total_time", "make_oracle"]


def _default_pairs(pcie_only: bool) -> dict[frozenset[str], dict[str, float]]:
    """Ground-truth pairwise contention (deliberately NOT identical to the
    analyzer's seed factors — calibration must close the gap)."""
    c, g, h, d = CHANNELS
    if pcie_only:
        return {
            frozenset((c, g)): {c: 1.09, g: 1.16},
            frozenset((c, h)): {c: 1.04, h: 1.13},
            frozenset((c, d)): {c: 1.04, d: 1.12},
            frozenset((g, h)): {g: 1.62, h: 1.70},
            frozenset((g, d)): {g: 1.58, d: 1.66},
            frozenset((h, d)): {h: 1.18, d: 1.22},
        }
    return {
        frozenset((c, g)): {c: 1.10, g: 1.12},
        frozenset((c, h)): {c: 1.03, h: 1.08},
        frozenset((c, d)): {c: 1.03, d: 1.07},
        frozenset((g, h)): {g: 1.05, h: 1.10},
        frozenset((g, d)): {g: 1.05, d: 1.09},
        frozenset((h, d)): {h: 1.12, d: 1.14},
    }


@dataclass(frozen=True)
class ContentionSpec:
    """Pairwise contention coefficients with product composition.

    Immutable: the pair factors are read-only mappings, and the
    16-mask slowdown table the integrator reads is built once, here.
    """

    pair_factors: Mapping[frozenset[str], Mapping[str, float]] = field(
        default_factory=dict
    )
    max_factor: float = 3.0
    #: table[mask, ch] = slowdown of channel ch when ``mask`` is active
    slowdown_table: np.ndarray = field(init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair_factors", MappingProxyType({
            frozenset(pair): MappingProxyType(dict(factors))
            for pair, factors in self.pair_factors.items()}))
        object.__setattr__(self, "slowdown_table", _slowdown_table(self))

    @classmethod
    def default(cls, *, pcie_only: bool) -> "ContentionSpec":
        return cls(pair_factors=_default_pairs(pcie_only))

    def slowdown(self, channel: str, active: frozenset[str]) -> float:
        """Slowdown of ``channel`` given the set of active channels.

        Factors multiply in :data:`CHANNELS` order, not in the set's
        iteration order, which follows the per-process string hash seed
        and would move the product by an ulp from process to process.
        """
        factor = math.prod(
            self.pair_factors.get(frozenset((channel, other)), {})
            .get(channel, 1.0)
            for other in CHANNELS if other in active and other != channel)
        return min(factor, self.max_factor)


def _slowdown_table(spec: ContentionSpec) -> np.ndarray:
    """The read-only ``(16, 4)`` slowdown table of ``spec``."""
    table = np.ones((16, 4))
    # repro: allow[vectorization-discipline] one-time 16-mask table build at construction, not per integrated row
    for mask in range(16):
        active = frozenset(CHANNELS[i] for i in range(4) if mask >> i & 1)
        table[mask] = [spec.slowdown(ch, active) if ch in active else 1.0
                       for ch in CHANNELS]
    table.flags.writeable = False
    return table


def corun_total_time(times, spec: ContentionSpec) -> np.ndarray:
    """Piecewise-integrated completion time of co-running channels.

    ``times`` is ``(..., 4)`` of busy seconds per channel, in the order
    of :data:`repro.costmodel.interference.CHANNELS`. Returns the total
    wall time for each row.
    """
    arr = np.asarray(times, dtype=float)
    squeeze = arr.ndim == 1
    work = arr.reshape(-1, 4).copy()
    total = np.zeros(work.shape[0])
    table = spec.slowdown_table

    # repro: allow[vectorization-discipline] at most 4 channels finish, so at most 4 integration segments, each advancing every row at once
    for _ in range(4):
        active = work > 1e-15
        if not active.any():
            break
        masks = (active * (1 << np.arange(4))).sum(axis=1)
        slows = table[masks]  # (n, 4)
        with np.errstate(divide="ignore", invalid="ignore"):
            finish = np.where(active, work * slows, np.inf)
        dt = finish.min(axis=1)
        dt = np.where(np.isfinite(dt), dt, 0.0)
        rates = np.where(active, 1.0 / slows, 0.0)
        work = np.maximum(work - dt[:, None] * rates, 0.0)
        total += dt

    return total[0] if squeeze else total.reshape(arr.shape[:-1])


def make_oracle(spec: ContentionSpec):
    """Adapt the integrator to the calibration oracle signature."""

    def oracle(workloads: np.ndarray) -> np.ndarray:
        return corun_total_time(workloads, spec)

    return oracle
