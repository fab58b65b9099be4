"""Overlap-centric schedule template (paper Section 5.1, Figure 7).

Defines how a stage's per-phase component times combine into wall-clock
phase durations, depending on the *executing system's* overlap
capability:

* **Mist** runs the fine-grained overlapped schedule: data-parallel
  collectives, activation/weight/optimizer offload traffic and pipeline
  p2p all co-run with compute (subject to contention); tensor-parallel
  all-reduces stay on the critical path (the consuming kernel waits on
  them), as they do on real systems.
* **Megatron-style** systems overlap only the gradient-synchronization
  collectives with backward compute; everything else serializes.
* **Serial** overlaps nothing (the no-overlap ablation).

Mist's extra machinery costs a small compute overhead
(``MIST_IMPL_OVERHEAD``): with identical search spaces Mist is slightly
*slower* than Megatron-LM, exactly as the paper's Figure 13 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .events import ContentionSpec, corun_total_time

__all__ = ["PhaseComponents", "OverlapCapability", "SCHEDULES", "phase_wall_time",
           "phase_wall_times", "MIST_IMPL_OVERHEAD"]

#: relative compute overhead of Mist's orchestrated execution engine
MIST_IMPL_OVERHEAD = 0.015


@dataclass(frozen=True)
class PhaseComponents:
    """Busy seconds of one (stage, phase) pair, by resource."""

    comp: float = 0.0
    tp: float = 0.0
    dp: float = 0.0
    p2p: float = 0.0
    d2h: float = 0.0
    h2d: float = 0.0

    def scaled(self, factor: float) -> "PhaseComponents":
        return PhaseComponents(*(getattr(self, f) * factor for f in
                                 ("comp", "tp", "dp", "p2p", "d2h", "h2d")))

    def __add__(self, other: "PhaseComponents") -> "PhaseComponents":
        return PhaseComponents(*(getattr(self, f) + getattr(other, f) for f in
                                 ("comp", "tp", "dp", "p2p", "d2h", "h2d")))


@dataclass(frozen=True)
class OverlapCapability:
    """What the executing system can hide behind compute."""

    name: str
    #: DP collectives (grad sync, ZeRO gathers) overlap with compute
    overlap_dp: bool
    #: pipeline p2p transfers are asynchronous
    overlap_p2p: bool
    #: host-link offloading traffic overlaps with compute
    overlap_offload: bool
    #: constant relative compute overhead of the runtime
    impl_overhead: float = 0.0
    #: device memory the runtime itself pins beyond the common framework
    #: overhead (the paper observes Megatron-LM plans OOM under
    #: DeepSpeed, forcing it into sub-optimal configurations)
    extra_memory_bytes: float = 0.0


SCHEDULES: dict[str, OverlapCapability] = {
    # Mist: fully overlapped schedule, small orchestration overhead.
    "mist": OverlapCapability("mist", True, True, True,
                              impl_overhead=MIST_IMPL_OVERHEAD),
    # Megatron-LM: the hand-optimized reference runtime.
    "megatron": OverlapCapability("megatron", True, True, False),
    # DeepSpeed: serial offload traffic, a less tuned pipeline/kernel
    # path, and a memory-hungrier runtime (the paper measures it
    # consistently below Megatron-LM and observes its OOMs).
    "deepspeed": OverlapCapability("deepspeed", True, True, False,
                                   impl_overhead=0.03,
                                   extra_memory_bytes=1.6 * 1024**3),
    # Aceso: research prototype runtime on Megatron-like foundations.
    "aceso": OverlapCapability("aceso", True, True, False,
                               impl_overhead=0.012,
                               extra_memory_bytes=0.4 * 1024**3),
    # No-overlap ablation.
    "serial": OverlapCapability("serial", False, False, False),
}


def _split(components: PhaseComponents, capability: OverlapCapability
           ) -> tuple[list[float], float]:
    """Per-channel busy seconds that co-run, and the serial remainder."""
    comp = components.comp * (1.0 + capability.impl_overhead) + components.tp
    g2g = 0.0
    serial = 0.0
    if capability.overlap_dp:
        g2g += components.dp
    else:
        serial += components.dp
    if capability.overlap_p2p:
        g2g += components.p2p
    else:
        serial += components.p2p
    if capability.overlap_offload:
        c2g, g2c = components.h2d, components.d2h
    else:
        serial += components.h2d + components.d2h
        c2g = g2c = 0.0
    return [comp, g2g, c2g, g2c], serial


def phase_wall_times(phases: Sequence[PhaseComponents],
                     capability: OverlapCapability,
                     contention: ContentionSpec) -> list[float]:
    """Wall-clock durations of ``phases`` under ``capability``.

    TP all-reduces always serialize with compute (dependent kernels);
    overlappable components co-run through the contention integrator,
    in one call for all phases; non-overlappable ones are added serially.
    """
    split = [_split(p, capability) for p in phases]
    overlapped = corun_total_time(np.array([row for row, _ in split]),
                                  contention)
    return [float(t) + serial for t, (_, serial) in zip(overlapped, split)]


def phase_wall_time(components: PhaseComponents, capability: OverlapCapability,
                    contention: ContentionSpec) -> float:
    """Wall-clock duration of one phase under ``capability``."""
    return phase_wall_times([components], capability, contention)[0]
