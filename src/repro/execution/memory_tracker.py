"""Simulated per-stage memory accounting with OOM detection.

The engine's memory view is deliberately *more concrete* than the
analyzer's symbolic model:

* offloading ratios quantize to whole layers (a real runtime offloads
  tensors, not fractions of tensors);
* an allocator-slack factor models fragmentation;
* the in-flight microbatch count comes from the executed 1F1B schedule.

These differences are what make the Section 6.6 prediction-accuracy
experiment meaningful — the analyzer is compared against this tracker,
as the paper compares against measured memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware import GPUSpec
from repro.models.graph import ModelGraph
from repro.symbolic import evaluate
from repro.tracing.liveness import backward_transient, forward_transient
from repro.tracing.memory import ALLOCATOR_SLACK, FRAMEWORK_OVERHEAD_BYTES

from ..core.plan import StageConfig

__all__ = ["OOMError", "StageMemoryReport", "track_stage_memory",
           "ALLOCATOR_SLACK"]

FP16_BYTES = 2
GRAD_BYTES = 2
OPT_BYTES = 12


class OOMError(RuntimeError):
    """The simulated stage exceeds device memory."""

    def __init__(self, stage_idx: int, required: float, capacity: float):
        self.stage_idx = stage_idx
        self.required = required
        self.capacity = capacity
        super().__init__(
            f"stage {stage_idx}: needs {required / 2**30:.2f} GiB, device "
            f"has {capacity / 2**30:.2f} GiB usable"
        )


@dataclass
class StageMemoryReport:
    """Peak memory breakdown of one executed stage (bytes)."""

    stage_idx: int
    peak: float
    params: float
    grads: float
    opt_states: float
    activations: float
    transient: float
    capacity: float

    @property
    def fits(self) -> bool:
        return self.peak <= self.capacity

    @property
    def utilization(self) -> float:
        return self.peak / self.capacity


def _quantize_ratio(ratio: float, layers: int) -> float:
    """Round an offload ratio to whole layers (ratio of ``layers``)."""
    if layers <= 0:
        return ratio
    return round(ratio * layers) / layers


def _terms(graph: ModelGraph, b: int, s: int, tp: int) -> dict[str, float]:
    """The ``(b, s, tp)``-dependent memory terms of ``graph``, evaluated
    once per key and memoized on the graph."""
    cache = graph.memo.setdefault(__name__, {})
    key = (b, s, tp)
    if key not in cache:
        exprs = {"boundary": graph.boundary_activation_bytes,
                 "block_ckpt": graph.block.ckpt_saved_bytes()}
        for part in ("block", "pre", "post"):
            layer = getattr(graph, part)
            exprs.update({
                f"{part}_params": layer.param_count,
                f"{part}_saved": layer.saved_activation_bytes(),
                f"{part}_fwd": forward_transient(layer),
                f"{part}_bwd": backward_transient(layer),
            })
        env = {"b": b, "s": s, "tp": tp}
        cache[key] = {name: float(evaluate(expr, env))
                      for name, expr in exprs.items()}
    return cache[key]


def track_stage_memory(graph: ModelGraph, gpu: GPUSpec, stage: StageConfig,
                       *, stage_idx: int, num_stages: int, inflight: int,
                       seq_len: int,
                       runtime_overhead_bytes: float = 0.0) -> StageMemoryReport:
    """Account peak memory of one stage under the executed schedule.

    ``runtime_overhead_bytes`` is extra memory pinned by the executing
    system's runtime (beyond the common framework overhead).
    """
    terms = _terms(graph, stage.microbatch, seq_len, stage.tp)
    has_pre = stage_idx == 0
    has_post = stage_idx == num_stages - 1

    # -- parameter/grad/optimizer state bytes on this rank -------------------
    block_params = terms["block_params"]
    param_elems = stage.layers * block_params
    if has_pre:
        param_elems += terms["pre_params"]
    if has_post:
        param_elems += terms["post_params"]

    z1, z2, z3 = stage.zero_flags
    dp = stage.dp
    wo = _quantize_ratio(stage.wo, stage.layers)
    go = _quantize_ratio(stage.go, stage.layers)
    oo = _quantize_ratio(stage.oo, stage.layers)
    ao = _quantize_ratio(stage.ao, stage.layers)

    p16 = FP16_BYTES * param_elems
    g16 = GRAD_BYTES * param_elems
    o32 = OPT_BYTES * param_elems
    z3_frac = 1.0 / dp if z3 else 1.0
    z2_frac = 1.0 / dp if z2 else 1.0
    z1_frac = 1.0 / dp if z1 else 1.0

    block_p16 = FP16_BYTES * block_params
    params_buf = (2 * block_p16) if (z3 or wo > 0) else 0.0
    grads_buf = (2 * GRAD_BYTES * block_params) if (z2 or go > 0) else 0.0
    opt_buf = (2 * OPT_BYTES * block_params * z1_frac) if oo > 0 else 0.0

    params = p16 * z3_frac * (1 - wo) + params_buf
    grads = g16 * z2_frac * (1 - go) + grads_buf
    opt_states = o32 * z1_frac * (1 - oo) + opt_buf

    # -- activations -----------------------------------------------------------
    saved_full, saved_ckpt = terms["block_saved"], terms["block_ckpt"]
    saved_block = (stage.layers - stage.ckpt) * saved_full \
        + stage.ckpt * saved_ckpt
    saved_edges = 0.0
    if has_pre:
        saved_edges += terms["pre_saved"]
    if has_post:
        saved_edges += terms["post_saved"]
    activations = inflight * ((1 - ao) * saved_block + saved_edges) \
        + 2 * terms["boundary"]

    # -- transients --------------------------------------------------------------
    t_fwd, t_bwd = terms["block_fwd"], terms["block_bwd"]
    if stage.ckpt > 0:
        t_bwd += saved_full - saved_ckpt
    if has_pre:
        t_fwd = max(t_fwd, terms["pre_fwd"])
        t_bwd = max(t_bwd, terms["pre_bwd"])
    if has_post:
        t_fwd = max(t_fwd, terms["post_fwd"])
        t_bwd = max(t_bwd, terms["post_bwd"])
    transient = max(t_fwd, t_bwd)

    # Fragmentation slack applies to the churning allocations
    # (activations/transients); persistent state buffers pack tightly.
    states = params + grads + opt_states
    peak = states + (activations + transient) * (1.0 + ALLOCATOR_SLACK)
    return StageMemoryReport(
        stage_idx=stage_idx,
        peak=peak,
        params=params,
        grads=grads,
        opt_states=opt_states,
        activations=activations,
        transient=transient,
        capacity=(gpu.usable_memory_bytes - FRAMEWORK_OVERHEAD_BYTES
                  - runtime_overhead_bytes),
    )
