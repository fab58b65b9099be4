"""Discrete-event execution engine: the reproduction's "GPU cluster".

Runs a concrete :class:`~repro.core.plan.TrainingPlan` for one training
iteration and reports measured time, throughput, per-stage memory and a
full phase timeline. All systems (Mist and the baselines) execute here;
they differ in their :class:`~repro.execution.schedule.OverlapCapability`
and, upstream, in the plans their tuners can express.

Concreteness knobs that distinguish "execution" from the analyzer's
closed-form prediction (and give Section 6.6 its nonzero error):

* channel contention resolved by piecewise integration
  (:mod:`repro.execution.events`) rather than Algorithm 1;
* offloading ratios quantized to whole layers;
* 1F1B dependencies simulated exactly, including ramp-up/drain and the
  propagation of first/last-microbatch delays across stages;
* allocator slack in the memory tracker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import StageConfig, TrainingPlan
from repro.hardware import ClusterSpec, HeterogeneousCluster
from repro.models.config import ModelConfig
from repro.symbolic import compile_expr
from repro.tracing import ALL_SYMBOLS, TracedModel, trace
from repro.tracing.symbols import hardware_env

from .events import ContentionSpec
from .memory_tracker import OOMError, StageMemoryReport, track_stage_memory
from .pipeline import PipelineResult, simulate_pipeline
from .schedule import SCHEDULES, OverlapCapability, PhaseComponents, \
    phase_wall_times

__all__ = ["ExecutionEngine", "IterationResult", "OOMError"]

_ARG_NAMES = tuple(sym.name for sym in ALL_SYMBOLS)

_COMPONENT_FIELDS = (
    "comp_fwd", "comp_bwd", "tp_fwd", "tp_bwd", "dp_fwd", "dp_bwd",
    "p2p_fwd", "p2p_bwd", "d2h_fwd", "d2h_bwd", "h2d_fwd", "h2d_bwd",
    "comp_first", "dp_first", "d2h_first", "h2d_first", "dp_last",
)


@dataclass
class IterationResult:
    """Measured outcome of one simulated training iteration."""

    plan: TrainingPlan
    system: str
    iteration_time: float
    throughput: float
    stage_memory: list[StageMemoryReport]
    pipeline: PipelineResult
    metadata: dict = field(default_factory=dict)

    @property
    def peak_memory(self) -> float:
        return max(report.peak for report in self.stage_memory)

    def describe(self) -> str:
        lines = [
            f"[{self.system}] iteration {self.iteration_time * 1e3:.1f} ms, "
            f"throughput {self.throughput:.2f} samples/s"
        ]
        for report in self.stage_memory:
            lines.append(
                f"  stage {report.stage_idx}: peak "
                f"{report.peak / 2**30:.2f} GiB "
                f"({report.utilization * 100:.0f}% of device)"
            )
        return "\n".join(lines)


def _quantize(ratio: float, layers: int) -> float:
    if layers <= 0:
        return ratio
    return round(ratio * layers) / layers


class ExecutionEngine:
    """Simulated cluster executor for training plans.

    Accepts a homogeneous :class:`ClusterSpec` or a
    :class:`~repro.hardware.HeterogeneousCluster`; on the latter every
    stage executes on its :attr:`StageConfig.device_group`'s devices —
    memory is checked against that group's GPU, kernels are priced with
    its operator database, and activations crossing a group boundary
    ride the (usually slower) inter-group link.
    """

    def __init__(self, cluster: "ClusterSpec | HeterogeneousCluster", *,
                 system: str = "mist",
                 contention: ContentionSpec | None = None):
        if system not in SCHEDULES:
            raise ValueError(
                f"unknown system {system!r}; known: {sorted(SCHEDULES)}"
            )
        if isinstance(cluster, HeterogeneousCluster) and cluster.is_homogeneous:
            cluster = cluster.groups[0].cluster
        self.cluster = cluster
        self.hetero = (cluster if isinstance(cluster, HeterogeneousCluster)
                       else None)
        self.system = system
        self.capability: OverlapCapability = SCHEDULES[system]
        if self.hetero is None:
            pcie_only = not cluster.gpu.has_nvlink
        else:
            # conservative: contention factors of the weakest fabric
            pcie_only = any(not g.gpu.has_nvlink for g in self.hetero.groups)
        self.contention = contention or ContentionSpec.default(
            pcie_only=pcie_only
        )
        self._traced_cache: dict[tuple[str, bool, str], TracedModel] = {}
        self._fn_cache: dict[tuple[str, bool, str], object] = {}

    # -- caches -----------------------------------------------------------

    def _stage_cluster(self, stage: StageConfig) -> ClusterSpec:
        """The homogeneous (sub-)cluster executing ``stage``."""
        if self.hetero is None:
            return self.cluster
        return self.hetero.group_for_stage(stage.device_group).cluster

    def _traced(self, model: ModelConfig, flash: bool,
                cluster: ClusterSpec) -> TracedModel:
        key = (model.name, flash, cluster.gpu.name)
        if key not in self._traced_cache:
            self._traced_cache[key] = trace(model, cluster.gpu, flash=flash)
        return self._traced_cache[key]

    def _components_fn(self, model: ModelConfig, flash: bool,
                       cluster: ClusterSpec):
        key = (model.name, flash, cluster.gpu.name)
        if key not in self._fn_cache:
            rt = self._traced(model, flash, cluster).runtime
            exprs = [getattr(rt, name) for name in _COMPONENT_FIELDS]
            self._fn_cache[key] = compile_expr(exprs, arg_names=_ARG_NAMES)
        return self._fn_cache[key]

    # -- execution ------------------------------------------------------------

    def run(self, plan: TrainingPlan, model: ModelConfig, *, seq_len: int,
            flash: bool = True, check_memory: bool = True) -> IterationResult:
        """Execute one iteration; raises :class:`OOMError` if a stage
        exceeds device memory (like the real cluster would)."""
        plan.validate(model, self.cluster)

        num_stages = plan.num_stages
        gacc = plan.gacc
        stage_memory: list[StageMemoryReport] = []
        for idx, stage in enumerate(plan.stages):
            gcluster = self._stage_cluster(stage)
            report = track_stage_memory(
                self._traced(model, flash, gcluster).graph, gcluster.gpu,
                stage, stage_idx=idx, num_stages=num_stages,
                inflight=plan.inflight(idx), seq_len=seq_len,
                runtime_overhead_bytes=self.capability.extra_memory_bytes,
            )
            stage_memory.append(report)
            if check_memory and not report.fits:
                raise OOMError(idx, report.peak, report.capacity)

        # Only 4 phases per stage are distinct: the first microbatch's
        # forward and the last one's backward carry the one-off extras.
        phases: list[PhaseComponents] = []
        max_p2p_lat = 0.0
        boundary = self._group_boundaries(plan)
        for idx, stage in enumerate(plan.stages):
            gcluster = self._stage_cluster(stage)
            fn = self._components_fn(model, flash, gcluster)
            env = self._stage_env(plan, idx, stage, seq_len, gcluster,
                                  crosses_groups=boundary[idx])
            values = [float(np.asarray(v).reshape(-1)[0]) for v in fn(**env)]
            comp = dict(zip(_COMPONENT_FIELDS, values))

            fwd = PhaseComponents(
                comp=comp["comp_fwd"], tp=comp["tp_fwd"], dp=comp["dp_fwd"],
                p2p=comp["p2p_fwd"], d2h=comp["d2h_fwd"], h2d=comp["h2d_fwd"],
            )
            bwd = PhaseComponents(
                comp=comp["comp_bwd"], tp=comp["tp_bwd"], dp=comp["dp_bwd"],
                p2p=comp["p2p_bwd"], d2h=comp["d2h_bwd"], h2d=comp["h2d_bwd"],
            )
            first_extra = PhaseComponents(
                comp=comp["comp_first"], dp=comp["dp_first"],
                d2h=comp["d2h_first"], h2d=comp["h2d_first"],
            )
            last_extra = PhaseComponents(dp=comp["dp_last"])
            phases += [fwd + first_extra, fwd, bwd, bwd + last_extra]
            max_p2p_lat = max(max_p2p_lat, float(env["p2p_lat"][0]))

        times = phase_wall_times(phases, self.capability, self.contention)
        fwd_times: list[list[float]] = []
        bwd_times: list[list[float]] = []
        for idx in range(num_stages):
            first_fwd, fwd_k, bwd_k, last_bwd = times[4 * idx:4 * idx + 4]
            fwd_times.append([first_fwd] + [fwd_k] * (gacc - 1))
            bwd_times.append([bwd_k] * (gacc - 1) + [last_bwd])

        pipeline = simulate_pipeline(fwd_times, bwd_times,
                                     p2p_delay=max_p2p_lat)
        iteration_time = pipeline.total_time
        return IterationResult(
            plan=plan,
            system=self.system,
            iteration_time=iteration_time,
            throughput=plan.global_batch / iteration_time,
            stage_memory=stage_memory,
            pipeline=pipeline,
            metadata={"seq_len": seq_len, "flash": flash,
                      "model": model.name},
        )

    # -- helpers ----------------------------------------------------------------

    def _group_boundaries(self, plan: TrainingPlan) -> list[bool]:
        """Per stage: does its pipeline p2p cross a device-group edge?"""
        flags = [False] * plan.num_stages
        if self.hetero is None:
            return flags
        for i in range(plan.num_stages - 1):
            if (plan.stages[i].device_group
                    != plan.stages[i + 1].device_group):
                flags[i] = flags[i + 1] = True
        return flags

    def _stage_env(self, plan: TrainingPlan, idx: int, stage: StageConfig,
                   seq_len: int, cluster: ClusterSpec | None = None, *,
                   crosses_groups: bool = False) -> dict:
        cluster = cluster if cluster is not None else self.cluster
        z1, z2, z3 = stage.zero_flags
        env = {
            "b": stage.microbatch, "s": seq_len,
            "tp": stage.tp, "dp": stage.dp,
            "l": stage.layers, "ckpt": stage.ckpt,
            "z1": z1, "z2": z2, "z3": z3,
            # execution quantizes offload ratios to whole layers
            "wo": _quantize(stage.wo, stage.layers),
            "go": _quantize(stage.go, stage.layers),
            "oo": _quantize(stage.oo, stage.layers),
            "ao": _quantize(stage.ao, stage.layers),
            "gacc": plan.gacc, "inflight": plan.inflight(idx),
            "has_pre": int(idx == 0),
            "has_post": int(idx == plan.num_stages - 1),
        }
        env.update(hardware_env(cluster, stage.dp, stage.tp))
        if crosses_groups and self.hetero is not None:
            # activations to/from an adjacent stage on another device
            # group ride the inter-group link
            env["p2p_bw"] = np.minimum(env["p2p_bw"],
                                       self.hetero.inter_group_bandwidth)
            env["p2p_lat"] = np.maximum(env["p2p_lat"],
                                        self.hetero.inter_group_latency)
        return env
