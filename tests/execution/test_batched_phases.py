"""Differential test: the engine's batched phase pricing against the
per-microbatch reference loop it replaced.

``ExecutionEngine.run`` prices the 4 distinct phases of every stage in
one contention-integration call and reads memoized memory terms. The
reference below prices each of the ``2 x gacc`` phases of a stage on its
own through :func:`phase_wall_time` and tracks memory on a graph copy
whose memo is empty, so every term is evaluated afresh. Both must agree
bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.plan import StageConfig, TrainingPlan, uniform_plan
from repro.execution import (
    SCHEDULES,
    ExecutionEngine,
    OOMError,
    PhaseComponents,
    phase_wall_time,
    simulate_pipeline,
    track_stage_memory,
)
from repro.execution.engine import _COMPONENT_FIELDS
from repro.hardware import DeviceGroup, HeterogeneousCluster, make_cluster
from repro.models import get_model

MODEL = get_model("gpt3-1.3b")
SEQ_LEN = 2048


def reference_run(engine: ExecutionEngine, plan: TrainingPlan, *,
                  check_memory: bool = True):
    """The per-microbatch engine loop: ``(iteration_time, throughput,
    stage_memory, pipeline)``."""
    num_stages = plan.num_stages
    gacc = plan.gacc
    stage_memory = []
    fwd_times: list[list[float]] = []
    bwd_times: list[list[float]] = []
    max_p2p_lat = 0.0
    boundary = engine._group_boundaries(plan)
    for idx, stage in enumerate(plan.stages):
        gcluster = engine._stage_cluster(stage)
        traced = engine._traced(MODEL, True, gcluster)
        fn = engine._components_fn(MODEL, True, gcluster)
        report = track_stage_memory(
            dataclasses.replace(traced.graph), gcluster.gpu, stage,
            stage_idx=idx, num_stages=num_stages,
            inflight=plan.inflight(idx), seq_len=SEQ_LEN,
            runtime_overhead_bytes=engine.capability.extra_memory_bytes,
        )
        stage_memory.append(report)
        if check_memory and not report.fits:
            raise OOMError(idx, report.peak, report.capacity)

        env = engine._stage_env(plan, idx, stage, SEQ_LEN, gcluster,
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

        stage_fwd = []
        stage_bwd = []
        for k in range(gacc):
            fwd_k = fwd + first_extra if k == 0 else fwd
            bwd_k = bwd + last_extra if k == gacc - 1 else bwd
            stage_fwd.append(phase_wall_time(fwd_k, engine.capability,
                                             engine.contention))
            stage_bwd.append(phase_wall_time(bwd_k, engine.capability,
                                             engine.contention))
        fwd_times.append(stage_fwd)
        bwd_times.append(stage_bwd)
        max_p2p_lat = max(max_p2p_lat, float(env["p2p_lat"][0]))

    pipeline = simulate_pipeline(fwd_times, bwd_times, p2p_delay=max_p2p_lat)
    return (pipeline.total_time, plan.global_batch / pipeline.total_time,
            stage_memory, pipeline)


def mixed() -> HeterogeneousCluster:
    return HeterogeneousCluster(groups=(
        DeviceGroup("a100", make_cluster("A100-40GB", 1, 2)),
        DeviceGroup("l4", make_cluster("L4", 1, 2)),
    ))


def _uniform(cluster, **kwargs):
    return uniform_plan(MODEL, cluster, **kwargs)


def _offloaded(gacc: int) -> TrainingPlan:
    """Two stages with ZeRO and every offload stream active."""
    stage = StageConfig(layers=12, microbatch=16 // (2 * gacc), dp=2, tp=1,
                        zero=2, ckpt=6, wo=0.5, go=0.25, oo=0.5, ao=0.5)
    return TrainingPlan(global_batch=16, gacc=gacc, stages=(stage, stage))


def _cross_group(gacc: int) -> TrainingPlan:
    """One stage per device group: the p2p between them crosses groups."""
    return TrainingPlan(global_batch=16, gacc=gacc, stages=(
        StageConfig(layers=12, microbatch=16 // gacc, dp=1, tp=2, ckpt=12,
                    device_group="a100"),
        StageConfig(layers=12, microbatch=16 // gacc, dp=1, tp=2, ckpt=12,
                    wo=0.5, device_group="l4"),
    ))


L4 = make_cluster("L4", 1, 4)
A100 = make_cluster("A100-40GB", 1, 4)

#: (id, cluster, plan); every plan fits its devices
CASES = []
for _gacc in (1, 2, 8):
    CASES += [
        (f"l4-pp2-tp2-g{_gacc}", L4, _uniform(
            L4, global_batch=16, gacc=_gacc, num_stages=2, dp=1, tp=2,
            ckpt_all=True)),
        (f"l4-pp4-g{_gacc}", L4, _uniform(
            L4, global_batch=16, gacc=_gacc, num_stages=4, dp=1, tp=1,
            ckpt_all=True)),
        (f"l4-offload-g{_gacc}", L4, _offloaded(_gacc)),
        (f"a100-pp2-dp2-g{_gacc}", A100, _uniform(
            A100, global_batch=16, gacc=_gacc, num_stages=2, dp=2, tp=1,
            zero=1, ckpt_all=True)),
        (f"a100-offload-g{_gacc}", A100, _offloaded(_gacc)),
        (f"hetero-g{_gacc}", mixed(), _cross_group(_gacc)),
    ]
CASES.append(("l4-pp4-g16", L4, _uniform(
    L4, global_batch=64, gacc=16, num_stages=4, dp=1, tp=1, ckpt_all=True)))

#: plans that exceed device memory on some stage
OOM_CASES = [
    ("l4-no-ckpt", L4, _uniform(L4, global_batch=64, gacc=1, num_stages=2,
                                dp=2, tp=1)),
    ("l4-dp4", L4, _uniform(L4, global_batch=64, gacc=2, num_stages=1,
                            dp=4, tp=1)),
    ("hetero-l4-stage", mixed(), TrainingPlan(global_batch=16, gacc=1, stages=(
        StageConfig(layers=12, microbatch=8, dp=2, tp=1, device_group="a100"),
        StageConfig(layers=12, microbatch=8, dp=2, tp=1, device_group="l4"),
    ))),
]


def _assert_same(result, expected):
    iteration_time, throughput, stage_memory, pipeline = expected
    assert result.iteration_time == iteration_time
    assert result.throughput == throughput
    assert ([dataclasses.astuple(r) for r in result.stage_memory]
            == [dataclasses.astuple(r) for r in stage_memory])
    assert result.pipeline.timeline == pipeline.timeline
    assert result.pipeline.stage_busy == pipeline.stage_busy


@pytest.mark.parametrize("system", sorted(SCHEDULES))
@pytest.mark.parametrize("cluster,plan", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_batched_matches_per_microbatch_reference(system, cluster, plan):
    engine = ExecutionEngine(cluster, system=system)
    expected = reference_run(engine, plan)
    _assert_same(engine.run(plan, MODEL, seq_len=SEQ_LEN), expected)
    # a second run reads the memoized memory terms
    _assert_same(engine.run(plan, MODEL, seq_len=SEQ_LEN), expected)


@pytest.mark.parametrize("system", sorted(SCHEDULES))
@pytest.mark.parametrize("cluster,plan", [c[1:] for c in OOM_CASES],
                         ids=[c[0] for c in OOM_CASES])
def test_oom_plans_raise_the_same_error(system, cluster, plan):
    engine = ExecutionEngine(cluster, system=system)
    with pytest.raises(OOMError) as expected:
        reference_run(engine, plan)
    with pytest.raises(OOMError) as got:
        engine.run(plan, MODEL, seq_len=SEQ_LEN)
    assert ((got.value.stage_idx, got.value.required, got.value.capacity)
            == (expected.value.stage_idx, expected.value.required,
                expected.value.capacity))
    # unchecked, the over-budget plan still simulates identically
    _assert_same(engine.run(plan, MODEL, seq_len=SEQ_LEN,
                            check_memory=False),
                 reference_run(engine, plan, check_memory=False))


def test_cases_cover_the_required_shapes():
    gaccs = {plan.gacc for _, _, plan in CASES}
    assert {1, 2} <= gaccs and max(gaccs) >= 8
    assert any(isinstance(c, HeterogeneousCluster) for _, c, _ in CASES)
    assert {c.gpu.has_nvlink for _, c, _ in CASES
            if not isinstance(c, HeterogeneousCluster)} == {True, False}


@pytest.mark.parametrize("cluster", [L4, A100], ids=["l4", "a100"])
def test_memoized_terms_do_not_leak_between_plans(cluster):
    """One engine runs every plan: plans differing only in ``tp`` or
    ``b`` must not read each other's memory terms."""
    engine = ExecutionEngine(cluster, system="mist")
    for _, plan_cluster, plan in CASES:
        if plan_cluster is cluster:
            _assert_same(engine.run(plan, MODEL, seq_len=SEQ_LEN),
                         reference_run(engine, plan))
