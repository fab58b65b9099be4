"""Evaluation runner: tune -> execute -> compare, per workload.

Every system is measured the same way: its solver picks a plan, the
execution engine runs one iteration under that system's overlap
capability, and throughput (samples/second) is reported — mirroring the
paper's methodology where all numbers are measured on the same cluster.

Since the :mod:`repro.api` redesign this module is a thin compatibility
layer: workloads are turned into declarative
:class:`~repro.api.job.TuningJob`\\ s and dispatched through the solver
registry; the historical :class:`SystemOutcome` shape is preserved for
existing benchmarks. Multi-system comparisons go through
:mod:`repro.campaigns` — :func:`compare_systems` is a one-workload
campaign — so local and ``repro serve`` runs share one code path.

Interference models come from the committed per-fabric calibration
table (``repro/costmodel/calibration.json``), loaded once per process.
:func:`fit_calibration` is the table's generator — Algorithm 1's fit
against the engine's contention ground truth — and runs only in
``scripts/refresh_calibration.py`` and the refit guard test, never in
a solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core import SPACE_MIST, SearchSpace, TrainingPlan
from repro.core.spaces import space_ref
from repro.costmodel import (
    CalibrationResult,
    InterferenceModel,
    fit_interference_model,
)
from repro.costmodel.calibration import calibration_table, fabric, model_from_table
from repro.execution import ContentionSpec, IterationResult, make_oracle

from .workloads import TuningScale, WorkloadSpec, current_scale, scale_ref

__all__ = [
    "SystemOutcome",
    "Comparison",
    "calibrated_interference",
    "fit_calibration",
    "run_mist",
    "run_baseline",
    "run_via_service",
    "compare_systems",
]

#: deprecated runner-era system names -> registry solver names
_LEGACY_SYSTEM_ALIASES = {"uniform-heuristic": "uniform"}


def _canonical_system(system: str) -> str:
    """Map a requested system name onto its registry solver name.

    Legacy runner-era names (``"uniform-heuristic"``) keep working for
    one release with a :class:`DeprecationWarning`, mirroring the
    ``MistTuner.tune()`` policy (see ``docs/API.md``).
    """
    alias = _LEGACY_SYSTEM_ALIASES.get(system)
    if alias is None:
        return system
    warnings.warn(
        f"system name {system!r} is deprecated; use the repro.api "
        f"registry name {alias!r} (removal in v2.0)",
        DeprecationWarning, stacklevel=3,
    )
    return alias


def __getattr__(name: str):
    # BASELINE_TUNERS predates the solver registry; kept one release as
    # a lazily built shim so old callers keep working with a warning
    if name == "BASELINE_TUNERS":
        from repro.baselines import (
            AcesoTuner,
            DeepSpeedTuner,
            MegatronTuner,
            UniformHeuristicTuner,
        )

        warnings.warn(
            "BASELINE_TUNERS is deprecated; consult the repro.api solver "
            "registry (solver_registry()) instead (removal in v2.0)",
            DeprecationWarning, stacklevel=2,
        )
        return {
            "megatron": MegatronTuner,
            "deepspeed": DeepSpeedTuner,
            "aceso": AcesoTuner,
            "uniform-heuristic": UniformHeuristicTuner,
        }
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


@lru_cache(maxsize=4)
def calibrated_interference(pcie_only: bool) -> InterferenceModel:
    """Algorithm 1's committed factors for one fabric type."""
    return model_from_table(calibration_table()[fabric(pcie_only)])


def fit_calibration(pcie_only: bool) -> CalibrationResult:
    """Fit Algorithm 1's factors to the engine's contention ground truth.

    The generator of the committed table; solves never call it.
    """
    spec = ContentionSpec.default(pcie_only=pcie_only)
    return fit_interference_model(make_oracle(spec), pcie_only=pcie_only,
                                  n_samples=192)


@dataclass
class SystemOutcome:
    """One system's tuned-and-measured result on one workload.

    Local runs carry the live :class:`IterationResult`; outcomes
    fetched from a ``repro serve`` daemon only have the serialized
    ``measured`` metrics (the wire format drops runtime objects), so
    :attr:`throughput` / :attr:`found` consult both.
    """

    system: str
    plan: TrainingPlan | None
    result: IterationResult | None
    tuning_time_seconds: float
    extra: dict = field(default_factory=dict)
    #: serialized metrics (``iteration_time``/``throughput``/...) for
    #: outcomes that crossed a process boundary
    measured: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        if self.result is not None:
            return self.result.throughput
        return float(self.measured.get("throughput", 0.0))

    @property
    def found(self) -> bool:
        return self.result is not None or bool(self.measured)


@dataclass
class Comparison:
    """All systems on one workload, with speedups vs a reference."""

    workload: WorkloadSpec
    outcomes: dict[str, SystemOutcome]

    def speedup(self, system: str, reference: str = "megatron") -> float:
        for role, name in (("reference", reference), ("system", system)):
            if name not in self.outcomes:
                raise ValueError(
                    f"{role} system {name!r} is not among this "
                    f"comparison's outcomes; available: "
                    f"{sorted(self.outcomes)}")
        ref = self.outcomes[reference].throughput
        if ref <= 0:
            return float("inf") if self.outcomes[system].throughput > 0 else 0.0
        return self.outcomes[system].throughput / ref


def _outcome_from_report(system: str, report, *,
                         service_url: str | None = None) -> SystemOutcome:
    """Rebuild the historical :class:`SystemOutcome` from a SolveReport."""
    if service_url is not None:
        extra = dict(report.extra)
        extra["service_url"] = service_url
        extra["from_cache"] = report.from_cache
        return SystemOutcome(
            system=system,
            plan=report.plan,
            result=None,
            tuning_time_seconds=report.tuning_time_seconds,
            extra=extra,
            measured=dict(report.measured),
        )
    if system == "mist":
        space = report.extra.get("space", SPACE_MIST.name)
        return SystemOutcome(
            system=f"mist[{space}]",
            plan=report.plan,
            result=report.result,
            tuning_time_seconds=report.tuning_time_seconds,
            extra={
                "predicted_iteration_time": report.predicted.get(
                    "iteration_time", float("inf")),
                "configurations_evaluated": report.configurations_evaluated,
                "space": space,
            },
            measured=dict(report.measured),
        )
    return SystemOutcome(
        system=system,
        plan=report.plan,
        result=report.result,
        tuning_time_seconds=report.tuning_time_seconds,
        extra=dict(report.extra),
        measured=dict(report.measured),
    )


def run_mist(spec: WorkloadSpec, *, space: SearchSpace = SPACE_MIST,
             scale: TuningScale | None = None,
             imbalance_aware: bool | None = None,
             parallelism: int = 1) -> SystemOutcome:
    """Tune with Mist and execute the winning plan on the Mist runtime."""
    # Imported lazily: repro.api imports this module for
    # calibrated_interference, so a top-level import would be circular.
    from repro.api import TuningJob, get_solver

    scale = scale or current_scale()
    tuned_space = space
    if imbalance_aware is not None:
        tuned_space = tuned_space.with_(imbalance_aware=imbalance_aware)
    job = TuningJob.from_workload(
        spec, space=space_ref(tuned_space), scale=scale_ref(scale),
        parallelism=parallelism,
    )
    report = get_solver("mist").solve(job)
    return SystemOutcome(
        system=f"mist[{report.extra.get('space', tuned_space.name)}]",
        plan=report.plan,
        result=report.result,
        tuning_time_seconds=report.tuning_time_seconds,
        extra={
            "predicted_iteration_time": report.predicted.get(
                "iteration_time", float("inf")),
            "configurations_evaluated": report.configurations_evaluated,
            "space": report.extra.get("space", tuned_space.name),
        },
    )


def run_baseline(spec: WorkloadSpec, system: str) -> SystemOutcome:
    """Run one baseline solver end to end (registry-driven)."""
    from repro.api import TuningJob, get_solver, solver_names

    solver = _canonical_system(system)
    valid = (set(solver_names()) | set(_LEGACY_SYSTEM_ALIASES)) - {"mist"}
    if system not in valid:
        raise KeyError(
            f"unknown baseline {system!r}; options: {sorted(valid)}"
        )
    job = TuningJob.from_workload(spec, scale=scale_ref(current_scale()))
    report = get_solver(solver).solve(job)
    return SystemOutcome(
        system=system,
        plan=report.plan,
        result=report.result,
        tuning_time_seconds=report.tuning_time_seconds,
        extra=dict(report.extra),
    )


def run_via_service(spec: WorkloadSpec, system: str, service_url: str, *,
                    scale: TuningScale | None = None,
                    parallelism: int = 1,
                    timeout: float | None = None) -> SystemOutcome:
    """Solve one workload on a live ``repro serve`` daemon.

    The daemon owns the search (and its coalescing + plan cache); this
    process only submits the declarative job and reconstructs the
    outcome from the returned report. ``result`` is ``None`` — runtime
    execution objects never cross the wire — but ``measured`` carries
    the daemon-side measurements, so throughput comparisons work
    unchanged.
    """
    from repro.api import TuningJob
    from repro.service import Client

    solver = _canonical_system(system)
    job = TuningJob.from_workload(
        spec, scale=scale_ref(scale or current_scale()),
        parallelism=parallelism,
    )
    report = Client(service_url).solve(job, solver=solver, timeout=timeout)
    return _outcome_from_report(system, report, service_url=service_url)


def compare_systems(spec: WorkloadSpec,
                    systems: tuple[str, ...] = ("megatron", "deepspeed",
                                                "mist"),
                    scale: TuningScale | None = None,
                    service_url: str | None = None) -> Comparison:
    """Measure every requested system on one workload.

    A thin wrapper over :func:`repro.campaigns.run_campaign`: the
    workload and systems become a one-row campaign matrix, solved by
    the ``inline`` executor — or, with ``service_url``, by the
    ``service`` executor against that live ``repro serve`` daemon. The
    per-system jobs (and so their plan-cache fingerprints) are
    identical to what :func:`run_mist` / :func:`run_baseline` build.
    """
    from repro.campaigns import CampaignSpec, run_campaign

    scale = scale or current_scale()
    solvers = tuple(_canonical_system(system) for system in systems)
    cluster_entry = (dict(spec.cluster_dict) if spec.cluster_dict is not None
                     else {"gpu": spec.gpu_name, "num_gpus": spec.num_gpus})
    campaign = CampaignSpec(
        name=f"compare-{spec.name}",
        solvers=solvers,
        models=(spec.model_spec,),
        clusters=(cluster_entry,),
        scales=(scale_ref(scale),),
        seq_lens=(spec.seq_len,),
        global_batches=(spec.global_batch,),
        flash=spec.flash,
    )
    reports: dict[str, object] = {}
    errors: dict[str, str] = {}

    def on_event(record, report):
        if report is not None:
            reports[record["solver"]] = report
        elif record.get("error"):
            errors[record["solver"]] = record["error"]

    executor = "inline" if service_url is None else "service"
    options = {} if service_url is None else {"url": service_url}
    run_campaign(campaign, executor=executor, executor_options=options,
                 on_event=on_event)

    outcomes: dict[str, SystemOutcome] = {}
    for system, solver in zip(systems, solvers):
        report = reports.get(solver)
        if report is None:
            raise RuntimeError(
                f"system {system!r} failed on {spec.name}: "
                f"{errors.get(solver, 'no report produced')}")
        outcomes[system] = _outcome_from_report(
            system, report, service_url=service_url)
    return Comparison(workload=spec, outcomes=outcomes)
