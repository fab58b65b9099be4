"""Mist reproduction: memory-parallelism co-optimization for LLM training.

Reproduction of *Mist: Efficient Distributed Training of Large Language
Models via Memory-Parallelism Co-Optimization* (Zhu et al., EuroSys
2025) as a pure-Python library with a discrete-event cluster simulator
standing in for the GPU testbed.

Quickstart — declare a job, solve it through the registry::

    from repro.api import TuningJob, solve

    job = TuningJob(model="gpt3-2.7b", gpu="L4", num_gpus=4,
                    global_batch=64, seq_len=2048, parallelism=0)
    report = solve(job, solver="mist")        # or "megatron", "aceso", ...
    print(report.plan.describe())
    print(f"{report.throughput:.2f} samples/s")
    saved = report.to_json()                  # JSON round-trippable

Lower-level access (the tuner directly)::

    from repro import MistTuner, get_model, make_cluster
    from repro.execution import ExecutionEngine

    model = get_model("gpt3-2.7b")
    cluster = make_cluster("L4", 1, 4)
    tuner = MistTuner(model, cluster, seq_len=2048)
    plan = tuner.search(64, parallelism=0).best_plan
    result = ExecutionEngine(cluster).run(plan, model, seq_len=2048)
    print(result.describe())

Subpackages: :mod:`repro.api` (declarative jobs + solver registry),
:mod:`repro.campaigns` (declarative evaluation matrices: executors,
resumable manifests, speedup aggregation),
:mod:`repro.symbolic` (expression engine),
:mod:`repro.hardware`, :mod:`repro.models`, :mod:`repro.costmodel`,
:mod:`repro.tracing`, :mod:`repro.execution` (the simulated cluster),
:mod:`repro.core` (analyzer + hierarchical tuner),
:mod:`repro.baselines`, :mod:`repro.evaluation`.
"""

from .core import (
    MistTuner,
    SPACE_MIST,
    SearchSpace,
    StageConfig,
    SymbolicPerformanceAnalyzer,
    TrainingPlan,
    TuningResult,
)
from .hardware import (
    ClusterSpec,
    DeviceGroup,
    GPUSpec,
    HeterogeneousCluster,
    cluster_from_dict,
    get_gpu,
    make_cluster,
)
from .models import ModelConfig, get_model, list_models
from . import api

__version__ = "1.12.0"

__all__ = [
    "ClusterSpec",
    "DeviceGroup",
    "GPUSpec",
    "HeterogeneousCluster",
    "MistTuner",
    "ModelConfig",
    "SPACE_MIST",
    "SearchSpace",
    "StageConfig",
    "SymbolicPerformanceAnalyzer",
    "TrainingPlan",
    "TuningResult",
    "__version__",
    "api",
    "cluster_from_dict",
    "get_gpu",
    "get_model",
    "list_models",
    "make_cluster",
]
