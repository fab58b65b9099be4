"""Mist's core: symbolic analyzer, hierarchical tuner, plans, objectives."""

from .analyzer import (
    FRAMEWORK_OVERHEAD_BYTES,
    PlanPrediction,
    StagePrediction,
    SymbolicPerformanceAnalyzer,
)
from .inter_stage import InterStageSolution, solve
from .intra_stage import IntraStageTuner, ParetoPoint, StageShape
from .objectives import (
    pipeline_iteration_time,
    pipeline_time_average,
    pipeline_time_uniform,
    throughput,
)
from .plan import (
    PlanValidationError,
    StageConfig,
    TrainingPlan,
    uniform_plan,
    zero_flags,
)
from .spaces import (
    INCREMENTAL_SPACES,
    NAMED_SPACES,
    SPACE_3D,
    SPACE_3D_CKPT,
    SPACE_3D_ZERO,
    SPACE_AO,
    SPACE_GO,
    SPACE_MIST,
    SPACE_MIST_NO_IMBALANCE,
    SPACE_OO,
    SPACE_WO,
    SearchSpace,
    get_space,
    log10_configurations,
    space_from_dict,
    space_ref,
    space_to_dict,
)
from .memo import GLOBAL_MENU_MEMO, MenuMemo
from .tuner import MistTuner, SearchCancelled, SearchStats, TuningResult

__all__ = [
    "GLOBAL_MENU_MEMO",
    "MenuMemo",
    "SearchStats",
    "FRAMEWORK_OVERHEAD_BYTES",
    "INCREMENTAL_SPACES",
    "NAMED_SPACES",
    "InterStageSolution",
    "IntraStageTuner",
    "MistTuner",
    "SearchCancelled",
    "ParetoPoint",
    "PlanPrediction",
    "PlanValidationError",
    "SPACE_3D",
    "SPACE_3D_CKPT",
    "SPACE_3D_ZERO",
    "SPACE_AO",
    "SPACE_GO",
    "SPACE_MIST",
    "SPACE_MIST_NO_IMBALANCE",
    "SPACE_OO",
    "SPACE_WO",
    "SearchSpace",
    "StageConfig",
    "StagePrediction",
    "StageShape",
    "SymbolicPerformanceAnalyzer",
    "TrainingPlan",
    "TuningResult",
    "get_space",
    "log10_configurations",
    "space_from_dict",
    "space_ref",
    "space_to_dict",
    "pipeline_iteration_time",
    "pipeline_time_average",
    "pipeline_time_uniform",
    "throughput",
    "solve",
    "uniform_plan",
    "zero_flags",
]
