"""Partially adaptive momentum optimization with conditional tangent projection.

The optimizer scales Adam-style moment estimates by an adjustable power
p in (0, 1/2] of the second moment and, per parameter group, projects the
update onto the tangent space of the current weights whenever the
gradient is nearly orthogonal to them (the signature of scale-invariant
weights). Baselines, analytic and synthetic-data objectives, a run
harness with CSV telemetry, and executable checks of the supporting
bounds live in the submodules.
"""

from .core import (
    GroupRecord,
    HyperParams,
    OptimizerState,
    ParamGroup,
    StepRecord,
    beta1_at,
    new_state,
)
from .diagnostics import (
    ConvergenceTrace,
    DiagnosticsReport,
    NormGrowthTrace,
    check_lemma2,
    momentum_norm_ratio_limit,
    simulate_norm_growth,
    track_convergence,
    validate_schedule,
)
from .geometry import cosine_similarity, project_tangent, projection_condition
from .harness import (
    ExperimentConfig,
    LRSchedule,
    PSchedule,
    RunResult,
    build_config,
    build_objective,
    run,
    schedule_lr,
    schedule_p,
    sweep,
    table1_defaults,
)
from .objectives import (
    Objective,
    SyntheticDataset,
    finite_difference_grad,
    logistic_regression,
    quadratic,
    rosenbrock,
    scale_invariant_objective,
    tiny_mlp,
)
from .optimizers import (
    OptimizerKind,
    StepOutput,
    adam_step,
    adamp_step,
    amsgrad_step,
    make_step,
    padam_step,
    padamp_step,
    sgdm_step,
)

__version__ = "0.1.0"

__all__ = [
    "GroupRecord",
    "HyperParams",
    "OptimizerState",
    "ParamGroup",
    "StepRecord",
    "beta1_at",
    "new_state",
    "ConvergenceTrace",
    "DiagnosticsReport",
    "NormGrowthTrace",
    "check_lemma2",
    "momentum_norm_ratio_limit",
    "simulate_norm_growth",
    "track_convergence",
    "validate_schedule",
    "cosine_similarity",
    "project_tangent",
    "projection_condition",
    "ExperimentConfig",
    "LRSchedule",
    "PSchedule",
    "RunResult",
    "build_config",
    "build_objective",
    "run",
    "schedule_lr",
    "schedule_p",
    "sweep",
    "table1_defaults",
    "Objective",
    "SyntheticDataset",
    "finite_difference_grad",
    "logistic_regression",
    "quadratic",
    "rosenbrock",
    "scale_invariant_objective",
    "tiny_mlp",
    "OptimizerKind",
    "StepOutput",
    "adam_step",
    "adamp_step",
    "amsgrad_step",
    "make_step",
    "padam_step",
    "padamp_step",
    "sgdm_step",
    "__version__",
]
