"""Step rules for the projected partially adaptive optimizer and its baselines.

All optimizers share one interface: step(state, groups, grads, eta_t, p_now)
-> StepOutput. The adaptive family runs through a single fused kernel; the
variants differ in the adaptivity power, whether a max-tracked second moment
is used, and whether/when the update direction is projected onto the tangent
space of the weight vector.

Update order within a step: moments and direction first, then the projection
decision (using the raw gradient and the pre-step weights), then decoupled
weight decay (skipped for projected groups by default), then the parameter
update.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ._kernels import moment_direction
from .core import (
    GradientSet,
    GroupRecord,
    HyperParams,
    OptimizerState,
    ParamGroup,
    StepRecord,
    beta1_at,
    check_grads,
)
from .geometry import (
    ProjectionDecision,
    cosine_similarity,
    project_tangent,
    projection_condition,
)

__all__ = [
    "OptimizerKind",
    "StepOutput",
    "padamp_step",
    "adamp_step",
    "padam_step",
    "adam_step",
    "amsgrad_step",
    "sgdm_step",
    "make_step",
]


class OptimizerKind(str, Enum):
    PADAMP = "padamp"
    ADAMP = "adamp"
    PADAM = "padam"
    ADAM = "adam"
    AMSGRAD = "amsgrad"
    SGDM = "sgdm"


@dataclass
class StepOutput:
    new_params: List[ParamGroup]
    record: StepRecord


def _decide_projection(
    theta: np.ndarray, grad: np.ndarray, hp: HyperParams, eta_t: float, trigger: str
) -> ProjectionDecision:
    if hp.delta == 0.0:
        return ProjectionDecision(
            trigger_value=cosine_similarity(theta, grad), threshold=0.0, projected=False
        )
    if trigger == "padamp":
        eta_for_trigger = eta_t if hp.trigger_lr_mode == "scheduled" else hp.eta0
        return projection_condition(theta, grad, hp.delta, eta_for_trigger)
    if trigger == "adamp":
        # Same condition without the learning-rate factor.
        return projection_condition(theta, grad, hp.delta, 1.0)
    raise ValueError(f"unknown trigger mode {trigger!r}")


def _lemma2_residual(m: np.ndarray, m_prev: np.ndarray, g: np.ndarray, beta1t: float) -> float:
    # Rearranged first-moment recursion: -m_t = -g_t + b/(1-b) (m_t - m_{t-1}).
    recon = g - (beta1t / (1.0 - beta1t)) * (m - m_prev)
    return float(np.linalg.norm(m - recon)) / (1.0 + float(np.linalg.norm(m)))


def _adaptive_family_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_power: float,
    use_max: bool,
    trigger: Optional[str],
) -> StepOutput:
    """Shared body for the moment-based optimizers.

    trigger is None for the never-projecting baselines, otherwise the trigger
    threshold family ("padamp" or "adamp").
    """
    groups = list(groups)
    check_grads(groups, grads)
    if eta_t <= 0:
        raise ValueError(f"eta_t must be positive, got {eta_t}")
    if not 0 < p_power <= 0.5:
        raise ValueError(f"adaptivity power must lie in (0, 1/2], got {p_power}")
    hp = state.hp
    state.t += 1
    t = state.t
    b1t = beta1_at(t, hp)
    bc1 = 1.0 - hp.beta1 ** t
    bc2 = 1.0 - hp.beta2 ** t
    power_eps = hp.eps_mode == "power"

    new_params: List[ParamGroup] = []
    group_records: Dict[str, GroupRecord] = {}
    grad_norm_sq = 0.0
    lemma2_max = 0.0
    lemma3_min = np.inf
    for grp in groups:
        name = grp.name
        g_raw = np.asarray(grads[name], dtype=np.float64)
        theta = grp.values
        gnorm = float(np.linalg.norm(g_raw))
        grad_norm_sq += gnorm * gnorm
        state.c1[name] = max(state.c1[name], gnorm)
        # Coupled decay folds wd * theta into the gradient seen by the
        # moments; telemetry and the trigger keep the raw gradient.
        if hp.wd_mode == "coupled" and hp.weight_decay > 0:
            g = g_raw + hp.weight_decay * theta
        else:
            g = g_raw
        state.m_prev[name][:] = state.m[name]

        direction = moment_direction(
            state.m[name], state.v[name], state.max_v[name], g,
            b1t, hp.beta2, bc1, bc2, hp.epsilon, p_power,
            use_max, power_eps,
        )

        if trigger is not None:
            decision = _decide_projection(theta, g_raw, hp, eta_t, trigger)
        else:
            decision = ProjectionDecision(
                trigger_value=cosine_similarity(theta, g_raw), threshold=0.0, projected=False
            )
        if decision.projected:
            q = project_tangent(theta, direction)
        else:
            q = direction

        decay = hp.weight_decay > 0 and hp.wd_mode == "decoupled" and not (
            decision.projected and hp.wd_skip_projected
        )
        base = (1.0 - eta_t * hp.weight_decay) * theta if decay else theta
        new_values = base - eta_t * q
        if not np.all(np.isfinite(new_values)):
            raise FloatingPointError(f"non-finite parameters after step in group {name!r}")
        new_params.append(ParamGroup(name, new_values))

        group_records[name] = GroupRecord(
            param_norm=float(np.linalg.norm(theta)),
            cos_sim=decision.trigger_value,
            projected=decision.projected,
            effective_step_norm=float(np.linalg.norm(new_values - theta)),
        )
        lemma2_max = max(lemma2_max, _lemma2_residual(state.m[name], state.m_prev[name], g, b1t))
        c1sq = state.c1[name] ** 2
        lemma3_min = min(lemma3_min, float(c1sq - np.max(state.v[name])))

    record = StepRecord(
        t=t,
        loss=float("nan"),
        grad_norm_sq=grad_norm_sq,
        eta_t=eta_t,
        p_t_power=p_power,
        groups=group_records,
        lemma2_residual=lemma2_max,
        lemma3_margin=float(lemma3_min),
    )
    return StepOutput(new_params=new_params, record=record)


def padamp_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Partially adaptive moment step with conditional tangent projection.

    Direction is m_hat / (v_hat + eps)**p (see HyperParams.eps_mode for the
    alternative placement); a group's step is projected when
    cos(theta, g) < delta * eta_t / sqrt(dim).
    """
    p = state.hp.p if p_now is None else p_now
    return _adaptive_family_step(state, groups, grads, eta_t, p, use_max=False,
                                 trigger="padamp")


def adamp_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Fully adaptive (p = 1/2) step with the learning-rate-free trigger delta / sqrt(dim)."""
    return _adaptive_family_step(state, groups, grads, eta_t, 0.5, use_max=False,
                                 trigger="adamp")


def padam_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Partially adaptive step over the max-tracked second moment, no projection."""
    p = state.hp.p if p_now is None else p_now
    return _adaptive_family_step(state, groups, grads, eta_t, p, use_max=True,
                                 trigger=None)


def adam_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Bias-corrected adaptive step, p = 1/2, no projection."""
    return _adaptive_family_step(state, groups, grads, eta_t, 0.5, use_max=False,
                                 trigger=None)


def amsgrad_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Adaptive step over the max-tracked (uncorrected) second moment, p = 1/2."""
    return _adaptive_family_step(state, groups, grads, eta_t, 0.5, use_max=True,
                                 trigger=None)


def sgdm_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Momentum step with undamped accumulation buf <- momentum * buf + g.

    With a constant unit gradient the buffer norm converges to
    1 / (1 - momentum). Second-moment telemetry does not apply here; the
    lemma fields are recorded as nan.
    """
    groups = list(groups)
    check_grads(groups, grads)
    if eta_t <= 0:
        raise ValueError(f"eta_t must be positive, got {eta_t}")
    hp = state.hp
    state.t += 1
    new_params: List[ParamGroup] = []
    group_records: Dict[str, GroupRecord] = {}
    grad_norm_sq = 0.0
    for grp in groups:
        name = grp.name
        g = np.asarray(grads[name], dtype=np.float64)
        theta = grp.values
        gnorm = float(np.linalg.norm(g))
        grad_norm_sq += gnorm * gnorm
        state.c1[name] = max(state.c1[name], gnorm)
        cos_raw = cosine_similarity(theta, g)
        if hp.wd_mode == "coupled" and hp.weight_decay > 0:
            g = g + hp.weight_decay * theta
        buf = state.momentum_buf[name]
        buf *= hp.momentum
        buf += g
        base = theta
        if hp.wd_mode == "decoupled" and hp.weight_decay > 0:
            base = (1.0 - eta_t * hp.weight_decay) * theta
        new_values = base - eta_t * buf
        if not np.all(np.isfinite(new_values)):
            raise FloatingPointError(f"non-finite parameters after step in group {name!r}")
        new_params.append(ParamGroup(name, new_values))
        group_records[name] = GroupRecord(
            param_norm=float(np.linalg.norm(theta)),
            cos_sim=cos_raw,
            projected=False,
            effective_step_norm=float(np.linalg.norm(new_values - theta)),
        )
    record = StepRecord(
        t=state.t,
        loss=float("nan"),
        grad_norm_sq=grad_norm_sq,
        eta_t=eta_t,
        p_t_power=float("nan"),
        groups=group_records,
        lemma2_residual=float("nan"),
        lemma3_margin=float("nan"),
    )
    return StepOutput(new_params=new_params, record=record)


_STEP_FNS: Dict[OptimizerKind, Callable] = {
    OptimizerKind.PADAMP: padamp_step,
    OptimizerKind.ADAMP: adamp_step,
    OptimizerKind.PADAM: padam_step,
    OptimizerKind.ADAM: adam_step,
    OptimizerKind.AMSGRAD: amsgrad_step,
    OptimizerKind.SGDM: sgdm_step,
}


def make_step(kind: OptimizerKind) -> Callable:
    """Step function for the given optimizer kind."""
    return _STEP_FNS[OptimizerKind(kind)]
