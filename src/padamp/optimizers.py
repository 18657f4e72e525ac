"""Step rules for the projected partially adaptive optimizer and its baselines.

All six optimizers share one interface, step(state, groups, grads, eta_t,
p_now) -> StepOutput, and one body, _step. The body differs between them in
the direction only: sgdm takes its momentum buffer, the adaptive family the
fused moment kernel with its adaptivity power and, for padam and amsgrad, the
max-tracked second moment. padamp and adamp may then project the direction
onto the tangent space of the weight vector.

Update order within a step: coupled weight decay folded into the gradient,
moments and direction, the projection decision (using the raw gradient and
the pre-step weights), decoupled weight decay (skipped for projected groups
by default), then the parameter update. This module is the only one that
applies either decay rule. The step also owns the per-step lemma
bookkeeping: it records the lemma-2 residual and the lemma-3 margin (nan for
sgdm) and returns the gradients the moments saw, which LemmaMonitor reads.
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
from .diagnostics import check_lemma2
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
    """New parameter groups, the step's telemetry, and the gradients the
    moments saw (coupled weight decay already folded in), keyed by group."""

    new_params: List[ParamGroup]
    record: StepRecord
    grads: GradientSet


def _decide_projection(
    theta: np.ndarray, grad: np.ndarray, hp: HyperParams, eta_t: float,
    trigger: Optional[str],
) -> ProjectionDecision:
    if trigger is None or hp.delta == 0.0:
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


def _step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_power: Optional[float],
    use_max: bool = False,
    trigger: Optional[str] = None,
) -> StepOutput:
    """Shared body of all six optimizers.

    p_power is None for sgdm, whose direction is the momentum buffer and
    whose lemma fields are nan; otherwise the direction comes from the moment
    kernel. trigger is None for the never-projecting optimizers, otherwise
    the trigger threshold family ("padamp" or "adamp").
    """
    groups = list(groups)
    check_grads(groups, grads)
    if eta_t <= 0:
        raise ValueError(f"eta_t must be positive, got {eta_t}")
    adaptive = p_power is not None
    if adaptive and not 0 < p_power <= 0.5:
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
    grads_seen: GradientSet = {}
    grad_norm_sq = 0.0
    lemma2_max, lemma3_min = (0.0, np.inf) if adaptive else (np.nan, np.nan)
    for grp in groups:
        name = grp.name
        g_raw = np.asarray(grads[name], dtype=np.float64)
        theta = grp.values
        gnorm = float(np.linalg.norm(g_raw))
        grad_norm_sq += gnorm * gnorm
        state.c1[name] = max(state.c1[name], gnorm)
        # Coupled decay folds wd * theta into the gradient seen by the
        # moments; telemetry and the trigger keep the raw gradient. A step
        # that diverges through it overflows here; the finiteness check on
        # the new parameters reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            if hp.wd_mode == "coupled" and hp.weight_decay > 0:
                g = g_raw + hp.weight_decay * theta
            else:
                g = g_raw
            grads_seen[name] = g

            if adaptive:
                m = state.m[name]
                state.m_prev[name][:] = m
                direction = moment_direction(
                    m, state.v[name], state.max_v[name], g,
                    b1t, hp.beta2, bc1, bc2, hp.epsilon, p_power,
                    use_max, power_eps,
                )
                resid = check_lemma2(m, state.m_prev[name], g, b1t)
                lemma2_max = max(lemma2_max, resid / (1.0 + float(np.linalg.norm(m))))
                c1sq = state.c1[name] ** 2
                lemma3_min = min(lemma3_min, float(c1sq - np.max(state.v[name])))
            else:
                # Undamped accumulation buf <- momentum * buf + g.
                direction = state.momentum_buf[name]
                direction *= hp.momentum
                direction += g

        decision = _decide_projection(theta, g_raw, hp, eta_t, trigger)
        if decision.projected:
            q = project_tangent(theta, direction)
        else:
            q = direction

        decay = hp.weight_decay > 0 and hp.wd_mode == "decoupled" and not (
            decision.projected and hp.wd_skip_projected
        )
        # A diverging step overflows here; the finiteness check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
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

    record = StepRecord(
        t=t,
        loss=float("nan"),
        grad_norm_sq=grad_norm_sq,
        eta_t=eta_t,
        p_t_power=p_power if adaptive else float("nan"),
        groups=group_records,
        lemma2_residual=lemma2_max,
        lemma3_margin=float(lemma3_min),
    )
    return StepOutput(new_params=new_params, record=record, grads=grads_seen)


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
    return _step(state, groups, grads, eta_t, p, trigger="padamp")


def adamp_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Fully adaptive (p = 1/2) step with the learning-rate-free trigger delta / sqrt(dim)."""
    return _step(state, groups, grads, eta_t, 0.5, trigger="adamp")


def padam_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Partially adaptive step over the max-tracked second moment, no projection."""
    p = state.hp.p if p_now is None else p_now
    return _step(state, groups, grads, eta_t, p, use_max=True)


def adam_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Bias-corrected adaptive step, p = 1/2, no projection."""
    return _step(state, groups, grads, eta_t, 0.5)


def amsgrad_step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_now: Optional[float] = None,
) -> StepOutput:
    """Adaptive step over the max-tracked (uncorrected) second moment, p = 1/2."""
    return _step(state, groups, grads, eta_t, 0.5, use_max=True)


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
    return _step(state, groups, grads, eta_t, None)


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
