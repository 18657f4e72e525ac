"""Step rules for the projected partially adaptive optimizer and its baselines.

The six optimizers are one rule with three settings, listed per kind in the
_KINDS table: the adaptivity power, max tracking of the second moment, and
the projection trigger. make_step(kind) returns the kind's step function,
step(state, groups, grads, eta_t, p_now=None, *, table) -> the new
parameter groups, which calls the one body, _step, with those settings. sgdm
takes its momentum buffer as the direction, the adaptive family the fused
moment kernel; padamp and adamp may then project the direction onto the
tangent space of the weight vector.

Update order within a step: coupled weight decay folded into the gradient,
moments and direction, the projection decision (using the raw gradient and
the pre-step weights), decoupled weight decay (skipped for projected groups
by default), then the parameter update. This module is the only one that
applies either decay rule.

A decorator on _step sets numpy's error state (over and invalid ignored)
for each call.

A step writes its telemetry as the next row of the diagnostics.TelemetryTable
it is given, in step_columns order, the CSV's; the caller flushes the table
and reads it as columns(). An adaptive step hands the table each group's
lemma inputs, and the table writes the eight lemma columns: the largest
lemma-2 residual and the smallest of each other lemma quantity over the
adaptive groups. sgdm's stay nan.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._kernels import moment_direction
from .core import (
    GradientSet,
    OptimizerState,
    ParamGroup,
    beta1_at,
    check_grads,
)
from .diagnostics import TelemetryTable
from .geometry import (
    ProjectionDecision,
    cosine_similarity,
    norm,
    project_tangent,
    projection_condition,
)

__all__ = [
    "OptimizerKind",
    "make_step",
]


class OptimizerKind(str, Enum):
    PADAMP = "padamp"
    ADAMP = "adamp"
    PADAM = "padam"
    ADAM = "adam"
    AMSGRAD = "amsgrad"
    SGDM = "sgdm"


# A step that diverges overflows in here, silently: the finiteness check on
# the new parameters reports it, and check_telemetry fails a lemma entry that
# is not finite. A decorator sets the state on every call in about half the
# time a with block takes.
@np.errstate(over="ignore", invalid="ignore")
def _step(
    state: OptimizerState,
    groups: Sequence[ParamGroup],
    grads: GradientSet,
    eta_t: float,
    p_power: Optional[float],
    use_max: bool,
    trigger: Optional[str],
    table: TelemetryTable,
) -> List[ParamGroup]:
    """Shared body of all six optimizers.

    p_power is None for sgdm, whose direction is the momentum buffer and
    whose lemma fields are nan; otherwise the direction comes from the moment
    kernel. trigger is None for the never-projecting optimizers, otherwise
    the trigger threshold family ("padamp" or "adamp"). The step writes its
    row to table and returns the new parameter groups.
    """
    if state.failed_step is not None:
        raise ValueError(
            f"optimizer state is part way through step {state.failed_step}, which "
            "raised; start again from a new state")
    groups = list(groups)
    checked = check_grads(groups, grads)
    if eta_t <= 0:
        raise ValueError(f"eta_t must be positive, got {eta_t}")
    adaptive = p_power is not None
    if adaptive and not 0 < p_power <= 0.5:
        raise ValueError(f"adaptivity power must lie in (0, 1/2], got {p_power}")
    hp = state.hp
    if table.eps != (hp.epsilon if adaptive else None):
        raise ValueError("an adaptive step needs a table built with eps = hp.epsilon, to "
                         f"write its lemma columns, and sgdm one without; got {table.eps}")
    step_groups = [(g.name, g.values.size) for g in groups]
    if table.groups != step_groups:
        raise ValueError(f"table groups {table.groups} are not the step's {step_groups}")
    state.t += 1
    t = state.t
    # From here a raise leaves the buffers part way through step t; the
    # mark is cleared once the step completes.
    state.failed_step = t
    b1t = beta1_at(t, hp)
    bc1 = 1.0 - hp.beta1 ** t
    bc2 = 1.0 - hp.beta2 ** t
    power_eps = hp.eps_mode == "power"
    # The trigger's learning rate; None when the step never projects.
    if trigger is None or hp.delta == 0.0:
        trigger_eta = None
    elif trigger == "adamp":
        # Same condition without the learning-rate factor.
        trigger_eta = 1.0
    else:
        trigger_eta = eta_t if hp.trigger_lr_mode == "scheduled" else hp.eta0

    new_params: List[ParamGroup] = []
    # The step's telemetry row, in step_columns order up to the lemma
    # columns, which the table writes. epoch and loss are placeholders the
    # run loop fills in.
    row = [t, 0, eta_t, p_power if adaptive else math.nan, math.nan, 0.0]
    for grp, (g_raw, gnorm) in zip(groups, checked):
        name = grp.name
        theta = grp.values
        # The record, c1, the trigger and the projection share these two.
        theta_norm = norm(theta)
        gnorm_sq = gnorm * gnorm
        # The lemma-3 margin needs C1**2. sgdm has no margin: its record
        # keeps the inf, and a diverging run aborts at the next loss. A
        # norm is >= 0 or nan, so `< inf` is its finiteness test.
        if adaptive and not gnorm_sq < math.inf:
            raise FloatingPointError(
                f"squared gradient norm of group {name!r} overflows (norm {gnorm!r})")
        row[5] += gnorm_sq
        # Coupled decay folds wd * theta into the gradient seen by the
        # moments: the gradient of f + (wd/2)||theta||^2, which C1 then
        # bounds. Telemetry and the trigger keep the raw gradient.
        if hp.wd_mode == "coupled" and hp.weight_decay > 0:
            g = g_raw + hp.weight_decay * theta
            c1 = norm(g)
            # A g that is not finite fails the new parameters' check below.
            if adaptive and c1 < math.inf and not c1 * c1 < math.inf:
                raise FloatingPointError(
                    f"squared gradient norm of group {name!r} under coupled decay "
                    f"overflows (norm {c1!r})")
        else:
            g, c1 = g_raw, gnorm
        state.c1[name] = max(state.c1[name], c1)

        if adaptive:
            # The kernel writes the new moment over the stale m_prev, and
            # the two buffers swap roles, so m_prev needs no copy.
            m_prev = state.m[name]
            m = state.m_prev[name]
            direction = moment_direction(
                m_prev, state.v[name], state.max_v[name], g,
                b1t, hp.beta2, bc1, bc2, hp.epsilon, p_power,
                use_max, power_eps, m,
            )
            state.m[name], state.m_prev[name] = m, m_prev
        else:
            # Undamped accumulation m <- momentum * m + g.
            direction = state.m[name]
            direction *= hp.momentum
            direction += g

        if trigger_eta is None:
            cos = cosine_similarity(theta, g_raw, a_norm=theta_norm, b_norm=gnorm)
            decision = ProjectionDecision(cos, 0.0, False)
        else:
            decision = projection_condition(theta, g_raw, hp.delta, trigger_eta,
                                            theta_norm=theta_norm, grad_norm=gnorm)
        if decision.projected:
            q = project_tangent(theta, direction, theta_norm=theta_norm)
        else:
            q = direction

        decay = hp.weight_decay > 0 and hp.wd_mode == "decoupled" and not (
            decision.projected and hp.wd_skip_projected
        )
        base = (1.0 - eta_t * hp.weight_decay) * theta if decay else theta
        new_values = base - eta_t * q
        step_norm = norm(new_values - theta)
        # A finite step norm means finite new values; scan only when it is not.
        if not step_norm < math.inf and not np.logical_and.reduce(
                np.isfinite(new_values)):
            raise FloatingPointError(
                f"non-finite parameters after step in group {name!r}")
        new_params.append(ParamGroup(name, new_values))
        row += (theta_norm, decision.trigger_value, decision.projected, step_norm)
        if adaptive:
            # Release the full-size temporaries before the lemmas make theirs.
            del direction, q, base
            table.add_lemmas(name, p_power, m, m_prev, state.v[name], g, theta, b1t,
                             state.c1[name], theta_norm)

    table.add_row(row)  # a full lemma block flushes here
    state.failed_step = None
    return new_params


# Each kind's settings for _step, (power, use_max, trigger). power "p" is
# p_now, else hp.p; a number is fixed; None is sgdm's momentum direction.
#   padamp:  m_hat / (v_hat + eps)**p, projected when cos(theta, g) < delta * eta / sqrt(dim)
#   adamp:   p = 1/2, projected under the learning-rate-free trigger delta / sqrt(dim)
#   padam:   partially adaptive over the max-tracked second moment, no projection
#   adam:    bias-corrected adaptive step, p = 1/2, no projection
#   amsgrad: p = 1/2 over the max-tracked (uncorrected) second moment
#   sgdm:    undamped m <- momentum * m + g, whose norm under a constant
#            unit gradient converges to 1 / (1 - momentum); lemma fields are nan
_KINDS: Dict[OptimizerKind, Tuple[object, bool, Optional[str]]] = {
    OptimizerKind.PADAMP: ("p", False, "padamp"),
    OptimizerKind.ADAMP: (0.5, False, "adamp"),
    OptimizerKind.PADAM: ("p", True, None),
    OptimizerKind.ADAM: (0.5, False, None),
    OptimizerKind.AMSGRAD: (0.5, True, None),
    OptimizerKind.SGDM: (None, False, None),
}


def _bind(kind: OptimizerKind, power, use_max: bool, trigger: Optional[str]) -> Callable:
    def step(state: OptimizerState, groups: Sequence[ParamGroup], grads: GradientSet,
             eta_t: float, p_now: Optional[float] = None, *,
             table: TelemetryTable) -> List[ParamGroup]:
        if power != "p":
            p = power
        else:
            p = state.hp.p if p_now is None else p_now
        return _step(state, groups, grads, eta_t, p, use_max, trigger, table)
    step.__name__ = step.__qualname__ = f"{kind.value}_step"
    return step


_STEP_FNS = {kind: _bind(kind, *settings) for kind, settings in _KINDS.items()}


def make_step(kind: OptimizerKind) -> Callable:
    """The kind's step(state, groups, grads, eta_t, p_now=None, *, table) ->
    new groups; the same object on every call. table is a TelemetryTable
    over the same groups, built with hp.epsilon for an adaptive kind and
    without eps for sgdm; read it with flush() and columns()."""
    return _STEP_FNS[OptimizerKind(kind)]
