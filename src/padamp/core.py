"""Shared data types, hyperparameter validation, and the deterministic RNG contract.

Parameters are partitioned into named groups (one flat vector per conceptual
weight tensor); projection decisions and telemetry are per group. Optimizer
state holds the moment buffers plus the hyperparameters of one optimizer
instance. Everything here is float64 end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import norm

__all__ = [
    "ParamGroup",
    "GradientSet",
    "HyperParams",
    "OptimizerState",
    "new_state",
    "beta1_at",
    "seeded_rng",
]

# A gradient set is a mapping from group name to a dense vector shaped like
# the group's values.
GradientSet = Dict[str, np.ndarray]


@dataclass
class ParamGroup:
    """One named flat parameter vector."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError(f"group {self.name!r}: values must be a 1-d vector of dim >= 1")

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class HyperParams:
    """Hyperparameters shared by every optimizer in the family.

    ``p`` is the partial-adaptivity power in (0, 1/2]; ``delta`` scales the
    projection trigger threshold (0 disables the trigger outright, since the
    comparison is strict); ``lam`` alone sets the first-moment coefficient
    beta1_t = beta1 * lam**(t-1), so lam = 1 keeps it at beta1 on every
    step. ``eps_mode`` selects the denominator form:
    "power" gives (v_hat + eps)**p, "post" gives v_hat**p + eps.
    """

    eta0: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    lam: float = 1.0
    delta: float = 0.1
    epsilon: float = 1e-8
    p: float = 0.25
    weight_decay: float = 0.0
    momentum: float = 0.9
    eps_mode: str = "power"
    wd_mode: str = "decoupled"
    wd_skip_projected: bool = True
    trigger_lr_mode: str = "scheduled"

    def __post_init__(self):
        if not 0 < self.eta0 < np.inf:
            raise ValueError(f"eta0 must be positive and finite, got {self.eta0}")
        if not 0 < self.beta1 < 1:
            raise ValueError(f"beta1 must lie in (0, 1), got {self.beta1}")
        if not 0 < self.beta2 < 1:
            raise ValueError(f"beta2 must lie in (0, 1), got {self.beta2}")
        if not 0 < self.lam <= 1:
            raise ValueError(f"lam must lie in (0, 1], got {self.lam}")
        if not 0 <= self.delta < np.inf:
            raise ValueError(f"delta must be non-negative and finite, got {self.delta}")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 < self.p <= 0.5:
            raise ValueError(f"p must lie in (0, 1/2], got {self.p}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(
                f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.eps_mode not in ("power", "post"):
            raise ValueError(f"eps_mode must be 'power' or 'post', got {self.eps_mode!r}")
        if self.wd_mode not in ("decoupled", "coupled"):
            raise ValueError(f"wd_mode must be 'decoupled' or 'coupled', got {self.wd_mode!r}")
        if not isinstance(self.wd_skip_projected, bool):
            raise ValueError(
                f"wd_skip_projected must be a bool, got {self.wd_skip_projected!r}")
        if self.trigger_lr_mode not in ("scheduled", "base"):
            raise ValueError(
                f"trigger_lr_mode must be 'scheduled' or 'base', got {self.trigger_lr_mode!r}"
            )


@dataclass
class OptimizerState:
    """Moment buffers, step counter, and hyperparameters for one optimizer instance.

    ``t`` starts at 0 and is incremented before each update, so the first
    update uses t = 1 and the bias corrections 1 - beta1**t, 1 - beta2**t are
    nonzero. ``m``/``v`` are zero-initialized per group; sgdm keeps its
    momentum buffer in ``m``. ``max_v`` is only consumed by the max-tracking
    optimizers. ``m_prev`` holds the adaptive optimizers' previous first
    moment: each step writes the new moment into it and swaps it with ``m``,
    so the two dicts exchange their arrays every step. ``c1`` is the running
    max of observed gradient norms per group (the empirical stand-in for the
    bounded gradient constant); under coupled decay, of g + wd * theta.
    ``failed_step`` is the ``t`` of a step that raised after advancing
    ``t``, leaving the buffers part way through it; a state with one set
    refuses to step again.
    """

    hp: HyperParams
    t: int = 0
    failed_step: Optional[int] = None
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    max_v: Dict[str, np.ndarray] = field(default_factory=dict)
    c1: Dict[str, float] = field(default_factory=dict)
    m_prev: Dict[str, np.ndarray] = field(default_factory=dict)


def new_state(groups: Sequence[ParamGroup], hp: HyperParams) -> OptimizerState:
    """Zero-initialized optimizer state shape-matching the given groups."""
    groups = list(groups)
    if not groups:
        raise ValueError("group set must be non-empty")
    names = [g.name for g in groups]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate group names: {names}")
    state = OptimizerState(hp=hp)
    for g in groups:
        for buffers in (state.m, state.v, state.max_v, state.m_prev):
            buffers[g.name] = np.zeros(g.dim, dtype=np.float64)
        state.c1[g.name] = 0.0
    return state


def beta1_at(t: int, hp: HyperParams) -> float:
    """First-moment coefficient at step t: beta1 * lam**(t-1), exactly beta1 at lam = 1."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    return hp.beta1 * hp.lam ** (t - 1)


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; identical seed gives an identical stream."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def check_grads(groups: Sequence[ParamGroup],
                grads: GradientSet) -> List[Tuple[np.ndarray, float]]:
    """Validate that grads shape-match groups and are finite; return each
    group's gradient as float64 and its norm, in group order."""
    checked = []
    for g in groups:
        if g.name not in grads:
            raise ValueError(f"missing gradient for group {g.name!r}")
        arr = np.asarray(grads[g.name], dtype=np.float64)
        if arr.shape != g.values.shape:
            raise ValueError(
                f"gradient shape {arr.shape} does not match group {g.name!r} shape {g.values.shape}"
            )
        gnorm = norm(arr)
        # A finite norm means finite entries; scan only when it is not. A norm
        # is >= 0 or nan, so `< inf` is its finiteness test.
        if not gnorm < math.inf and not np.logical_and.reduce(np.isfinite(arr)):
            raise FloatingPointError(f"non-finite gradient in group {g.name!r}")
        checked.append((arr, gnorm))
    return checked
