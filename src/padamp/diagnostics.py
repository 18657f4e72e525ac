"""Executable checks of the optimizer's supporting math.

Covers: the norm-growth gap between plain and momentum descent, the
first-moment rearrangement identity, the second-moment and denominator
bounds (with the empirical running gradient bound C1), learning-rate
schedule assumptions, and the running-min convergence tracker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ._kernels import norm_growth_arrays
from .core import OptimizerState

__all__ = [
    "NormGrowthTrace",
    "ConvergenceTrace",
    "ScheduleVerdict",
    "DiagnosticsReport",
    "LemmaMonitor",
    "simulate_norm_growth",
    "check_lemma2",
    "validate_schedule",
    "track_convergence",
    "momentum_norm_ratio_limit",
]


@dataclass(frozen=True)
class NormGrowthTrace:
    """One step of the two squared-norm recursions and their growth ratio."""

    t: int
    norm_sq_gd: float
    norm_sq_gdm: float
    ratio: float


def momentum_norm_ratio_limit(beta: float) -> float:
    """Asymptotic (momentum growth) / (plain growth) ratio: 1 + 2 beta / (1 - beta)."""
    return 1.0 + 2.0 * beta / (1.0 - beta)


def simulate_norm_growth(
    update_norms_sq: Sequence[float],
    beta: float,
    eta: float,
    theta0_norm_sq: float,
) -> List[NormGrowthTrace]:
    """Iterate both norm recursions exactly and report the growth ratio per step.

    Plain descent adds eta^2 u_t per step; the momentum recursion additionally
    adds 2 eta^2 sum_{k<t} beta^(t-k) u_k. The ratio
    (gdm_t - theta0) / (gd_t - theta0) tends to 1 + 2 beta / (1 - beta) when
    the update norms have finite nonzero sum. beta = 0 is allowed and gives
    ratio exactly 1.
    """
    u = np.asarray(update_norms_sq, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("update_norms_sq must be a non-empty 1-d sequence")
    if np.any(u < 0):
        raise ValueError("update norms must be non-negative")
    if not 0 <= beta < 1:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if float(u.sum()) == 0.0:
        raise ValueError("total update norm is zero; growth ratio undefined")
    gd, gdm = norm_growth_arrays(u, beta, eta, theta0_norm_sq)
    grown_gd = gd[1:] - theta0_norm_sq
    grown_gdm = gdm[1:] - theta0_norm_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(grown_gd > 0, grown_gdm / grown_gd, np.nan)
    return [
        NormGrowthTrace(t=i + 1, norm_sq_gd=float(gd[i + 1]),
                        norm_sq_gdm=float(gdm[i + 1]), ratio=float(ratio[i]))
        for i in range(u.size)
    ]


def check_lemma2(m_t: np.ndarray, m_prev: np.ndarray, g_t: np.ndarray,
                 beta1t: float) -> float:
    """Residual of the rearranged moment recursion.

    m_t = b m_prev + (1-b) g_t rearranges to
    -m_t = -g_t + b/(1-b) (m_t - m_prev); returns the norm of the difference
    between the two sides, which is pure rounding for consistent inputs.
    b = 0 (a geometric beta1,t schedule after underflow) leaves m_t = g_t.
    """
    if not 0 <= beta1t < 1:
        raise ValueError(f"beta1t must lie in [0, 1), got {beta1t}")
    m_t = np.asarray(m_t, dtype=np.float64)
    m_prev = np.asarray(m_prev, dtype=np.float64)
    g_t = np.asarray(g_t, dtype=np.float64)
    rhs = -g_t + (beta1t / (1.0 - beta1t)) * (m_t - m_prev)
    return float(np.linalg.norm(-m_t - rhs))


def _bound_slacks(
    m: np.ndarray,
    m_prev: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    c1: float,
    eps: float,
    p: float,
    theta: np.ndarray,
    theta_norm: float,
) -> Dict[str, float]:
    """Per-step slacks of the second-moment/denominator/update bounds.

    Uses the uncorrected buffers throughout. At theta = 0, which has no
    radial direction, the radial bound is checked against the norm of the
    preconditioned moment, which dominates the inner product with any unit
    vector. The lemma-3 upper margin is the step's own record.
    """
    denom = (v + eps) ** p
    inv = 1.0 / denom
    lo = 1.0 / (c1 * c1 + eps) ** p
    hi = 1.0 / eps ** p
    slacks = {
        "lemma3_lower": float(np.min(v)),
        "lemma4_lower": float(np.min(inv) - lo),
        "lemma4_upper": float(hi - np.max(inv)),
    }
    pre_m = m / denom
    if theta_norm > 0:
        radial = float(theta @ pre_m) / theta_norm
    else:
        radial = float(np.linalg.norm(pre_m))
    slacks["lemma5_radial"] = c1 / eps ** p - radial
    slacks["lemma5_precond_sq"] = (c1 * c1) / eps ** (2 * p) - float(
        np.sum((g * inv) ** 2)
    )
    slacks["lemma5_moment_diff"] = 2.0 * c1 * c1 / eps ** p - float(
        g @ ((m - m_prev) * inv)
    )
    return slacks


_SLACK_KEYS = (
    "lemma3_lower", "lemma4_lower", "lemma4_upper",
    "lemma5_radial", "lemma5_precond_sq", "lemma5_moment_diff",
)


class LemmaMonitor:
    """Tracks the minimum lemma-3/4/5 bound slacks of a run live.

    Feed it once per optimizer step with the pre-step parameter groups and
    the step's StepOutput. The step records the lemma-2 residual and the
    lemma-3 upper margin itself; the monitor adds the remaining slacks from
    the post-step moments, the gradients the moments saw and the recorded
    parameter norms.
    """

    def __init__(self):
        self.min_slacks: Dict[str, float] = {k: np.inf for k in _SLACK_KEYS}
        self.steps = 0

    def update(self, state: OptimizerState, groups, out) -> None:
        hp = state.hp
        p_now = out.record.p_t_power
        for grp in groups:
            name = grp.name
            slacks = _bound_slacks(
                state.m[name], state.m_prev[name], state.v[name], out.grads[name],
                state.c1[name], hp.epsilon, p_now, grp.values,
                out.record.groups[name].param_norm,
            )
            for k, s in slacks.items():
                self.min_slacks[k] = min(self.min_slacks[k], s)
        self.steps += 1


@dataclass(frozen=True)
class ScheduleVerdict:
    family: str
    satisfies_assumptions: bool
    non_increasing: bool
    notes: str


def validate_schedule(family: str, c: float, a: Optional[float] = None) -> ScheduleVerdict:
    """Check a learning-rate family against the step-size series assumptions.

    Power law c/t^a needs 1/2 < a <= 1 so the series diverges while the
    squared series converges. Constant and piecewise-constant-decay rates
    keep eta bounded away from zero, so the squared series diverges; they are
    flagged but remain runnable.
    """
    if c <= 0:
        raise ValueError(f"schedule coefficient must be positive, got {c}")
    if family == "power":
        if a is None or a <= 0:
            raise ValueError("power-law schedule needs a positive exponent")
        ok = 0.5 < a <= 1.0
        notes = "sum diverges, squared sum converges" if ok else (
            "a <= 1/2 makes the squared series diverge" if a <= 0.5
            else "a > 1 makes the series converge"
        )
        return ScheduleVerdict("power", ok, True, notes)
    if family == "constant":
        return ScheduleVerdict("constant", False, True,
                               "constant rate: squared series diverges")
    if family == "piecewise":
        return ScheduleVerdict("piecewise", False, True,
                               "piecewise-constant decay: squared series diverges")
    raise ValueError(f"unknown schedule family {family!r}")


@dataclass
class ConvergenceTrace:
    """Checkpointed estimates of the squared gradient norm ``||grad f||^2``.

    For analytic objectives each estimate is exact. For dataset objectives it
    is the squared norm of the mean of K minibatch gradients (batch size B),
    which is biased upward by ``tr(Sigma)/(B*K)``, Sigma being the
    per-example gradient covariance.
    """

    t: np.ndarray
    estimate: np.ndarray
    running_min: np.ndarray

    @property
    def final_min(self) -> float:
        return float(self.running_min[-1]) if len(self.running_min) else float("nan")


def track_convergence(estimates: Sequence[float],
                      ts: Optional[Sequence[int]] = None) -> ConvergenceTrace:
    """Running minimum over a sequence of checkpoint estimates."""
    est = np.asarray(estimates, dtype=np.float64)
    if ts is None:
        t = np.arange(1, est.size + 1)
    else:
        t = np.asarray(ts, dtype=np.int64)
        if t.size != est.size:
            raise ValueError("ts and estimates must have equal length")
    running = np.minimum.accumulate(est) if est.size else est.copy()
    return ConvergenceTrace(t=t, estimate=est, running_min=running)


@dataclass
class DiagnosticsReport:
    """One row per check: name, measured value, pass flag."""

    rows: List[tuple] = field(default_factory=list)

    def add(self, name: str, value: float, passed: bool) -> None:
        self.rows.append((name, float(value), bool(passed)))

    @property
    def all_passed(self) -> bool:
        return all(p for _, _, p in self.rows)

    def to_csv(self, path) -> None:
        import csv as _csv

        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh, lineterminator="\n")
            w.writerow(["check", "value", "passed"])
            for name, value, passed in self.rows:
                w.writerow([name, repr(value), int(passed)])

    def __str__(self) -> str:
        lines = []
        for name, value, passed in self.rows:
            lines.append(f"{'PASS' if passed else 'FAIL'}  {name} = {value:.6g}")
        return "\n".join(lines)
