"""Executable checks of the optimizer's supporting math.

Covers: the norm-growth gap between plain and momentum descent, the
first-moment rearrangement identity, the second-moment and denominator
bounds (with the empirical running gradient bound C1), learning-rate
schedule assumptions, and the running-min convergence tracker. The optimizer
step makes one _group_lemmas call per adaptive group, which computes all of
that group's LEMMA_COLUMNS in one buffered pass, and folds them over groups
into the step's telemetry row.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field
from itertools import repeat
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._kernels import norm_growth_arrays
from .geometry import norm

__all__ = [
    "NormGrowthTrace",
    "NormGrowthColumns",
    "ConvergenceTrace",
    "DiagnosticsReport",
    "SLACK_COLUMNS",
    "LEMMA_COLUMNS",
    "simulate_norm_growth",
    "validate_schedule",
    "track_convergence",
    "momentum_norm_ratio_limit",
]


class NormGrowthTrace(NamedTuple):
    """One step of the two squared-norm recursions and their growth ratio."""

    t: int
    norm_sq_gd: float
    norm_sq_gdm: float
    ratio: float


def _rows(ts, gd, gdm, ratio):
    # tolist() gives the floats float(gd[i]) gives. tuple.__new__ builds each
    # row in C, where NormGrowthTrace(...) and _make run Python per row.
    return map(tuple.__new__, repeat(NormGrowthTrace),
               zip(ts, gd.tolist(), gdm.tolist(), ratio.tolist()))


@dataclass(frozen=True, eq=False)
class NormGrowthColumns(abc.Sequence):
    """The norm-growth trace: three read-only float64 columns of length T.

    It is also the sequence of its T rows. trace[i] (negative i and slices
    too) builds step i + 1's NormGrowthTrace only when asked, and iterating
    builds every row in C; the values equal the columns' bit for bit.
    """

    norm_sq_gd: np.ndarray
    norm_sq_gdm: np.ndarray
    ratio: np.ndarray

    def __post_init__(self):
        for col in (self.norm_sq_gd, self.norm_sq_gdm, self.ratio):
            col.flags.writeable = False

    def __len__(self) -> int:
        return self.ratio.size

    def __getitem__(self, i):
        t = range(1, len(self) + 1)[i]  # IndexError outside [-T, T)
        cols = (self.norm_sq_gd, self.norm_sq_gdm, self.ratio)
        if isinstance(i, slice):
            return list(_rows(t, *(c[i] for c in cols)))
        return NormGrowthTrace(t, *(float(c[t - 1]) for c in cols))

    def __iter__(self):
        return _rows(range(1, len(self) + 1), self.norm_sq_gd, self.norm_sq_gdm,
                     self.ratio)


def momentum_norm_ratio_limit(beta: float) -> float:
    """Asymptotic (momentum growth) / (plain growth) ratio: 1 + 2 beta / (1 - beta)."""
    return 1.0 + 2.0 * beta / (1.0 - beta)


def simulate_norm_growth(
    update_norms_sq: Sequence[float],
    beta: float,
    eta: float,
    theta0_norm_sq: float,
) -> NormGrowthColumns:
    """Iterate both norm recursions exactly; return them and the growth ratio per step.

    Plain descent adds eta^2 u_t per step; the momentum recursion additionally
    adds 2 eta^2 sum_{k<t} beta^(t-k) u_k. The ratio
    (gdm_t - theta0) / (gd_t - theta0) tends to 1 + 2 beta / (1 - beta) when
    the update norms have finite nonzero sum. Each update norm must be finite
    and non-negative, and one must be positive. beta = 0 is allowed and gives
    ratio exactly 1. eta**2 must be a normal float, and the final ratio must
    be finite: a theta0_norm_sq that the growth rounds away against gives
    nan, and a growth past the largest float gives inf or nan.
    """
    u = np.asarray(update_norms_sq, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("update_norms_sq must be a non-empty 1-d sequence")
    lo, hi = np.minimum.reduce(u), np.maximum.reduce(u)  # nan if any is nan
    if not -np.inf < lo <= hi < np.inf:
        i = int(np.flatnonzero(~np.isfinite(u))[0])
        raise ValueError(
            f"update_norms_sq must be finite, got update_norms_sq[{i}]={u[i]}")
    if lo < 0:
        raise ValueError("update norms must be non-negative")
    if not 0 <= beta < 1:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if not 0 <= theta0_norm_sq < np.inf:
        raise ValueError(
            f"theta0_norm_sq must be non-negative and finite, got {theta0_norm_sq}")
    if not np.finfo(np.float64).tiny <= eta * eta < np.inf:
        raise ValueError(f"eta**2 must be a normal float, got eta={eta}")
    if hi == 0.0:  # u is finite and non-negative, so sum(u) == 0 exactly then
        raise ValueError("total update norm is zero; growth ratio undefined")
    # An overflowing growth gives a non-finite final ratio, reported below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gd, gdm, spare = norm_growth_arrays(u, beta, eta, theta0_norm_sq)
        grown = np.subtract(gd[1:], theta0_norm_sq)
        ratio = np.subtract(gdm[1:], theta0_norm_sq, out=spare[1:])
        ratio /= grown
        ratio[grown <= 0] = np.nan  # no growth yet, so no ratio
    if not np.isfinite(ratio[-1]):
        raise ValueError(
            f"final growth ratio is {ratio[-1]}: the growth eta**2 * sum(u) = "
            f"{eta * eta * float(u.sum())!r} is lost against theta0_norm_sq="
            f"{theta0_norm_sq} or overflows")
    return NormGrowthColumns(gd[1:], gdm[1:], ratio)


# The lemma-3/4/5 bound slacks, then all eight lemma columns in telemetry order.
SLACK_COLUMNS = ("lemma3_lower", "lemma4_lower", "lemma4_upper", "lemma5_radial",
                 "lemma5_precond_sq", "lemma5_moment_diff")
LEMMA_COLUMNS = ("lemma2_residual", "lemma3_margin", *SLACK_COLUMNS)


def _group_lemmas(m: np.ndarray, m_prev: np.ndarray, v: np.ndarray, g: np.ndarray,
                  beta1t: float, c1: float, eps: float, p: float, theta: np.ndarray,
                  theta_norm: float) -> Tuple[float, ...]:
    """One adaptive group's lemma quantities, from its post-step moments.

    Returns the LEMMA_COLUMNS in order, as floats; the margin is C1**2 - max(v).
    m = b m_prev + (1-b) g rearranges to -m = -g + b/(1-b) (m - m_prev); the
    residual is the norm of the two sides' difference over 1 + ||m||, pure
    rounding for consistent inputs. The slacks use the uncorrected buffers;
    at theta = 0, which has no radial direction, the radial bound is checked
    against ||pre_m||, which dominates the inner product with any unit vector.
    Two buffers hold every temporary; the comments give the out-of-place
    form. m - m_prev is computed twice on purpose: a third full-size buffer
    that kept it raised the step's heap peak by one array, and after a
    quad_d100k run that could leave megabytes of free heap pinned under a
    live block, which changed what later allocations in the process cost
    (perfbench's host-speed slice ran without its page faults).

    At p = 1/4 the power is two square roots, as in the moment kernel. sqrt,
    + and / are correctly rounded, hence monotone, so min(inv) and max(inv)
    equal 1 / sqrt(sqrt(max(v) + eps)) and 1 / sqrt(sqrt(min(v) + eps)) bit
    for bit, and come from the two reductions of v that the margin and
    lemma3_lower take anyway. Every other p reduces inv itself.

    The step calls this inside its errstate(over="ignore", invalid="ignore"), so
    an overflow gives a non-finite value, which fails its check_telemetry row,
    and no warning.
    """
    buf = np.subtract(m, m_prev)
    buf *= beta1t / (1.0 - beta1t)  # (b / (1 - b)) * (m - m_prev)
    # Rounding is symmetric in sign, so g - x and m - (g - x) are exactly
    # -rhs and -(-m - rhs) for rhs = -g + x, and the squared norm is the same.
    rhs = np.subtract(g, buf)
    np.subtract(m, rhs, out=rhs)
    # sqrt(x . x) is np.linalg.norm's 1-d formula, without its wrapper.
    resid = math.sqrt(rhs.dot(rhs)) / (1.0 + norm(m))
    v_max, v_min = float(np.maximum.reduce(v)), float(np.minimum.reduce(v))
    margin = c1 ** 2 - v_max
    denom = np.add(v, eps, out=buf)
    if p == 0.25:
        # lo, hi, min(inv), max(inv) as one array: 1 / sqrt(sqrt(x + eps))
        ext = np.array([c1 * c1 + eps, eps, v_max + eps, v_min + eps])
        np.sqrt(ext, out=ext)
        np.sqrt(ext, out=ext)
        lo, hi, inv_min, inv_max = (1.0 / ext).tolist()
        np.sqrt(denom, out=denom)
        np.sqrt(denom, out=denom)
        inv = np.divide(1.0, denom, out=rhs)
    else:
        denom **= p  # (v + eps) ** p
        inv = np.divide(1.0, denom, out=rhs)
        # The same array power as inv's: once v + eps rounds to eps, max(inv)
        # equals hi exactly, where a scalar power can differ from it by an ulp.
        lo, hi = (1.0 / np.array([c1 * c1 + eps, eps]) ** p).tolist()
        inv_min, inv_max = float(np.minimum.reduce(inv)), float(np.maximum.reduce(inv))
    pre_m = np.divide(m, denom, out=denom)
    if theta_norm > 0:
        radial = float(theta @ pre_m) / theta_norm
    else:
        radial = math.sqrt(pre_m.dot(pre_m))
    buf = np.multiply(g, inv, out=pre_m)
    buf **= 2  # (g * inv) ** 2
    precond_sq = float(np.add.reduce(buf))
    np.subtract(m, m_prev, out=buf)
    buf *= inv  # (m - m_prev) * inv
    eps_p = eps ** p
    return (resid, margin, v_min, inv_min - lo, hi - inv_max,
            c1 / eps_p - radial, (c1 * c1) / eps ** (2 * p) - precond_sq,
            2.0 * c1 * c1 / eps_p - float(g @ buf))


class LemmaMonitor:
    """A name only: the step folds the lemma columns itself. perfbench's layer
    trace still patches harness.LemmaMonitor, so the name stays."""


def validate_schedule(family: str, c: float, a: Optional[float] = None) -> bool:
    """Whether a learning-rate family meets the step-size series assumptions.

    Power law c/t^a needs 1/2 < a <= 1 so the series diverges while the
    squared series converges. Constant and piecewise-constant-decay rates
    keep eta bounded away from zero, so the squared series diverges; they
    give False but remain runnable.
    """
    if c <= 0:
        raise ValueError(f"schedule coefficient must be positive, got {c}")
    if family == "power":
        if a is None or a <= 0:
            raise ValueError("power-law schedule needs a positive exponent")
        return 0.5 < a <= 1.0
    if family in ("constant", "piecewise"):
        return False
    raise ValueError(f"unknown schedule family {family!r}")


@dataclass
class ConvergenceTrace:
    """Running minimum of the checkpoint estimates of ``||grad f||^2`` (run
    documents their bias for dataset objectives)."""

    running_min: np.ndarray

    @property
    def final_min(self) -> float:
        return float(self.running_min[-1]) if len(self.running_min) else float("nan")


def track_convergence(estimates: Sequence[float]) -> ConvergenceTrace:
    """Running minimum over a sequence of checkpoint estimates."""
    return ConvergenceTrace(np.minimum.accumulate(np.asarray(estimates, dtype=np.float64)))


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
