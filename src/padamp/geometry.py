"""Tangent-space projection, cosine similarity, and the projection trigger.

The trigger compares cos(theta, g) against delta * eta_t / sqrt(dim(theta));
a small cosine means the gradient is nearly orthogonal to the weight vector,
which is the signature of a scale-invariant group, and only then is the
update direction projected onto the tangent space of theta.

Every norm here comes from norm(), which stays finite for every finite
vector whose norm fits a float, so the trigger means the same at any weight
scale. The step computes ||theta|| and ||g|| once per group and passes them
in as keyword arguments; a call without them computes them itself.
projection_condition returns a ProjectionDecision, a named tuple, which
builds in half the time of a frozen dataclass.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "ProjectionDecision",
    "norm",
    "cosine_similarity",
    "project_tangent",
    "projection_condition",
]

_TINY = float(np.finfo(np.float64).tiny)


class ProjectionDecision(NamedTuple):
    """The trigger's cosine, its threshold, and whether the step projects."""

    trigger_value: float
    threshold: float
    projected: bool


def norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-d float64 vector, without overflow or underflow.

    sqrt(x . x) is numpy's own linalg norm, so while x . x is a normal float
    the result is the same bit for bit. Otherwise the sum is redone on x
    scaled by 2**-e, e the binary exponent of max|x|, and scaled back. The
    result is inf only for a vector that holds an inf, or one whose norm
    exceeds the largest float. np.vdot, unlike matmul, raises no numpy
    overflow warning.
    """
    sq = float(np.vdot(x, x))
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    big = float(np.max(np.abs(x)))
    if big == 0.0 or not math.isfinite(big):
        return big
    e = math.frexp(big)[1]
    y = np.ldexp(x, -e)
    try:
        return math.ldexp(math.sqrt(float(np.vdot(y, y))), e)
    except OverflowError:
        return math.inf


def cosine_similarity(a: np.ndarray, b: np.ndarray, *, a_norm: Optional[float] = None,
                      b_norm: Optional[float] = None) -> float:
    """|a . b| / (||a|| ||b||); 0 if either vector is zero.

    The absolute value makes anti-parallel vectors score 1, so the trigger
    treats radial and anti-radial gradients the same. When ||a|| ||b|| leaves
    the normal range, the cosine of a / ||a|| and b / ||b|| is taken instead.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _cosine(a, b, norm(a) if a_norm is None else a_norm,
                   norm(b) if b_norm is None else b_norm)


def _cosine(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    """cosine_similarity of float64 vectors a, b of one shape, norms na, nb."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    den = na * nb
    if _TINY <= den < math.inf:
        cos = abs(float(np.vdot(a, b))) / den
    else:
        cos = abs(float(np.vdot(a / na, b / nb)))
    # Rounding can push the quotient a hair above 1 for parallel vectors.
    return min(cos, 1.0)


def project_tangent(theta: np.ndarray, x: np.ndarray, *,
                    theta_norm: Optional[float] = None) -> np.ndarray:
    """Remove from x its component along theta: x - <theta_hat, x> theta_hat."""
    theta = np.asarray(theta, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if theta.shape != x.shape:
        raise ValueError(f"shape mismatch: {theta.shape} vs {x.shape}")
    if theta_norm is None:
        theta_norm = norm(theta)
    if theta_norm == 0.0:
        raise ValueError("cannot project onto tangent space of zero vector")
    theta_hat = theta / theta_norm
    return x - float(theta_hat @ x) * theta_hat


def projection_condition(
    theta: np.ndarray, grad: np.ndarray, delta: float, eta_t: float, *,
    theta_norm: Optional[float] = None, grad_norm: Optional[float] = None,
) -> ProjectionDecision:
    """Decide whether the step for this group gets projected.

    Projected iff cos(theta, grad) < delta * eta_t / sqrt(dim(theta)), strict,
    so a trigger value exactly at the threshold is not projected. A zero
    parameter vector has no radial direction and is never projected.
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if theta.shape != grad.shape:
        raise ValueError(f"shape mismatch: {theta.shape} vs {grad.shape}")
    if theta.size < 1:
        raise ValueError("empty parameter vector")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if eta_t <= 0:
        raise ValueError(f"eta_t must be positive, got {eta_t}")
    threshold = float(delta * eta_t / math.sqrt(theta.size))
    if theta_norm is None:
        theta_norm = norm(theta)
    if theta_norm == 0.0:
        return ProjectionDecision(0.0, threshold, False)
    cos = _cosine(theta, grad, theta_norm, norm(grad) if grad_norm is None else grad_norm)
    return ProjectionDecision(cos, threshold, bool(cos < threshold))
