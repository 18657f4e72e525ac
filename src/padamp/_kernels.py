"""Hot numeric kernels: fused moment/direction update and the norm-growth recursion.

Both kernels are vectorized numpy over float64 arrays. tests/test_kernels.py
checks them against explicit per-element and per-step loops.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py reads HAS_NUMBA and backend() for its report; padamp uses no numba.
HAS_NUMBA = False

__all__ = ["moment_direction", "norm_growth_arrays"]


def backend() -> str:
    """Name of the kernel backend, always 'numpy'."""
    return "numpy"


def moment_direction(m, v, max_v, g, beta1t, beta2, bc1, bc2, eps, p,
                     use_max=False, power_eps=True):
    """One fused first/second-moment update plus preconditioned direction.

    Updates m, v (and max_v when use_max) in place:
        m <- beta1t * m + (1 - beta1t) * g
        v <- beta2 * v + (1 - beta2) * g^2
        max_v <- max(max_v, v)            (only when use_max)
    and returns the direction (m / bc1) / denom where bc1, bc2 are the
    precomputed bias corrections 1 - beta1**t and 1 - beta2**t, and denom is
        (base + eps)**p   if power_eps else   base**p + eps
    with base = v / bc2, or the uncorrected max_v when use_max (max-tracking
    optimizers do not bias-correct the max buffer).

    Each call makes two full-size arrays: one scratch buffer that holds each
    temporary in turn, and the returned direction, which is fresh and shares
    no memory with the inputs. The operations are the ones the plain
    expressions above evaluate, so every output bit equals theirs; the
    power is `**=`, which takes numpy's scalar fast paths (0.5 is sqrt).
    """
    buf = (1.0 - beta1t) * g
    m *= beta1t
    m += buf
    np.multiply(g, g, out=buf)
    buf *= 1.0 - beta2
    v *= beta2
    v += buf
    if use_max:
        np.maximum(max_v, v, out=max_v)
        # max_v is state: the power goes into the buffer, never into max_v
        buf[...] = max_v
    else:
        np.divide(v, bc2, out=buf)
    if power_eps:
        buf += eps
        buf **= p
    else:
        buf **= p
        buf += eps
    direction = np.divide(m, bc1)
    direction /= buf
    return direction


def norm_growth_arrays(update_norms_sq, beta, eta, theta0_norm_sq):
    """Squared-norm trajectories for plain and momentum gradient descent.

    Plain descent grows by eta^2 u_t per step; the momentum variant adds the
    accumulated cross term 2 eta^2 acc_t with acc_t = sum_{k<t} beta^(t-k) u_k.
    Returns (gd, gdm), each of length T + 1 with index 0 holding
    theta0_norm_sq.
    """
    u = np.asarray(update_norms_sq, dtype=np.float64)
    beta = float(beta)
    eta_sq = float(eta) ** 2
    start = np.array([float(theta0_norm_sq)])
    # acc_{t+1} = beta * (acc_t + u_t) as a doubling scan: after the pass with
    # stride k, acc[t] holds the beta-weighted sum of u over the last 2k steps.
    # Stop once the stride covers every step or beta^k has underflowed to 0.
    acc = beta * u
    k, w = 1, beta
    while k < u.size and w != 0.0:
        acc[k:] = acc[k:] + w * acc[:-k]
        k, w = 2 * k, w * w
    cross = np.zeros_like(u)
    cross[1:] = acc[:-1]
    # cumsum adds in order, so gd equals the step-by-step sum bit for bit
    gd = np.cumsum(np.concatenate((start, eta_sq * u)))
    gdm = np.cumsum(np.concatenate((start, eta_sq * u + 2.0 * eta_sq * cross)))
    return gd, gdm
