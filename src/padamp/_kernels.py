"""Hot numeric kernels: fused moment/direction update and the norm-growth recursion.

Both kernels are vectorized numpy over float64 arrays that write their
temporaries into a fixed set of buffers; the norm-growth kernel's buffers
are the rows of one (3, T+1) block, and its docstring says why that block
must stay one allocation. tests/test_kernels.py checks them
against explicit per-element and per-step loops, and bit for bit against the
out-of-place array expressions they evaluate.
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
                     use_max=False, power_eps=True, m_out=None):
    """One fused first/second-moment update plus preconditioned direction.

    Updates v (and max_v when use_max) in place and writes the new first
    moment into m_out, which is m itself when omitted:
        m_out <- beta1t * m + (1 - beta1t) * g
        v <- beta2 * v + (1 - beta2) * g^2
        max_v <- max(max_v, v)            (only when use_max)
    and returns the direction (m_out / bc1) / denom where bc1, bc2 are the
    precomputed bias corrections 1 - beta1**t and 1 - beta2**t, and denom is
        (base + eps)**p   if power_eps else   base**p + eps
    with base = v / bc2, or the uncorrected max_v when use_max (max-tracking
    optimizers do not bias-correct the max buffer). A distinct m_out leaves m
    as it was, so the step keeps the previous moment without copying it.

    Each call makes two full-size arrays: one scratch buffer that holds each
    temporary in turn, and the returned direction, which is fresh and shares
    no memory with the inputs. The operations are the ones the plain
    expressions above evaluate, so every output bit equals theirs. The power
    is two in-place square roots at p = 1/4: sqrt is correctly rounded, so
    its bits do not depend on numpy's SIMD dispatch, and the two take about
    half as long as numpy's AVX-512 pow. Every other p is `**=`, which takes
    numpy's scalar fast paths (0.5 is sqrt).
    """
    if m_out is None:
        m_out = m
    buf = (1.0 - beta1t) * g
    np.multiply(m, beta1t, out=m_out)
    m_out += buf
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
    if p == 0.25:
        np.sqrt(buf, out=buf)
        np.sqrt(buf, out=buf)
    else:
        buf **= p
    if not power_eps:
        buf += eps
    direction = np.divide(m_out, bc1)
    direction /= buf
    return direction


def norm_growth_arrays(update_norms_sq, beta, eta, theta0_norm_sq):
    """Squared-norm trajectories for plain and momentum gradient descent.

    Plain descent grows by eta^2 u_t per step; the momentum variant adds the
    accumulated cross term 2 eta^2 acc_t with acc_t = sum_{k<t} beta^(t-k) u_k.
    Returns (gd, gdm, spare): three rows of length T + 1 of one (3, T + 1)
    block. gd and gdm hold index 0 = theta0_norm_sq; spare held the scan's
    scratch and is left for the caller (simulate_norm_growth writes the ratio
    into it).

    The block is the call's only input-sized allocation, and it must stay one.
    When glibc frees an mmapped block it raises its mmap threshold to that
    block's size and its trim threshold to twice that (mallopt(3)), so from the
    second call on the block comes from the heap, a whole call stays under the
    trim threshold, and a warm call makes no page faults. Four separate
    T-float arrays raised the thresholds only to one array's size, so each call
    outgrew them and glibc trimmed the heap after it and faulted it back in.

    Only acc[:-1] reaches gdm, and acc[t] depends only on u[:t+1], so the scan
    runs on beta * u[:-1] straight in gdm[2:]. Every level of the scan and both
    cumulative sums run in place, and each element is the same IEEE operation
    on the same operands as in the out-of-place form
        acc[k:] = acc[k:] + w * acc[:-k]
        gd = cumsum([theta0, eta^2 u])
        gdm = cumsum([theta0, eta^2 u + 2 eta^2 [0, acc[:-1]]])
    (addition commutes exactly; a level with stride >= T - 1 changes only
    acc's dropped last entry), so every output bit equals that form's.
    """
    u = np.asarray(update_norms_sq, dtype=np.float64)
    n = u.size
    beta = float(beta)
    eta_sq = float(eta) ** 2
    gd, gdm, spare = np.empty((3, n + 1))
    # acc_{t+1} = beta * (acc_t + u_t) as a doubling scan: after the pass with
    # stride k, acc[t] holds the beta-weighted sum of u over the last 2k steps.
    # Stop once the stride covers every step or beta^k has underflowed to 0.
    acc = np.multiply(u[:-1], beta, out=gdm[2:])
    m = acc.size
    k, w = 1, beta
    while k < m and w != 0.0:
        # spare holds the old acc[:m-k] terms, so the add reads no updated entry
        np.multiply(acc[:m - k], w, out=spare[:m - k])
        acc[k:] += spare[:m - k]
        k, w = 2 * k, w * w
    acc *= 2.0 * eta_sq
    gd[0] = gdm[0] = float(theta0_norm_sq)
    np.multiply(u, eta_sq, out=gd[1:])
    gdm[1] = 0.0
    gdm[1:] += gd[1:]
    # cumsum adds in order, so gd equals the step-by-step sum bit for bit
    np.cumsum(gd, out=gd)
    np.cumsum(gdm, out=gdm)
    return gd, gdm, spare
