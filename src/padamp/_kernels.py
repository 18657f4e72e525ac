"""Hot numeric kernels: fused moment/direction update and the norm-growth recursion.

Both kernels are vectorized numpy over float64 arrays that write their
temporaries into a fixed set of buffers; the norm-growth kernel's buffers
are the rows of one (3, T+1) block, and its docstring says why that block
must stay one allocation. The norm-growth recursion runs in O(T): each
ufunc call advances one step of every LANES-step block, and none is BLAS.
tests/test_kernels.py checks both kernels against explicit per-element and
per-step loops, and bit for bit against the out-of-place array expressions
they evaluate.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py reads HAS_NUMBA and backend() for its report; padamp uses no numba.
HAS_NUMBA = False

__all__ = ["moment_direction", "norm_growth_arrays"]

# Steps per block of the norm-growth kernel's lane recursion. At T = 1e5 on an
# AVX-512 Xeon, 16 timed best, ahead of 8, 32 and 64.
LANES = 16


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
        # out positionally: the keyword form takes about a fifth longer at d = 20
        np.sqrt(buf, buf)
        np.sqrt(buf, buf)
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
    cross term 2 eta^2 acc_t, with acc_0 = 0 and acc_t = beta (acc_{t-1} +
    u_{t-1}), the loop's accumulator. So gdm = gd + 2 eta^2 [0, r], where
    r_t = acc_1 + ... + acc_t for t = 1 .. T - 1. Returns (gd, gdm, spare):
    three rows of length T + 1 of one (3, T + 1) block. gd and gdm hold
    index 0 = theta0_norm_sq; spare held the lanes and is left for the caller
    (simulate_norm_growth writes the ratio into it).

    The block is the call's only input-sized allocation, and it must stay one.
    When glibc frees an mmapped block it raises its mmap threshold to that
    block's size and its trim threshold to twice that (mallopt(3)), so from the
    second call on the block comes from the heap, a whole call stays under the
    trim threshold, and a warm call makes no page faults. Four separate
    T-float arrays raised the thresholds only to one array's size, so each call
    outgrew them and glibc trimmed the heap after it and faulted it back in.

    acc and r run in O(T) as LANES-step blocks. The T - 1 steps that reach
    gdm are cut into nb = (T - 1) // LANES blocks; block b is column b of a
    (LANES, nb) view of spare, so row i holds step i of every block and each
    step is two ufunc calls over nb entries. A Horner pass down the rows gives
    each block's end value from a zero start; a doubling scan over those nb
    end values, weight beta^LANES, gives the acc each block starts from. The
    row pass then advances acc from that start, a second pass sums it down
    each column, and the columns' totals, cumulated over the blocks, offset
    each column to r. A scalar loop runs the last (T - 1) % LANES steps. The
    per-block scratch (nb end values, the scan's temp, then the offsets) sits
    in gd's row until gd is built. Only ufuncs, cumsum and slice assignment
    run, no BLAS, so the bits do not depend on which kernels OpenBLAS picks;
    each in-place step is the IEEE operation on the operands of the
    out-of-place form tests/test_kernels.py keeps as its oracle. gd is the
    in-order cumsum of [theta0, eta^2 u], so it equals the step-by-step sum
    bit for bit, and beta = 0 gives acc = r = 0 and gdm == gd bit for bit.
    """
    u = np.asarray(update_norms_sq, dtype=np.float64)
    n = u.size
    beta = float(beta)
    eta_sq = float(eta) ** 2
    gd, gdm, spare = np.empty((3, n + 1))
    m = max(n - 1, 0)
    nb = m // LANES
    body = nb * LANES
    acc = r = 0.0
    if nb:
        # A plain slice assignment transposes without an iterator buffer.
        lanes = spare[:body].reshape(LANES, nb)
        lanes[...] = u[:body].reshape(nb, LANES).T
        # ends[b] = block b's end value from a zero start, for b < nb - 1
        ends = np.multiply(lanes[0, :-1], beta, out=gd[1:nb])
        for row in lanes[1:, :-1]:
            ends += row
            ends *= beta
        # Doubling scan: start_{b+1} = w * start_b + ends[b], w = beta^LANES.
        w = beta
        for _ in range(LANES.bit_length() - 1):
            w *= w
        k, tmp = 1, gd[nb:2 * nb]
        while k < ends.size and w != 0.0:
            np.multiply(ends[:-k], w, out=tmp[:ends.size - k])
            ends[k:] += tmp[:ends.size - k]
            k, w = 2 * k, w * w
        # gd[:nb] now holds each block's starting acc; advance acc from it
        gd[0] = 0.0
        lanes[0] += gd[:nb]
        lanes[0] *= beta
        for prev, row in zip(lanes[:-1], lanes[1:]):
            row += prev
            row *= beta
        acc = float(lanes[-1, -1])
        # r within each block, then offset by the r each block starts from
        for prev, row in zip(lanes[:-1], lanes[1:]):
            row += prev
        offsets = gd[:nb]
        np.cumsum(lanes[-1, :-1], out=offsets[1:])
        lanes += offsets
        r = float(lanes[-1, -1])
        gdm[2:body + 2].reshape(nb, LANES)[...] = lanes.T
    for j, x in enumerate(u[body:m].tolist(), start=body + 2):
        acc = beta * (acc + x)
        r += acc
        gdm[j] = r
    gdm[2:] *= 2.0 * eta_sq
    gd[0] = float(theta0_norm_sq)
    np.multiply(u, eta_sq, out=gd[1:])
    # cumsum adds in order, so gd equals the step-by-step sum bit for bit
    np.cumsum(gd, out=gd)
    gdm[0] = gd[0]
    gdm[1] = 0.0
    gdm[1:] += gd[1:]
    return gd, gdm, spare
