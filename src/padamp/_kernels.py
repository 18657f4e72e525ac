"""Hot numeric kernels: fused moment/direction update and the norm-growth recursion.

Both kernels are vectorized numpy over float64 arrays that write their
temporaries into a fixed set of buffers; the norm-growth kernel's buffers
are the rows of one (3, T+1) block, and its docstring says why that block
must stay one allocation. The norm-growth recursion runs in O(T): each
ufunc call advances one step of every LANES-step block, and none is BLAS.
tests/test_kernels.py checks both kernels against explicit per-element and
per-step loops, and bit for bit against the out-of-place array expressions
they evaluate.

From SPLIT_ELEMENTS elements moment_direction runs in two halves of its
arrays (_in_halves): the calling thread takes the first half and one worker
thread the second, unless the caller finishes first and takes it back.
Below that, or with fewer than two CPUs in this process's affinity mask, it
runs in one piece on the caller, with no thread. Each half makes the IEEE
operations (and numpy's pow, whose vector loop rounds each element alone)
that the whole array would, so the bits do not depend on the split.
numpy's error state is a context variable, so the worker runs each half in
a copy of the caller's context. A split call whose caller was blocked
longer than it computed (the host did not run the worker's CPU, say) makes
the next calls run in one piece, more of them after each such stall.
"""

from __future__ import annotations

import os
import threading
import time
from contextvars import copy_context

import numpy as np

# perfbench/run.py reads HAS_NUMBA and backend() for its report; padamp uses no numba.
HAS_NUMBA = False

__all__ = ["moment_direction", "norm_growth_arrays"]

# Steps per block of the norm-growth kernel's lane recursion. At T = 1e5 on an
# AVX-512 Xeon, 16 timed best, ahead of 8, 32 and 64.
LANES = 16

# Arrays of at least this many elements are computed in two halves on two
# threads. On 2 vCPUs (Intel Xeon, KVM) the split kernel alone took 1.17-1.22
# times the one-piece time at 24576 elements and 0.81-0.87 times at 32768,
# but the step's later passes then read the worker's half from the other
# core's cache: a padamp quadratic step took 1.13 times as long at 32768,
# 1.02 at 49152, 0.99-1.05 at 65536, 0.97-0.99 at 1e5 and 0.93 at 131072.
SPLIT_ELEMENTS = 1 << 16

# A split call stalls when its caller spends longer blocked (on the worker's
# half, or on the GIL the worker holds) than computing, and at least STALL_S:
# it took longer than the one-piece call would have. The calls after a stall
# run in one piece, as many as the pause, which doubles with each stall up to
# MAX_PAUSE and halves with each split call that does not stall.
STALL_S = 2e-4
MAX_PAUSE = 1024


def backend() -> str:
    """Name of the kernel backend, always 'numpy'."""
    return "numpy"


class _Half:
    """The second half of one _in_halves call, run once: by the worker, or by
    the caller if the worker has not started it when the caller's half is done."""

    __slots__ = ("context", "body", "half", "claim", "done", "error")

    def __init__(self, body, half):
        self.context, self.body, self.half = copy_context(), body, half
        self.claim, self.done = threading.Lock(), threading.Lock()
        self.done.acquire()
        self.error = None

    def run(self) -> bool:
        """Run the half unless another thread took it; whether this one did."""
        if not self.claim.acquire(False):
            return False
        try:
            self.context.run(self.body, self.half)
        except BaseException as exc:
            self.error = exc
        # The body holds the caller's buffers.
        self.context = self.body = None
        self.done.release()
        return True

    def wait(self) -> None:
        try:
            self.done.acquire()
        except BaseException:
            # Interrupted: the half still writes into the caller's arrays.
            self.done.acquire()
            raise


def _serve(jobs) -> None:
    while True:
        jobs.get().run()


# The worker's queue of _Half jobs, made with the worker at the first split;
# the number of CPUs this process may run on, read at the first call that
# reaches SPLIT_ELEMENTS; how many more such calls run in one piece; and the
# pause the next stall sets.
_jobs = None
_cpus = None
_skip = 0
_pause = 1


def _forget_worker() -> None:
    # A forked child has no worker thread, only the parent's queue, and it
    # may run on other CPUs.
    global _jobs, _cpus, _skip, _pause
    _jobs = _cpus = None
    _skip, _pause = 0, 1


os.register_at_fork(after_in_child=_forget_worker)


def _splits() -> bool:
    """Whether a call that reaches SPLIT_ELEMENTS runs in two halves."""
    global _cpus, _skip
    if _skip:
        _skip -= 1
        return False
    if _cpus is None:
        _cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
    return _cpus >= 2


def _in_halves(body, n: int) -> None:
    """body(slice(0, n // 2)) on this thread, body(slice(n // 2, n)) on the worker.

    The worker thread, started at the first call, runs its half under a copy
    of this thread's context, so under its numpy error state. If the worker
    has not started the second half by the time the first is done (it runs
    another call's half, or its CPU is busy), this thread runs it, so a call
    never waits for the worker to wake. A half drops the call's arrays once
    it has run: a taken-back half that stays queued holds none. _in_halves
    returns or raises only once both halves are done, even when a
    KeyboardInterrupt ends its wait: the first half's exception if it
    raised, else the second's. The worker is a daemon, so it never holds up
    the interpreter's exit, and it still serves calls from atexit handlers,
    which run before daemon threads stop. After a call that stalled (see
    STALL_S: the host did not run the worker's CPU, or ran something else
    there), the next calls of moment_direction run in one piece.
    """
    global _jobs, _skip, _pause
    if _jobs is None:
        import queue

        _jobs = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_jobs,), name="padamp-half",
                         daemon=True).start()
    h = n // 2
    second = _Half(body, slice(h, n))
    wall, cpu = time.perf_counter(), time.thread_time()
    _jobs.put(second)
    try:
        body(slice(0, h))
    finally:
        if not second.run():
            second.wait()
    cpu = time.thread_time() - cpu
    if time.perf_counter() - wall - cpu > max(cpu, STALL_S):
        _skip, _pause = _pause, min(2 * _pause, MAX_PAUSE)
    else:
        _pause = max(_pause // 2, 1)
    if second.error is not None:
        raise second.error


def moment_direction(m, v, max_v, g, beta1t, beta2, bc1, bc2, eps, p,
                     use_max=False, power_eps=True, m_out=None, *, _half=None):
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

    From SPLIT_ELEMENTS elements, with two CPUs for this process, the call
    makes the two arrays and computes them in two halves on two threads
    (_in_halves). Each half is a call given _half, that half's views of the
    scratch buffer and the direction, which it writes into.
    """
    if m_out is None:
        m_out = m
    if _half is not None:
        buf, direction = _half
        np.multiply(g, 1.0 - beta1t, out=buf)
    elif g.size >= SPLIT_ELEMENTS and _splits():
        return _split_moment(m, v, max_v, g, beta1t, beta2, bc1, bc2, eps, p, use_max,
                             power_eps, m_out)
    else:
        buf, direction = (1.0 - beta1t) * g, None
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
    direction = np.divide(m_out, bc1, direction)
    direction /= buf
    return direction


def _split_moment(m, v, max_v, g, beta1t, beta2, bc1, bc2, eps, p, use_max, power_eps,
                  m_out):
    """moment_direction in two halves on two threads.

    A function of its own: the lambda's closure would make every local of
    moment_direction a cell, which cost a d = 20 call about 0.5 us.
    """
    buf, direction = np.empty_like(g), np.empty_like(g)
    _in_halves(lambda s: moment_direction(
        m[s], v[s], max_v[s], g[s], beta1t, beta2, bc1, bc2, eps, p, use_max,
        power_eps, m_out[s], _half=(buf[s], direction[s])), g.size)
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
