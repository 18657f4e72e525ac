"""The vectorized kernels against explicit per-element and per-step loops."""

import contextlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import padamp
from padamp import _kernels


def _moment_direction_loop(m, v, max_v, g, beta1t, beta2, bc1, bc2, eps, p,
                           use_max, power_eps):
    out = np.empty(m.shape[0], dtype=np.float64)
    for i in range(m.shape[0]):
        m[i] = beta1t * m[i] + (1.0 - beta1t) * g[i]
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g[i] * g[i])
        if use_max:
            if v[i] > max_v[i]:
                max_v[i] = v[i]
            base = max_v[i]
        else:
            base = v[i] / bc2
        if power_eps:
            denom = (base + eps) ** p
        else:
            denom = base ** p + eps
        out[i] = (m[i] / bc1) / denom
    return out


def _moment_direction_expr(m, v, max_v, g, beta1t, beta2, bc1, bc2, eps, p,
                           use_max, power_eps):
    # The kernel as the plain array expressions of its docstring: the
    # scratch-buffer kernel must give these bits exactly.
    m *= beta1t
    m += (1.0 - beta1t) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    if use_max:
        np.maximum(max_v, v, out=max_v)
        base = max_v
    else:
        base = v / bc2
    # At p = 1/4 the kernel's power is two square roots; every other p is **.
    power = (lambda x: np.sqrt(np.sqrt(x))) if p == 0.25 else (lambda x: x ** p)
    if power_eps:
        denom = power(base + eps)
    else:
        denom = power(base) + eps
    return (m / bc1) / denom


def _norm_growth_loop(u, beta, eta_sq, theta0_sq):
    T = u.shape[0]
    gd = np.empty(T + 1, dtype=np.float64)
    gdm = np.empty(T + 1, dtype=np.float64)
    gd[0] = theta0_sq
    gdm[0] = theta0_sq
    acc = 0.0
    for t in range(T):
        gd[t + 1] = gd[t] + eta_sq * u[t]
        gdm[t + 1] = gdm[t] + eta_sq * u[t] + 2.0 * eta_sq * acc
        acc = beta * (acc + u[t])
    return gd, gdm


def _norm_growth_longdouble_loop(u, beta, eta_sq, theta0_sq):
    # The momentum recursion step by step in extended precision.
    ld = np.longdouble
    gdm = np.empty(u.shape[0] + 1, dtype=ld)
    gdm[0] = theta0_sq
    acc, beta, eta_sq = ld(0), ld(beta), ld(eta_sq)
    for t, x in enumerate(u.astype(ld)):
        gdm[t + 1] = gdm[t] + eta_sq * x + 2 * eta_sq * acc
        acc = beta * (acc + x)
    return gdm


def _norm_growth_lane_expr(u, beta, eta, theta0_sq):
    # The kernel's lane recursion in its out-of-place form: fresh arrays for
    # the blocks, the scan levels and the sums. The in-place kernel must give
    # these bits exactly.
    lanes = _kernels.LANES
    eta_sq = float(eta) ** 2
    m = max(u.size - 1, 0)
    nb = m // lanes
    body = nb * lanes
    acc = r = 0.0
    sums = np.zeros(m)
    if nb:
        x = u[:body].reshape(nb, lanes).T.copy()  # row i: step i of every block
        ends = beta * x[0, :-1]
        for row in x[1:, :-1]:
            ends = (ends + row) * beta
        k, w = 1, beta
        for _ in range(lanes.bit_length() - 1):  # beta^lanes by squaring
            w *= w
        while k < ends.size and w != 0.0:
            ends[k:] = ends[k:] + w * ends[:-k]
            k, w = 2 * k, w * w
        a = np.empty_like(x)
        prev = np.concatenate(([0.0], ends))
        for i in range(lanes):
            prev = (prev + x[i]) * beta
            a[i] = prev
        s = np.cumsum(a, axis=0)
        s = s + np.concatenate(([0.0], np.cumsum(s[-1, :-1])))
        acc, r = float(a[-1, -1]), float(s[-1, -1])
        sums[:body] = s.T.ravel()
    for j in range(body, m):
        acc = beta * (acc + u[j])
        r += acc
        sums[j] = r
    gd = np.cumsum(np.concatenate(([float(theta0_sq)], eta_sq * u)))
    gdm = gd + 2.0 * eta_sq * np.concatenate(([0.0, 0.0], sums))
    gdm[0] = gd[0]
    return gd, gdm


def _random_inputs(dim, seed, t=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(dim) * 0.1
    v = np.abs(rng.standard_normal(dim)) * 0.01
    max_v = v * rng.uniform(1.0, 1.5, dim)
    g = rng.standard_normal(dim)
    bc1 = 1.0 - 0.9**t
    bc2 = 1.0 - 0.999**t
    return m, v, max_v, g, bc1, bc2


# use_max and power_eps are enumerated, so each of their four combinations
# is checked on every run; dim is drawn up to the parametrized bound.
@pytest.mark.parametrize("dim", [1, 7, 1000])
@pytest.mark.parametrize("use_max", [False, True])
@pytest.mark.parametrize("power_eps", [False, True])
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       beta1t=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
       beta2=st.floats(0.0, 0.9999, exclude_min=True), eps=st.floats(1e-16, 1e-2),
       p=st.one_of(st.just(0.5), st.just(0.25), st.floats(0.0, 0.5, exclude_min=True)),
       log_scale=st.integers(-30, 30))
def test_moment_direction_matches_loop(dim, use_max, power_eps, data, seed, beta1t,
                                       beta2, eps, p, log_scale):
    n = data.draw(st.integers(1, dim), label="n")
    m0, v0, max0, g, bc1, _ = _random_inputs(n, seed=seed)
    scale = 2.0 ** log_scale
    m0, g = m0 * scale, g * scale
    v0, max0 = v0 * scale * scale, max0 * scale * scale
    args = (beta1t, beta2, bc1, 1.0 - beta2 ** 3, eps, p, use_max, power_eps)

    m_a, v_a, max_a = m0.copy(), v0.copy(), max0.copy()
    d_kernel = _kernels.moment_direction(m_a, v_a, max_a, g, *args)

    m_b, v_b, max_b = m0.copy(), v0.copy(), max0.copy()
    d_loop = _moment_direction_loop(m_b, v_b, max_b, g, *args)

    # numpy's vectorized pow may differ from the scalar one in the last ulp
    np.testing.assert_allclose(m_a, m_b, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(v_a, v_b, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(max_a, max_b, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(d_kernel, d_loop, rtol=1e-13, atol=0.0)


# numpy's vector pow differs from libm on about 5% of entries from 100
# elements up, so only dims 1000 and 1e5 exercise that path. A special value
# goes into one entry of m, v, max_v or the first step's g, and from there
# into the state of the later steps; the cases without one keep their ids.
@pytest.mark.parametrize("dim", [1, 7, 20, 1000, 100_000])
@pytest.mark.parametrize("use_max", [False, True])
@pytest.mark.parametrize("power_eps", [False, True])
@pytest.mark.parametrize("p", [0.5, 0.25, "drawn"])
@pytest.mark.parametrize("special", [pytest.param(None, id=pytest.HIDDEN_PARAM),
                                     np.nan, np.inf, -np.inf, 0.0])
def test_moment_direction_matches_its_expressions_bit_for_bit(dim, use_max, power_eps, p,
                                                              special):
    rng = np.random.default_rng([dim, use_max, power_eps, [0.5, 0.25, "drawn"].index(p)])
    m_a, v_a, max_a, _, _, _ = _random_inputs(dim, seed=int(rng.integers(2 ** 32)))
    g = rng.standard_normal(dim) * 2.0 ** int(rng.integers(-30, 31))
    if special is not None:
        (m_a, v_a, max_a, g)[rng.integers(4)][rng.integers(dim)] = special
    m_b, v_b, max_b = m_a.copy(), v_a.copy(), max_a.copy()
    # Three consecutive steps on the same state, as a run makes them.
    with np.errstate(all="ignore") if special is not None else contextlib.nullcontext():
        for t in (1, 2, 3):
            if t > 1:
                g = rng.standard_normal(dim) * 2.0 ** int(rng.integers(-30, 31))
            beta1t = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
            beta2 = rng.uniform(0.9, 0.9999)
            args = (beta1t, beta2, 1.0 - 0.9 ** t, 1.0 - beta2 ** t,
                    10.0 ** rng.uniform(-16, -2),
                    rng.uniform(0.01, 0.5) if p == "drawn" else p, use_max, power_eps)
            d_a = _kernels.moment_direction(m_a, v_a, max_a, g, *args)
            d_b = _moment_direction_expr(m_b, v_b, max_b, g, *args)
            for a, b in ((d_a, d_b), (m_a, m_b), (v_a, v_b), (max_a, max_b)):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("use_max", [False, True])
@pytest.mark.parametrize("power_eps", [False, True])
def test_moment_direction_makes_two_full_size_arrays(use_max, power_eps):
    dim = 100_000
    m, v, max_v, g, bc1, bc2 = _random_inputs(dim, seed=5)
    inputs = (m, v, max_v, g)
    # In place, and into a destination allocated before the count, as the
    # step's is.
    for m_out in (None, np.empty(dim)):
        args = (0.9, 0.999, bc1, bc2, 1e-8, 0.25, use_max, power_eps, m_out)
        # tracemalloc sees numpy's data buffers; without use_max the
        # expression form peaks at 3.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            first = _kernels.moment_direction(*inputs, *args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / first.nbytes <= 2.01
        assert not any(np.shares_memory(first, a) for a in inputs)
        kept = first.copy()
        second = _kernels.moment_direction(*inputs, *args)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)


def test_moment_direction_updates_in_place():
    m, v, max_v, g, bc1, bc2 = _random_inputs(5, seed=0)
    m_before = m.copy()
    v_before = v.copy()
    _kernels.moment_direction(m, v, max_v, g, 0.9, 0.999, bc1, bc2, 1e-8, 0.5,
                              False, True, m)
    assert np.allclose(m, 0.9 * m_before + 0.1 * g)
    assert np.allclose(v, 0.999 * v_before + 0.001 * g * g)


@pytest.mark.parametrize("p", [0.5, 0.25, 0.125])
def test_moment_direction_into_another_buffer_leaves_m_as_it_was(p):
    m, v, max_v, g, bc1, bc2 = _random_inputs(1000, seed=2)
    args = (0.9, 0.999, bc1, bc2, 1e-8, p)
    m_in_place, v_in_place = m.copy(), v.copy()
    want = _kernels.moment_direction(m_in_place, v_in_place, max_v.copy(), g, *args)
    m_before, out = m.copy(), np.full_like(m, np.nan)
    got = _kernels.moment_direction(m, v, max_v, g, *args, False, True, out)
    assert m.tobytes() == m_before.tobytes()
    for a, b in ((out, m_in_place), (got, want), (v, v_in_place)):
        assert a.tobytes() == b.tobytes()


def test_moment_direction_max_buffer_is_monotone():
    m, v, max_v, g, bc1, bc2 = _random_inputs(64, seed=4)
    before = max_v.copy()
    _kernels.moment_direction(m, v, max_v, g, 0.9, 0.999, bc1, bc2, 1e-8, 0.5,
                              use_max=True)
    assert np.all(max_v >= before)
    assert np.all(max_v >= v)


def test_moment_direction_eps_modes_differ():
    m, v, max_v, g, bc1, bc2 = _random_inputs(8, seed=9)
    d_pow = _kernels.moment_direction(m.copy(), v.copy(), max_v.copy(), g,
                                      0.9, 0.999, bc1, bc2, 1e-2, 0.25,
                                      power_eps=True)
    d_post = _kernels.moment_direction(m.copy(), v.copy(), max_v.copy(), g,
                                       0.9, 0.999, bc1, bc2, 1e-2, 0.25,
                                       power_eps=False)
    assert not np.allclose(d_pow, d_post, rtol=1e-6)


def test_padamp_starts_no_thread_and_imports_no_pool():
    # A kernel call at 2**17 elements and a run at d = 1e5 stay on the
    # calling thread.
    src = os.path.dirname(os.path.dirname(padamp.__file__))
    code = """
import sys, threading
import numpy as np
from padamp import _kernels
from padamp.harness import build_config, run
m, v, max_v, g = np.linspace(0.5, 2.0, 4 << 17).reshape(4, -1)
_kernels.moment_direction(m, v, max_v, g, 0.9, 0.999, 0.1, 0.001, 1e-8, 0.25)
run(build_config({}, {"objective.dim": "100000", "run.steps": "3"}))
assert threading.active_count() == 1, threading.enumerate()
assert not {m for m in sys.modules if m.startswith(("queue", "concurrent"))}
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99, 0.999])
def test_norm_growth_matches_loop(beta):
    rng = np.random.default_rng(2)
    for T in (1, 2, 3, 17, 1000, 100_000):
        u = rng.standard_normal(T) ** 2 / np.arange(1, T + 1)
        gd_a, gdm_a, _ = _kernels.norm_growth_arrays(u, beta, 0.3, 1.5)
        gd_b, gdm_b = _norm_growth_loop(u, beta, 0.3 ** 2, 1.5)
        # cumsum adds in order, so plain descent matches bit for bit; the
        # doubling scan regroups the momentum cross term's additions
        np.testing.assert_array_equal(gd_a, gd_b)
        if beta == 0.0:
            np.testing.assert_array_equal(gdm_a, gdm_b)
        else:
            np.testing.assert_allclose(gdm_a, gdm_b, rtol=1e-12, atol=0.0)


# T up to 300 is 0 to 18 full blocks of 16 lanes with every tail length.
# Each gdm entry sums at most T + 2 * 16 + log2(T) rounded terms of one sign,
# so its error stays under (T + 50) * 2**-53 = 3.9e-14 relative; 1e-13 leaves
# room for the longdouble reference's own rounding.
@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="needs an extended-precision longdouble")
@given(T=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       beta=st.one_of(st.just(0.0), st.floats(1e-300, 0.1),
                      st.floats(0.0, 1.0, exclude_max=True), st.floats(0.9, 1.0 - 1e-6)),
       zero_share=st.sampled_from([0.0, 0.1, 0.5]), eta=st.floats(1e-3, 1e3),
       theta0=st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
# The scan's last level at 2, 5, 9 and 17 block end values, where beta^16 is
# far from 0.
@example(T=49, seed=1, beta=0.9, zero_share=0.0, eta=1.0, theta0=0.0)
@example(T=97, seed=2, beta=0.99, zero_share=0.0, eta=1.0, theta0=0.0)
@example(T=161, seed=3, beta=0.999, zero_share=0.1, eta=1.0, theta0=1.0)
@example(T=289, seed=4, beta=0.999, zero_share=0.0, eta=0.1, theta0=0.0)
def test_norm_growth_lanes_match_step_loops_at_every_block_boundary(T, seed, beta,
                                                                     zero_share, eta,
                                                                     theta0):
    rng = np.random.default_rng(seed)
    u = 10.0 ** rng.uniform(-6, 6, T)
    u[rng.random(T) < zero_share] = 0.0
    gd, gdm, _ = _kernels.norm_growth_arrays(u, beta, eta, theta0)
    eta_sq = float(eta) ** 2
    assert gd.tobytes() == _norm_growth_loop(u, beta, eta_sq, theta0)[0].tobytes()
    if beta == 0.0:
        assert gdm.tobytes() == gd.tobytes()
    want = _norm_growth_longdouble_loop(u, beta, eta_sq, theta0).astype(np.float64)
    np.testing.assert_allclose(gdm, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("eta,theta0", [(0.3, 1.5), (0.1, 1.0), (2.0, 0.0)])
def test_norm_growth_matches_its_out_of_place_scan_bit_for_bit(beta, eta, theta0):
    rng = np.random.default_rng([int(beta * 1000), int(eta * 10)])
    for T in (1, 2, 3, 17, 1000, 100_000):
        u = rng.standard_normal(T) ** 2 / np.arange(1, T + 1)
        zero_led = u.copy()
        zero_led[:2] = 0.0
        for x in (u, zero_led):
            got = _kernels.norm_growth_arrays(x, beta, eta, theta0)[:2]
            want = _norm_growth_lane_expr(x, beta, eta, theta0)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


def test_norm_growth_makes_one_block_of_three_input_sized_rows():
    u = 1.0 / np.arange(1, 100_001, dtype=np.float64) ** 2
    # gd, gdm and the scan's scratch row; four separate arrays peaked at 4
    # and the out-of-place scan at 5.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        gd, gdm, _ = _kernels.norm_growth_arrays(u, 0.9, 0.1, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / u.nbytes <= 3.01
    assert gd.base is not None and gd.base is gdm.base
    assert not any(np.shares_memory(a, u) for a in (gd, gdm))


def test_norm_growth_shapes_and_start():
    u = np.ones(10)
    gd, gdm, _ = _kernels.norm_growth_arrays(u, 0.5, 2.0, 3.0)
    assert gd.shape == gdm.shape == (11,)
    assert gd[0] == 3.0 and gdm[0] == 3.0
    # first step has no history: both recursions add eta^2 * u_1
    assert gd[1] == gdm[1] == 3.0 + 4.0


def test_backend_reports_a_name():
    assert _kernels.backend() == "numpy"
