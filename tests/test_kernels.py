"""The vectorized kernels against explicit per-element and per-step loops."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def _norm_growth_doubling_expr(u, beta, eta, theta0_sq):
    # The kernel's doubling scan in its out-of-place form: a fresh array per
    # level, then concatenate and cumsum. The in-place kernel must give these
    # bits exactly.
    eta_sq = float(eta) ** 2
    acc = beta * u
    k, w = 1, beta
    while k < u.size and w != 0.0:
        acc[k:] = acc[k:] + w * acc[:-k]
        k, w = 2 * k, w * w
    cross = np.zeros_like(u)
    cross[1:] = acc[:-1]
    start = np.array([float(theta0_sq)])
    gd = np.cumsum(np.concatenate((start, eta_sq * u)))
    gdm = np.cumsum(np.concatenate((start, eta_sq * u + 2.0 * eta_sq * cross)))
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
# elements up, so only dims 1000 and 1e5 exercise that path.
@pytest.mark.parametrize("dim", [1, 7, 20, 1000, 100_000])
@pytest.mark.parametrize("use_max", [False, True])
@pytest.mark.parametrize("power_eps", [False, True])
@pytest.mark.parametrize("p", [0.5, 0.25, "drawn"])
def test_moment_direction_matches_its_expressions_bit_for_bit(dim, use_max, power_eps, p):
    rng = np.random.default_rng([dim, use_max, power_eps, [0.5, 0.25, "drawn"].index(p)])
    m_a, v_a, max_a, _, _, _ = _random_inputs(dim, seed=int(rng.integers(2 ** 32)))
    m_b, v_b, max_b = m_a.copy(), v_a.copy(), max_a.copy()
    # Three consecutive steps on the same state, as a run makes them.
    for t in (1, 2, 3):
        g = rng.standard_normal(dim) * 2.0 ** int(rng.integers(-30, 31))
        beta1t = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        beta2 = rng.uniform(0.9, 0.9999)
        args = (beta1t, beta2, 1.0 - 0.9 ** t, 1.0 - beta2 ** t,
                10.0 ** rng.uniform(-16, -2), rng.uniform(0.01, 0.5) if p == "drawn" else p,
                use_max, power_eps)
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
            want = _norm_growth_doubling_expr(x, beta, eta, theta0)
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
