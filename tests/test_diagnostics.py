import math
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padamp
from padamp._kernels import norm_growth_arrays
from padamp.core import HyperParams, ParamGroup, beta1_at, new_state, seeded_rng
from padamp.diagnostics import (
    LEMMA_COLUMNS,
    SLACK_COLUMNS,
    DiagnosticsReport,
    NormGrowthTrace,
    _group_lemmas,
    fold_lemmas,
    momentum_norm_ratio_limit,
    simulate_norm_growth,
    track_convergence,
    validate_schedule,
)
from padamp.geometry import norm
from padamp.harness import build_config, run
from padamp.optimizers import make_step

from lemma_oracle import one_step_lemmas, vector_lemmas


# ------------------------------------------------------------- norm growth

def test_norm_growth_first_steps_by_hand():
    # eta=1, theta0=0, u=(1,1): gd gains 1 per step; the momentum recursion
    # additionally gains 2*beta*u_1 = 1 at the second step
    trace = simulate_norm_growth([1.0, 1.0], beta=0.5, eta=1.0, theta0_norm_sq=0.0)
    assert (trace[0].t, trace[0].norm_sq_gd, trace[0].norm_sq_gdm) == (1, 1.0, 1.0)
    assert trace[0].ratio == 1.0
    assert (trace[1].t, trace[1].norm_sq_gd, trace[1].norm_sq_gdm) == (2, 2.0, 3.0)
    assert trace[1].ratio == 1.5


def test_norm_growth_offset_start_is_subtracted_from_ratio():
    trace = simulate_norm_growth([1.0], beta=0.9, eta=2.0, theta0_norm_sq=4.0)
    assert trace[0].norm_sq_gd == 8.0  # 4 + eta^2 * 1
    assert trace[0].ratio == 1.0


@pytest.mark.parametrize("beta,limit", [(0.5, 3.0), (0.9, 19.0), (0.99, 199.0)])
def test_norm_growth_ratio_reaches_momentum_limit(beta, limit):
    # finite burst of updates, then a long quiet tail: every update's
    # momentum echo is fully accumulated, so the ratio hits the limit
    u = np.zeros(10_000)
    u[:199] = 1.0
    trace = simulate_norm_growth(u, beta=beta, eta=0.1, theta0_norm_sq=1.0)
    assert trace[-1].ratio == pytest.approx(limit, rel=1e-2)
    assert trace[-1].ratio == pytest.approx(momentum_norm_ratio_limit(beta), rel=1e-9)


def test_norm_growth_beta_zero_matches_plain_descent_exactly():
    u = seeded_rng(0).random(50)
    for row in simulate_norm_growth(u, beta=0.0, eta=0.3, theta0_norm_sq=2.0):
        assert row.norm_sq_gdm == row.norm_sq_gd
        assert row.ratio == 1.0


def test_norm_growth_ratio_is_nan_before_first_update():
    trace = simulate_norm_growth([0.0, 0.0, 1.0], beta=0.9, eta=1.0,
                                 theta0_norm_sq=1.0)
    assert np.isnan(trace[0].ratio) and np.isnan(trace[1].ratio)
    assert trace[2].ratio == 1.0


@pytest.mark.parametrize("theta0", [0.0, 1.0, 1e20, 1e30])
def test_norm_growth_no_growth_prefix_is_the_compare_mask(theta0):
    # The nan prefix found by searchsorted on the non-decreasing growth is the
    # set of steps with grown <= 0. Against theta0 = 1e20 or 1e30, updates of
    # order 1 round away, so the growth is 0 past the leading zero updates.
    rng = seeded_rng(5)
    rounded_away = 0
    for _ in range(100):
        T = int(rng.integers(1, 60))
        u = 10.0 ** rng.uniform(-3, 3, T)
        leading = int(rng.integers(0, T))
        u[:leading] = 0.0
        u[-1] = max(u[-1], theta0 * 1e-3)  # the last step's growth shows
        beta = float(rng.uniform(0.0, 0.99))
        trace = simulate_norm_growth(u, beta=beta, eta=1.0, theta0_norm_sq=theta0)
        gd, gdm, _ = norm_growth_arrays(u, beta, 1.0, theta0)
        grown = gd[1:] - theta0
        with np.errstate(divide="ignore", invalid="ignore"):
            want = (gdm[1:] - theta0) / grown
        want[grown <= 0] = np.nan
        assert trace.ratio.tobytes() == want.tobytes()
        rounded_away += np.count_nonzero(grown[leading:] <= 0)
    assert (rounded_away > 0) == (theta0 >= 1e20)


def test_norm_growth_rows_are_the_kernel_arrays_bit_for_bit():
    # Two leading zero updates give two nan ratios.
    u = np.concatenate([[0.0, 0.0], seeded_rng(0).random(500) ** 4])
    beta, eta, theta0 = 0.9, 0.3, 2.0
    trace = simulate_norm_growth(u, beta=beta, eta=eta, theta0_norm_sq=theta0)
    gd, gdm, _ = norm_growth_arrays(u, beta, eta, theta0)
    with np.errstate(divide="ignore", invalid="ignore"):
        grown = gd[1:] - theta0
        ratio = np.where(grown > 0, (gdm[1:] - theta0) / grown, np.nan)
    expected = [(i + 1, float(gd[i + 1]), float(gdm[i + 1]), float(ratio[i]))
                for i in range(u.size)]

    def bits(rows):
        return [[np.float64(x).tobytes() for x in row] for row in rows]

    want = bits(expected)
    assert len(trace) == u.size
    assert bits(trace[i] for i in range(u.size)) == want
    assert bits([trace[-1]]) == want[-1:]
    assert bits([trace[-u.size + 5]]) == want[5:6]
    for s in (slice(None), slice(3, 400, 7), slice(-9, None), slice(None, None, -3),
              slice(10, 2)):
        assert bits(trace[s]) == want[s]
    assert bits(list(trace)) == want
    assert [type(x) for x in trace[0]] == [int, float, float, float]
    assert [type(x) for x in list(trace)[0]] == [int, float, float, float]
    assert [type(x) for x in trace[:1][0]] == [int, float, float, float]
    for i in (u.size, -u.size - 1):
        with pytest.raises(IndexError):
            trace[i]
    for col in (trace.norm_sq_gd, trace.norm_sq_gdm, trace.ratio):
        assert col.dtype == np.float64 and col.shape == (u.size,)
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0.0
    with pytest.raises(AttributeError):
        trace.ratio = ratio
    assert np.isnan(trace[1].ratio) and not np.isnan(trace[2].ratio)
    assert all(type(row) is NormGrowthTrace for row in trace)
    assert NormGrowthTrace._fields == ("t", "norm_sq_gd", "norm_sq_gdm", "ratio")
    with pytest.raises(AttributeError):
        trace[0].ratio = 0.0


def test_norm_growth_call_allocates_columns_not_rows():
    # At T = 1e5 (0.8 MB per float column) a list of T row tuples peaks at
    # 25.6 MB under tracemalloc. The call peaks at 3.3 MB once the kernel has
    # returned: the kernel's (3, T + 1) block, which holds gd, gdm and the
    # ratio, plus the ratio's divisor and a T-byte mask. A kernel with a fresh
    # array per scan level made the call peak at 4.9 MB.
    u = 1.0 / np.arange(1, 100_001, dtype=np.float64) ** 2
    tracemalloc.start()
    try:
        trace = simulate_norm_growth(u, beta=0.9, eta=0.1, theta0_norm_sq=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == u.size
    assert peak < 3.6e6, peak


_FAULT_SCRIPT = """
import resource
import numpy as np
from padamp.diagnostics import simulate_norm_growth
u = 1.0 / np.arange(1, 100_001, dtype=np.float64) ** 2
for _ in range(3):
    simulate_norm_growth(u, beta=0.9, eta=0.1, theta0_norm_sq=1.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    simulate_norm_growth(u, beta=0.9, eta=0.1, theta0_norm_sq=1.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts on glibc's dynamic mmap and trim thresholds")
def test_warm_norm_growth_calls_make_no_page_faults():
    # A fresh interpreter, because earlier calls in this process may already
    # have raised glibc's thresholds past what one call needs. The kernel's one
    # (3, T + 1) block raises them far enough that the heap is not trimmed
    # between calls; four separate arrays made 774 minor faults per call.
    src = os.path.dirname(os.path.dirname(padamp.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert int(out.stdout) < 50, out.stdout


@pytest.mark.parametrize(
    "u,beta,msg",
    [
        ([], 0.5, "non-empty"),
        ([1.0, -1.0], 0.5, "non-negative"),
        ([1.0], 1.0, r"beta must lie"),
        ([1.0], -0.1, r"beta must lie"),
        ([0.0, 0.0], 0.5, "total update norm is zero"),
        ([np.nan, 1.0], 0.9, r"update_norms_sq must be finite, got update_norms_sq\[0\]=nan"),
        ([1.0, 2.0, np.inf], 0.9, r"update_norms_sq\[2\]=inf"),
        ([1.0, -np.inf], 0.9, r"update_norms_sq\[1\]=-inf"),
        ([-1.0, 1.0, np.nan], 0.9, r"update_norms_sq\[2\]=nan"),
    ],
)
def test_norm_growth_input_validation(u, beta, msg):
    with pytest.raises(ValueError, match=msg):
        simulate_norm_growth(u, beta=beta, eta=1.0, theta0_norm_sq=0.0)


@pytest.mark.parametrize("eta,theta0,msg", [
    (0.0, 1.0, "eta must be"),
    (-1.0, 1.0, "eta must be"),
    (np.nan, 1.0, "eta must be"),
    (np.inf, 1.0, "eta must be"),
    (1.0, -5.0, "theta0_norm_sq must be"),
    (1.0, np.nan, "theta0_norm_sq must be"),
    (1.0, np.inf, "theta0_norm_sq must be"),
])
def test_norm_growth_rejects_meaningless_eta_and_start(eta, theta0, msg):
    with pytest.raises(ValueError, match=msg):
        simulate_norm_growth([1.0], beta=0.5, eta=eta, theta0_norm_sq=theta0)


@pytest.mark.parametrize("eta,theta0,msg", [
    (1e-170, 1.0, r"eta\*\*2 must be a normal float, got eta=1e-170"),
    (1e-160, 0.0, r"eta\*\*2 must be a normal float"),
    (1e200, 1.0, r"eta\*\*2 must be a normal float, got eta=1e\+200"),
    (1.0, 1e30, r"final growth ratio is nan: .* theta0_norm_sq=1e\+30"),
    (1e150, 0.0, r"final growth ratio is (inf|nan): .* eta\*\*2"),
])
def test_norm_growth_rejects_an_eta_square_or_start_that_leaves_no_ratio(eta, theta0,
                                                                        msg):
    # Each gave a nan or inf final ratio, or an OverflowError, before.
    with pytest.raises(ValueError, match=msg):
        simulate_norm_growth([1.0, 1e10, 1.0], beta=0.5, eta=eta, theta0_norm_sq=theta0)


def test_momentum_limit_values():
    assert momentum_norm_ratio_limit(0.0) == 1.0
    assert momentum_norm_ratio_limit(0.5) == 3.0
    assert momentum_norm_ratio_limit(0.9) == pytest.approx(19.0, rel=1e-12)
    assert momentum_norm_ratio_limit(0.99) == pytest.approx(199.0, rel=1e-12)


# ---------------------------------------------------- moment identity check

def _lemma2(m, m_prev, g, beta1t):
    # The lemma-2 residual of _group_lemmas, which is scaled by 1 + ||m||.
    ones = np.ones_like(m)
    return one_step_lemmas(m, m_prev, ones, g, beta1t, 1.0, 1e-8, 0.5, ones, norm(ones))[0]


def test_lemma2_residual_is_rounding_level_for_consistent_inputs():
    m_prev = np.zeros(1)
    g = np.array([2.0])
    m = 0.9 * m_prev + 0.1 * g
    assert _lemma2(m, m_prev, g, beta1t=0.9) < 1e-14


def test_lemma2_residual_on_random_recursion():
    rng = seeded_rng(11)
    m_prev = rng.standard_normal(40)
    g = rng.standard_normal(40)
    beta1t = 0.77
    m = beta1t * m_prev + (1.0 - beta1t) * g
    assert _lemma2(m, m_prev, g, beta1t) < 1e-12


def test_lemma2_detects_inconsistent_moment():
    m_prev = np.zeros(3)
    g = np.ones(3)
    assert _lemma2(g, m_prev, g, beta1t=0.9) > 1.0


def test_lemma2_beta_zero_is_plain_gradient():
    # A geometric beta1,t schedule underflows to 0, where m_t = g_t.
    g = np.array([2.0, -1.0])
    assert _lemma2(g, np.ones(2), g, beta1t=0.0) == 0.0
    assert _lemma2(np.zeros(2), np.ones(2), g, beta1t=0.0) > 1.0


# ------------------------------------------------------------- bound slacks

def test_replay_constant_gradient_upper_slack_decays_like_beta2_power():
    groups = [ParamGroup("theta", np.ones(1))]
    state = new_state(groups, HyperParams(beta2=0.999))
    step = make_step("padamp")
    steps = 200
    margins = []
    for _ in range(steps):
        out = step(state, groups, {"theta": np.ones(1)}, eta_t=1e-3)
        margins.append(out.record["lemma3_margin"])
        groups = out.new_params
    # v_T = 1 - beta2^T and C1 = 1, so the tightest upper margin is beta2^T
    assert min(margins) == pytest.approx(0.999 ** steps, rel=1e-10)


def test_monitor_tracks_live_optimizer_steps():
    hp = HyperParams(weight_decay=0.0)
    groups = [ParamGroup("theta", seeded_rng(0).standard_normal(8))]
    state = new_state(groups, hp)
    step = make_step("padamp")
    rng = seeded_rng(3)
    for t in range(1, 26):
        grads = {"theta": rng.standard_normal(8)}
        theta = groups[0].values
        out = step(state, groups, grads, eta_t=1e-3)
        lemmas = one_step_lemmas(state.m["theta"], state.m_prev["theta"], state.v["theta"],
                                  grads["theta"], beta1_at(t, hp), state.c1["theta"],
                                  hp.epsilon, hp.p, theta, norm(theta))
        assert out.record["lemma2_residual"] < 1e-10
        # The eight lemma columns close the step's record, each the group's value.
        assert list(out.record)[-8:] == list(LEMMA_COLUMNS)
        for key, want in zip(LEMMA_COLUMNS, lemmas):
            assert _bits(out.record[key]) == _bits(want), (t, key)
        for key in SLACK_COLUMNS:
            value = out.record[key]
            assert np.isfinite(value) and value >= 0.0, (t, key)
        groups = out.new_params


@settings(max_examples=300)
@given(st.floats(1e-16, 1e-2), st.floats(0.0, 0.5, exclude_min=True),
       st.integers(1, 64), st.floats(0.0, 2.0 ** -54))
def test_lemma4_upper_slack_holds_once_v_underflows_eps(eps, p, dim, tiny):
    # v + eps rounds to eps below eps * 2**-53, so max(inv) is the bound itself.
    rng = seeded_rng(dim)
    v = rng.uniform(0.0, 1.0, dim)
    v[rng.integers(dim)] = tiny * eps
    m, m_prev, g, theta = rng.standard_normal((4, dim))
    lemmas = one_step_lemmas(m, m_prev, v, g, 0.9, 1.0, eps, p, theta,
                              float(np.linalg.norm(theta)))
    assert lemmas[LEMMA_COLUMNS.index("lemma4_upper")] >= 0.0


def _check_lemma2_oracle(m_t, m_prev, g_t, beta1t):
    # The out-of-place body of check_lemma2, the public lemma-2 check the
    # step called before _group_lemmas.
    rhs = -g_t + (beta1t / (1.0 - beta1t)) * (m_t - m_prev)
    return float(np.linalg.norm(-m_t - rhs))


def _bound_slacks_oracle(m, m_prev, v, g, c1, eps, p, theta, theta_norm):
    # The out-of-place body of _bound_slacks, which computed the slacks
    # before _group_lemmas.
    # At p = 1/4 _group_lemmas' power is two square roots; every other p is **.
    power = (lambda x: np.sqrt(np.sqrt(x))) if p == 0.25 else (lambda x: x ** p)
    denom = power(v + eps)
    inv = 1.0 / denom
    lo, hi = 1.0 / power(np.array([c1 * c1 + eps, eps]))
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


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=300)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64), st.floats(1e-16, 1e-2),
       st.one_of(st.just(0.5), st.just(0.25), st.floats(0.0, 0.5, exclude_min=True)),
       st.floats(0.0, 2.0 ** -54), st.booleans(), st.floats(-30.0, 30.0),
       st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
def test_bound_slacks_match_the_out_of_place_oracle_bitwise(seed, dim, eps, p, tiny,
                                                            zero_theta, log_scale, beta1t):
    # _group_lemmas against the three out-of-place forms it replaced: the
    # check_lemma2 body, the step's inline lemma-3 margin and _bound_slacks.
    rng = seeded_rng(seed)
    scale = 2.0 ** log_scale
    m, m_prev, g, theta = rng.standard_normal((4, dim)) * scale
    v = rng.uniform(0.0, 1.0, dim) * scale * scale
    v[rng.integers(dim)] = tiny * eps
    if zero_theta:
        theta[:] = 0.0
    c1 = float(np.sqrt(v.max())) + float(rng.uniform(0.0, 1.0))
    theta_norm = float(np.linalg.norm(theta))
    arrays = (m, m_prev, v, g, theta)
    copies = [np.copy(a) for a in arrays]
    resid, margin, *slacks = one_step_lemmas(m, m_prev, v, g, beta1t, c1, eps, p,
                                              theta, theta_norm)
    assert _bits(resid) == _bits(_check_lemma2_oracle(m, m_prev, g, beta1t) / (1.0 + norm(m)))
    assert _bits(margin) == _bits(float(c1 ** 2 - np.max(v)))
    want = _bound_slacks_oracle(m, m_prev, v, g, c1, eps, p, theta, theta_norm)
    assert list(SLACK_COLUMNS) == list(want)
    for key, value in zip(SLACK_COLUMNS, slacks):
        assert _bits(value) == _bits(want[key]), key
    for before, after in zip(copies, arrays):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("p", [0.25, 0.5])
def test_group_lemmas_returns_python_floats(p):
    # _group_lemmas returns a (k, 8) float64 array, and a record holds its
    # entries as Python floats, from the step's own call and from a flush.
    rng = seeded_rng(5)
    m, m_prev, g, theta = rng.standard_normal((4, 3, 20))
    v = rng.uniform(0.0, 1.0, (3, 20))
    rows = _group_lemmas(m, m_prev, v, g, np.full(3, 0.9), np.full(3, 2.0), 1e-8, p,
                         theta, np.linalg.norm(theta, axis=1))
    assert rows.shape == (3, len(LEMMA_COLUMNS)) and rows.dtype == np.float64
    groups = [ParamGroup("theta", theta[0])]
    out = make_step("padamp")(new_state(groups, HyperParams(p=p)), groups,
                              {"theta": g[0]}, 1e-3)
    records = [out.record, *run(build_config({"hp.p": str(p), "run.steps": "3"})).records]
    assert all(type(r[c]) is float for r in records for c in LEMMA_COLUMNS)


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 300),
       st.one_of(st.just(0.5), st.just(0.25), st.floats(0.0, 0.5, exclude_min=True)),
       st.floats(-30.0, 30.0), st.booleans())
def test_group_lemmas_rows_match_one_row_calls_bitwise(seed, k, dim, p, log_scale,
                                                       zero_theta):
    # Row i of a k-row call is the 1-row call on row i, bit for bit: every
    # reduction runs along a row and each row dot is the vector dot. This
    # leans on numpy's stacked matmul taking BLAS's dot, so CI runs it under
    # OpenBLAS's Zen kernels too.
    rng = seeded_rng(seed)
    scale = 2.0 ** log_scale
    m, m_prev, g, theta = rng.standard_normal((4, k, dim)) * scale
    v = rng.uniform(0.0, 1.0, (k, dim)) * scale * scale
    if zero_theta:
        theta[rng.integers(k)] = 0.0
    beta1t = rng.uniform(0.0, 1.0, k)
    c1 = np.sqrt(v.max(axis=1)) + rng.uniform(0.0, 1.0, k)
    theta_norm = np.array([norm(row) for row in theta])
    rows = _group_lemmas(m, m_prev, v, g, beta1t, c1, 1e-8, p, theta, theta_norm)
    for i in range(k):
        one = vector_lemmas(m[i], m_prev[i], v[i], g[i], float(beta1t[i]), float(c1[i]),
                             1e-8, p, theta[i], float(theta_norm[i]))
        assert rows[i].tobytes() == one[0].tobytes(), i


_SPECIALS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]


def _python_fold(rows):
    """Successive groups' lemma rows folded with Python's max for the
    residual and its min for every other entry."""
    want = rows[0]
    for found in rows[1:]:
        want = [max(want[0], found[0]), *map(min, want[1:], found[1:])]
    return want


@given(st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIALS)),
                         min_size=8, max_size=8), min_size=1, max_size=4))
def test_fold_lemmas_picks_what_python_max_and_min_pick(groups):
    # One 8-entry row per group, nan and infinities included.
    acc = np.array([groups[0]])
    for found in groups[1:]:
        fold_lemmas(acc, np.array([found]))
    assert acc.tobytes() == np.array([_python_fold(groups)]).tobytes()


def test_fold_lemmas_on_every_pair_of_special_values():
    # Row i folds the i-th ordered pair of nan, -nan, +-inf, +-0 and +-1 in
    # every column, so each sign of zero and each nan meets every value.
    pairs = [(a, b) for a in _SPECIALS for b in _SPECIALS]
    acc = np.array([[a] * 8 for a, _ in pairs])
    fold_lemmas(acc, np.array([[b] * 8 for _, b in pairs]))
    want = [_python_fold([[a] * 8, [b] * 8]) for a, b in pairs]
    assert acc.tobytes() == np.array(want).tobytes()


def test_converged_run_passes_the_lemma4_upper_bound():
    # The loss reaches about 1e-140 and some v falls below eps * 2**-53.
    result = run(build_config({"hp.p": "0.05", "hp.beta2": "0.5",
                               "schedule.eta0": "0.1", "run.steps": "3000"}))
    assert result.report.all_passed, result.report


# -------------------------------------------------------- schedule verdicts

def test_schedule_power_law_window():
    assert validate_schedule("power", c=0.1, a=0.75) is True
    assert validate_schedule("power", c=0.1, a=1.0) is True
    assert validate_schedule("power", c=0.1, a=0.5) is False  # squared series diverges
    assert validate_schedule("power", c=0.1, a=1.5) is False  # series converges


def test_schedule_flat_families_are_flagged_but_runnable():
    for family in ("constant", "piecewise"):
        assert validate_schedule(family, c=0.1) is False


def test_schedule_validation_errors():
    with pytest.raises(ValueError, match="positive"):
        validate_schedule("power", c=0.0, a=0.75)
    with pytest.raises(ValueError, match="positive exponent"):
        validate_schedule("power", c=0.1)
    with pytest.raises(ValueError, match="unknown schedule family"):
        validate_schedule("cosine", c=0.1)


# ------------------------------------------------------ convergence tracker

def test_track_convergence_running_min():
    trace = track_convergence([4.0, 1.0, 2.0, 0.5])
    np.testing.assert_array_equal(trace.running_min, [4.0, 1.0, 1.0, 0.5])
    assert trace.final_min == 0.5


def test_track_convergence_empty_sequence():
    trace = track_convergence([])
    assert trace.running_min.size == 0
    assert np.isnan(trace.final_min)


# --------------------------------------------------------------- report I/O

def test_report_accumulates_and_serializes(tmp_path):
    report = DiagnosticsReport()
    report.add("alpha", 1.5, True)
    report.add("beta", np.float64(0.25), False)
    assert not report.all_passed
    text = str(report)
    assert "PASS  alpha = 1.5" in text
    assert "FAIL  beta = 0.25" in text

    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "check,value,passed"
    assert lines[1] == "alpha,1.5,1"
    assert lines[2] == "beta,0.25,0"


def test_report_all_passed_on_empty_and_green():
    report = DiagnosticsReport()
    assert report.all_passed
    report.add("x", 0.0, True)
    assert report.all_passed
