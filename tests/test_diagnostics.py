import numpy as np
import pytest

from padamp.core import HyperParams, ParamGroup, new_state, seeded_rng
from padamp.diagnostics import (
    DiagnosticsReport,
    LemmaMonitor,
    check_lemma2,
    momentum_norm_ratio_limit,
    simulate_norm_growth,
    track_convergence,
    validate_schedule,
)
from padamp.optimizers import make_step


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


@pytest.mark.parametrize(
    "u,beta,msg",
    [
        ([], 0.5, "non-empty"),
        ([1.0, -1.0], 0.5, "non-negative"),
        ([1.0], 1.0, r"beta must lie"),
        ([1.0], -0.1, r"beta must lie"),
        ([0.0, 0.0], 0.5, "total update norm is zero"),
    ],
)
def test_norm_growth_input_validation(u, beta, msg):
    with pytest.raises(ValueError, match=msg):
        simulate_norm_growth(u, beta=beta, eta=1.0, theta0_norm_sq=0.0)


def test_momentum_limit_values():
    assert momentum_norm_ratio_limit(0.0) == 1.0
    assert momentum_norm_ratio_limit(0.5) == 3.0
    assert momentum_norm_ratio_limit(0.9) == pytest.approx(19.0, rel=1e-12)
    assert momentum_norm_ratio_limit(0.99) == pytest.approx(199.0, rel=1e-12)


# ---------------------------------------------------- moment identity check

def test_lemma2_residual_is_rounding_level_for_consistent_inputs():
    m_prev = np.zeros(1)
    g = np.array([2.0])
    m = 0.9 * m_prev + 0.1 * g
    assert check_lemma2(m, m_prev, g, beta1t=0.9) < 1e-14


def test_lemma2_residual_on_random_recursion():
    rng = seeded_rng(11)
    m_prev = rng.standard_normal(40)
    g = rng.standard_normal(40)
    beta1t = 0.77
    m = beta1t * m_prev + (1.0 - beta1t) * g
    resid = check_lemma2(m, m_prev, g, beta1t)
    assert resid < 1e-12 * (1.0 + np.linalg.norm(m))


def test_lemma2_detects_inconsistent_moment():
    m_prev = np.zeros(3)
    g = np.ones(3)
    assert check_lemma2(g, m_prev, g, beta1t=0.9) > 1.0


def test_lemma2_beta_zero_is_plain_gradient():
    # A geometric beta1,t schedule underflows to 0, where m_t = g_t.
    g = np.array([2.0, -1.0])
    assert check_lemma2(g, np.ones(2), g, beta1t=0.0) == 0.0
    assert check_lemma2(np.zeros(2), np.ones(2), g, beta1t=0.0) > 1.0


@pytest.mark.parametrize("bad", [1.0, 1.5, -0.2])
def test_lemma2_rejects_degenerate_beta(bad):
    with pytest.raises(ValueError, match="beta1t"):
        check_lemma2(np.ones(2), np.zeros(2), np.ones(2), beta1t=bad)


# ------------------------------------------------------------- bound slacks

def test_replay_constant_gradient_upper_slack_decays_like_beta2_power():
    groups = [ParamGroup("theta", np.ones(1))]
    state = new_state(groups, HyperParams(beta2=0.999))
    step = make_step("padamp")
    steps = 200
    margins = []
    for _ in range(steps):
        out = step(state, groups, {"theta": np.ones(1)}, eta_t=1e-3)
        margins.append(out.record.lemma3_margin)
        groups = out.new_params
    # v_T = 1 - beta2^T and C1 = 1, so the tightest upper margin is beta2^T
    assert min(margins) == pytest.approx(0.999 ** steps, rel=1e-10)


def test_monitor_tracks_live_optimizer_steps():
    hp = HyperParams(weight_decay=0.0)
    groups = [ParamGroup("theta", seeded_rng(0).standard_normal(8))]
    state = new_state(groups, hp)
    step = make_step("padamp")
    monitor = LemmaMonitor()
    rng = seeded_rng(3)
    for t in range(1, 26):
        grads = {"theta": rng.standard_normal(8)}
        out = step(state, groups, grads, eta_t=1e-3)
        monitor.update(state, groups, out)
        assert out.record.lemma2_residual < 1e-10
    assert monitor.steps == 25
    for key, val in monitor.min_slacks.items():
        assert np.isfinite(val) and val >= 0.0, key


# -------------------------------------------------------- schedule verdicts

def test_schedule_power_law_window():
    ok = validate_schedule("power", c=0.1, a=0.75)
    assert ok.satisfies_assumptions and ok.non_increasing
    assert validate_schedule("power", c=0.1, a=1.0).satisfies_assumptions
    slow = validate_schedule("power", c=0.1, a=0.5)
    assert not slow.satisfies_assumptions
    assert "squared series" in slow.notes
    fast = validate_schedule("power", c=0.1, a=1.5)
    assert not fast.satisfies_assumptions
    assert "series converge" in fast.notes


def test_schedule_flat_families_are_flagged_but_runnable():
    for family in ("constant", "piecewise"):
        verdict = validate_schedule(family, c=0.1)
        assert verdict.family == family
        assert not verdict.satisfies_assumptions
        assert verdict.non_increasing


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
    np.testing.assert_array_equal(trace.t, [1, 2, 3, 4])
    np.testing.assert_array_equal(trace.running_min, [4.0, 1.0, 1.0, 0.5])
    assert trace.final_min == 0.5


def test_track_convergence_custom_checkpoints():
    trace = track_convergence([3.0, 2.0], ts=[50, 100])
    np.testing.assert_array_equal(trace.t, [50, 100])
    with pytest.raises(ValueError, match="equal length"):
        track_convergence([1.0, 2.0], ts=[1])


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
