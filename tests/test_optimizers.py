import cProfile
import math
import pstats
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padamp.core import HyperParams, ParamGroup, beta1_at, new_state
from padamp import diagnostics
from padamp.diagnostics import (
    LEMMA_COLUMNS, SLACK_COLUMNS, TelemetryTable, is_int_column, step_columns)
from padamp.geometry import norm
from padamp.harness import build_config, run
from padamp import optimizers
from padamp.optimizers import OptimizerKind, make_step

from lemma_oracle import one_step_lemmas
from table_step import table_step

padamp_step, adamp_step, padam_step, adam_step, amsgrad_step, sgdm_step = (
    make_step(k) for k in ("padamp", "adamp", "padam", "adam", "amsgrad", "sgdm"))


def _one_group(values):
    return [ParamGroup("theta", np.asarray(values, dtype=np.float64))]


def _grads(values):
    return {"theta": np.asarray(values, dtype=np.float64)}


def test_padamp_first_step_scalar():
    # theta = 1, g = 1: m_hat = v_hat = 1 after bias correction, so the step
    # is eta / (1 + eps)^p regardless of beta values.
    hp = HyperParams(eta0=1e-3, p=0.5, weight_decay=0.0)
    state = new_state(_one_group([1.0]), hp)
    new, cols = table_step(padamp_step, state, _one_group([1.0]), _grads([1.0]), eta_t=1e-3)
    expected = 1.0 - 1e-3 / np.sqrt(1.0 + 1e-8)
    assert new[0].values[0] == pytest.approx(expected, rel=1e-15)
    assert state.t == 1
    assert not cols["theta_projected"][0]
    assert cols["p_now"][0] == 0.5


def test_adam_first_step_scalar_is_almost_eta():
    hp = HyperParams(weight_decay=0.0)
    state = new_state(_one_group([1.0]), hp)
    new, _ = table_step(adam_step, state, _one_group([1.0]), _grads([1.0]), eta_t=1e-3)
    assert new[0].values[0] == pytest.approx(0.999, abs=1e-6)


def test_padamp_with_trigger_disabled_matches_adam_bitwise():
    hp = HyperParams(delta=0.0, weight_decay=0.0)
    rng = np.random.default_rng(11)
    theta0 = rng.standard_normal(12)

    pa_state = new_state(_one_group(theta0), hp)
    ad_state = new_state(_one_group(theta0), hp)
    pa = _one_group(theta0)
    ad = _one_group(theta0)
    for _ in range(20):
        g = rng.standard_normal(12)
        pa, _ = table_step(padamp_step, pa_state, pa, _grads(g), 1e-3, p_now=0.5)
        ad, _ = table_step(adam_step, ad_state, ad, _grads(g), 1e-3)
        assert np.array_equal(pa[0].values, ad[0].values)


_unit_open = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=100)
@given(st.builds(
    HyperParams, beta1=_unit_open, beta2=_unit_open,
    lam=st.floats(0.0, 1.0, exclude_min=True), epsilon=st.floats(1e-12, 1e-2),
    p=st.floats(0.0, 0.5, exclude_min=True), weight_decay=st.floats(0.0, 0.5),
    eps_mode=st.sampled_from(["power", "post"]),
    wd_mode=st.sampled_from(["decoupled", "coupled"]),
    trigger_lr_mode=st.sampled_from(["scheduled", "base"]), delta=st.just(0.0)),
    st.integers(0, 2 ** 32 - 1))
def test_padamp_at_half_power_without_trigger_is_adam_bitwise(hp, seed):
    # The p = 1/2 reduction: with delta = 0 padamp never projects.
    rng = np.random.default_rng(seed)
    theta0 = rng.standard_normal(6)
    states = [new_state(_one_group(theta0), hp) for _ in range(2)]
    pa = ad = _one_group(theta0)
    for _ in range(5):
        grads = _grads(rng.standard_normal(6))
        pa, cols_pa = table_step(padamp_step, states[0], pa, grads, 1e-2, p_now=0.5)
        ad, cols_ad = table_step(adam_step, states[1], ad, grads, 1e-2)
        assert np.array_equal(pa[0].values, ad[0].values)
        assert cols_pa.keys() == cols_ad.keys()
        assert all(cols_pa[k].tobytes() == cols_ad[k].tobytes() for k in cols_pa)


def test_projection_triggers_on_orthogonal_gradient():
    hp = HyperParams(weight_decay=0.0)
    theta = np.array([1.0, 0.0])
    state = new_state(_one_group(theta), hp)
    new, cols = table_step(padamp_step, state, _one_group(theta), _grads([0.0, 1.0]),
                           eta_t=1e-3)
    assert cols["theta_projected"][0]
    assert cols["theta_cos_sim"][0] == 0.0
    # the projected step leaves the radial coordinate untouched
    step = new[0].values - theta
    assert abs(step @ theta) < 1e-15


def test_projection_not_triggered_on_aligned_gradient():
    hp = HyperParams(weight_decay=0.0)
    theta = np.array([1.0, 0.0])
    state = new_state(_one_group(theta), hp)
    _, cols = table_step(padamp_step, state, _one_group(theta), _grads([1.0, 0.0]),
                         eta_t=1e-3)
    assert not cols["theta_projected"][0]


def test_adamp_trigger_ignores_learning_rate():
    # With a minute learning rate the scheduled trigger threshold collapses,
    # but the rate-free variant still fires on a nearly orthogonal gradient.
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    g = np.array([0.01, 1.0, 0.0, 0.0])
    hp = HyperParams(weight_decay=0.0)

    state = new_state(_one_group(theta), hp)
    _, cols = table_step(padamp_step, state, _one_group(theta), _grads(g), eta_t=1e-6)
    assert not cols["theta_projected"][0]

    state = new_state(_one_group(theta), hp)
    _, cols = table_step(adamp_step, state, _one_group(theta), _grads(g), eta_t=1e-6)
    assert cols["theta_projected"][0]


def test_trigger_lr_mode_base_uses_eta0():
    # cos ~ 0.02; the scheduled threshold 0.1 * 1e-4 / sqrt(2) ~ 7e-6 does not
    # fire, but with trigger_lr_mode="base" the threshold stays at
    # 0.1 * eta0 / sqrt(2) ~ 0.07 > cos.
    theta = np.array([1.0, 0.0])
    g = np.array([0.02, 1.0])
    g = g / np.linalg.norm(g) * 3.0
    hp = HyperParams(eta0=1.0, weight_decay=0.0, trigger_lr_mode="base")
    state = new_state(_one_group(theta), hp)
    _, cols = table_step(padamp_step, state, _one_group(theta), _grads(g), eta_t=1e-4)
    assert cols["theta_projected"][0]

    hp2 = replace(hp, trigger_lr_mode="scheduled")
    state2 = new_state(_one_group(theta), hp2)
    _, cols2 = table_step(padamp_step, state2, _one_group(theta), _grads(g), eta_t=1e-4)
    assert not cols2["theta_projected"][0]


def test_decoupled_weight_decay_applied_before_step():
    hp = HyperParams(weight_decay=0.1, eta0=1e-2)
    theta = np.array([2.0, 0.0])
    state = new_state(_one_group(theta), hp)
    new, _ = table_step(padamp_step, state, _one_group(theta), _grads([1.0, 0.0]),
                        eta_t=1e-2)
    direction = 1.0 / (1.0 + 1e-8) ** hp.p  # scalar-like: all mass on coord 0
    expected0 = (1.0 - 1e-2 * 0.1) * 2.0 - 1e-2 * direction
    assert new[0].values[0] == pytest.approx(expected0, rel=1e-12)


def test_weight_decay_skipped_for_projected_groups():
    hp = HyperParams(weight_decay=0.5, eta0=1e-3)
    theta = np.array([1.0, 0.0])
    g = np.array([0.0, 1.0])  # orthogonal -> projected

    state = new_state(_one_group(theta), hp)
    new, cols = table_step(padamp_step, state, _one_group(theta), _grads(g), eta_t=1e-3)
    assert cols["theta_projected"][0]
    # no decay: radial coordinate unchanged
    assert new[0].values[0] == 1.0

    hp2 = replace(hp, wd_skip_projected=False)
    state2 = new_state(_one_group(theta), hp2)
    new2, _ = table_step(padamp_step, state2, _one_group(theta), _grads(g), eta_t=1e-3)
    assert new2[0].values[0] == pytest.approx(1.0 - 1e-3 * 0.5)


def test_coupled_weight_decay_feeds_moments():
    hp = HyperParams(weight_decay=0.1, wd_mode="coupled")
    theta = np.array([2.0])
    state = new_state(_one_group(theta), hp)
    table_step(padamp_step, state, _one_group(theta), _grads([1.0]), eta_t=1e-3)
    # m_1 = (1 - beta1) * (g + wd * theta)
    assert state.m["theta"][0] == pytest.approx(0.1 * (1.0 + 0.1 * 2.0), rel=1e-15)


def test_coupled_decay_c1_is_the_decayed_gradient_norm():
    # C1 bounds the gradient the moments see, g + wd * theta, a running max
    # over steps.
    hp = HyperParams(weight_decay=0.5, wd_mode="coupled")
    theta, state = np.array([2.0, -1.0]), new_state(_one_group([2.0, -1.0]), hp)
    table_step(padamp_step, state, _one_group(theta), _grads([0.5, 0.25]), 1e-3)
    assert state.c1["theta"] == norm(np.array([0.5, 0.25]) + 0.5 * theta)
    table_step(padamp_step, state, _one_group(theta), _grads([-1.0, 0.5]), 1e-3)
    assert state.c1["theta"] == norm(np.array([0.5, 0.25]) + 0.5 * theta)


@settings(max_examples=100)
@given(st.sampled_from(["adam", "padam", "amsgrad", "padamp"]),
       st.builds(HyperParams, beta1=_unit_open, beta2=_unit_open,
                 lam=st.floats(0.0, 1.0, exclude_min=True), epsilon=st.floats(1e-12, 1e-2),
                 p=st.floats(0.0, 0.5, exclude_min=True),
                 eps_mode=st.sampled_from(["power", "post"]), delta=st.just(0.0)),
       st.floats(0.0, 0.5, exclude_min=True), st.floats(1e-4, 1e-1), st.integers(1, 40),
       st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_coupled_decay_is_l2_regularisation_bitwise(kind, hp, wd, eta, dim, steps, seed):
    # Coupled decay wd on gradient g is no decay on g + wd * theta, the
    # gradient of f + (wd/2)||theta||^2: the same parameters and the same
    # eight lemma columns, bit for bit, C1 included. Decoupled decay is not
    # (arXiv:1711.05101). padamp takes part at delta = 0, where it never
    # projects.
    step = make_step(kind)
    rng = np.random.default_rng(seed)
    theta0 = rng.standard_normal(dim)
    states = [new_state(_one_group(theta0), replace(hp, weight_decay=wd, wd_mode="coupled")),
              new_state(_one_group(theta0), replace(hp, weight_decay=0.0))]
    coupled = l2 = _one_group(theta0)
    for _ in range(steps):
        g = rng.standard_normal(dim)
        theta = l2[0].values
        coupled, cols_coupled = table_step(step, states[0], coupled, _grads(g), eta)
        l2, cols_l2 = table_step(step, states[1], l2, _grads(g + wd * theta), eta)
        assert coupled[0].values.tobytes() == l2[0].values.tobytes()
        for c in LEMMA_COLUMNS:
            assert cols_coupled[c].tobytes() == cols_l2[c].tobytes(), c


@pytest.mark.parametrize("fn", [padamp_step, sgdm_step])
def test_step_slacks_use_the_gradients_the_moments_saw(fn):
    theta = np.array([2.0, -1.0])
    g = np.array([0.5, 0.25])
    hp = HyperParams(weight_decay=0.1, wd_mode="coupled")
    state = new_state(_one_group(theta), hp)
    _, cols = table_step(fn, state, _one_group(theta), _grads(g), 1e-3)
    lemmas = tuple(cols[c][0] for c in LEMMA_COLUMNS)
    if fn is sgdm_step:
        assert all(math.isnan(x) for x in lemmas)
        return
    # Under coupled decay the moments see g + wd * theta; so do the lemmas.
    assert lemmas == one_step_lemmas(
        state.m["theta"], state.m_prev["theta"], state.v["theta"], g + 0.1 * theta,
        beta1_at(1, hp), state.c1["theta"], hp.epsilon, hp.p, theta, norm(theta))


def test_amsgrad_uses_max_buffer():
    hp = HyperParams(beta2=0.5, weight_decay=0.0)
    theta = np.array([1.0])
    ams_state = new_state(_one_group(theta), hp)
    adam_state = new_state(_one_group(theta), hp)

    ams = _one_group(theta)
    adam = _one_group(theta)
    # large gradient then small ones: v decays but max_v holds the peak
    for g in ([4.0], [0.1], [0.1], [0.1]):
        ams, _ = table_step(amsgrad_step, ams_state, ams, _grads(g), 1e-2)
        adam, _ = table_step(adam_step, adam_state, adam, _grads(g), 1e-2)
    assert ams_state.max_v["theta"][0] > ams_state.v["theta"][0]
    # the max buffer makes amsgrad's denominator larger -> smaller steps
    assert ams[0].values[0] > adam[0].values[0]


def test_padam_power_and_max_tracking():
    hp = HyperParams(p=0.125, weight_decay=0.0)
    theta = np.array([1.0])
    state = new_state(_one_group(theta), hp)
    new, cols = table_step(padam_step, state, _one_group(theta), _grads([2.0]), eta_t=1e-3)
    # uncorrected max_v = v = (1-beta2) g^2; direction = m_hat / (v_max + eps)^p
    v = (1 - 0.999) * 4.0
    expected = 1.0 - 1e-3 * (2.0 / (v + 1e-8) ** 0.125)
    assert new[0].values[0] == pytest.approx(expected, rel=1e-12)
    assert cols["p_now"][0] == 0.125


def test_p_now_overrides_hyperparameter():
    hp = HyperParams(p=0.25, weight_decay=0.0)
    state = new_state(_one_group([1.0]), hp)
    _, cols = table_step(padamp_step, state, _one_group([1.0]), _grads([1.0]), 1e-3,
                         p_now=0.125)
    assert cols["p_now"][0] == 0.125
    with pytest.raises(ValueError):
        table_step(padamp_step, state, _one_group([1.0]), _grads([1.0]), 1e-3, p_now=0.75)


def test_geometric_beta1t_keeps_base_bias_correction():
    hp = HyperParams(beta1=0.9, lam=0.5, weight_decay=0.0, p=0.5)
    state = new_state(_one_group([1.0]), hp)
    params = _one_group([1.0])
    g1, g2 = 1.0, 2.0
    params, _ = table_step(padamp_step, state, params, _grads([g1]), 1e-3)
    new, _ = table_step(padamp_step, state, params, _grads([g2]), 1e-3)

    m1 = 0.1 * g1
    m2 = 0.45 * m1 + 0.55 * g2       # beta1 * lam at t=2
    v1 = 0.001 * g1 * g1
    v2 = 0.999 * v1 + 0.001 * g2 * g2
    m_hat = m2 / (1 - 0.9**2)        # correction uses base beta1 powers
    v_hat = v2 / (1 - 0.999**2)
    expected = params[0].values[0] - 1e-3 * m_hat / np.sqrt(v_hat + 1e-8)
    assert new[0].values[0] == pytest.approx(expected, rel=1e-12)


def test_sgdm_buffer_is_undamped_and_converges_to_inverse_gap():
    hp = HyperParams(momentum=0.9, weight_decay=0.0)
    state = new_state(_one_group([0.0]), hp)
    params = _one_group([0.0])
    new, _ = table_step(sgdm_step, state, params, _grads([1.0]), 1e-3)
    # undamped: first buffer equals the raw gradient, not (1 - momentum) * g
    assert state.m["theta"][0] == 1.0
    assert new[0].values[0] == pytest.approx(-1e-3)

    for _ in range(400):
        table_step(sgdm_step, state, params, _grads([1.0]), 1e-3)
    assert state.m["theta"][0] == pytest.approx(10.0, rel=1e-12)


def test_sgdm_decoupled_weight_decay():
    hp = HyperParams(momentum=0.9, weight_decay=0.5)
    theta = np.array([2.0])
    state = new_state(_one_group(theta), hp)
    new, cols = table_step(sgdm_step, state, _one_group(theta), _grads([1.0]), 1e-2)
    assert new[0].values[0] == pytest.approx(
        (1 - 1e-2 * 0.5) * 2.0 - 1e-2 * 1.0)
    assert np.isnan(cols["p_now"][0])
    assert np.isnan(cols["lemma2_residual"][0])
    assert np.isnan(cols["lemma3_margin"][0])


def test_step_does_not_mutate_inputs():
    hp = HyperParams(weight_decay=0.0)
    theta = np.array([1.0, 2.0])
    params = _one_group(theta)
    before = params[0].values.copy()
    for fn in (padamp_step, adamp_step, padam_step, adam_step, amsgrad_step,
               sgdm_step):
        state = new_state(params, hp)
        new, _ = table_step(fn, state, params, _grads([0.3, -0.1]), 1e-3)
        assert np.array_equal(params[0].values, before)
        assert new[0].values is not params[0].values


@pytest.mark.parametrize("fn", [padamp_step, padam_step])
def test_adaptive_step_swaps_the_first_moment_buffers(fn):
    # The kernel writes the new moment into m_prev's array, which then
    # becomes m: m_prev is the previous m, with no copy made.
    rng = np.random.default_rng(4)
    params = _one_group(rng.standard_normal(6))
    state = new_state(params, HyperParams())
    for _ in range(3):
        m_was, m_prev_was = state.m["theta"], state.m_prev["theta"]
        m_bits = m_was.tobytes()
        params, _ = table_step(fn, state, params, _grads(rng.standard_normal(6)), 1e-3)
        assert state.m_prev["theta"] is m_was and state.m["theta"] is m_prev_was
        assert state.m_prev["theta"].tobytes() == m_bits


def test_sgdm_step_swaps_no_buffers():
    params = _one_group([1.0, 2.0])
    state = new_state(params, HyperParams())
    m_was, m_prev_was = state.m["theta"], state.m_prev["theta"]
    table_step(sgdm_step, state, params, _grads([0.3, -0.1]), 1e-3)
    assert state.m["theta"] is m_was and state.m_prev["theta"] is m_prev_was
    assert not m_prev_was.any()


def test_step_validation_errors():
    hp = HyperParams()
    state = new_state(_one_group([1.0]), hp)
    with pytest.raises(ValueError):
        table_step(padamp_step, state, _one_group([1.0]), _grads([1.0]), eta_t=0.0)
    with pytest.raises(ValueError):
        table_step(padamp_step, state, _one_group([1.0]), {}, eta_t=1e-3)
    with pytest.raises(FloatingPointError):
        table_step(padamp_step, state, _one_group([1.0]), _grads([np.inf]), eta_t=1e-3)


def test_step_that_raises_part_way_marks_the_state():
    # Group a steps, then group b's update overflows: m, v and c1 already
    # hold the failed step, so the state refuses a second step.
    groups = [ParamGroup("a", np.ones(3)), ParamGroup("b", np.full(3, -1e308))]
    grads = {"a": np.ones(3), "b": np.ones(3)}
    state = new_state(groups, HyperParams())
    with pytest.raises(FloatingPointError, match="non-finite parameters after step in group 'b'"):
        table_step(adam_step, state, groups, grads, eta_t=1e308)
    assert state.t == 1 and state.failed_step == 1
    with pytest.raises(ValueError, match="part way through step 1,"):
        table_step(adam_step, state, groups, grads, eta_t=1e-3)
    assert state.t == 1


def test_step_that_raises_before_advancing_leaves_the_state_usable():
    state = new_state(_one_group([1.0]), HyperParams())
    with pytest.raises(ValueError, match="eta_t"):
        table_step(adam_step, state, _one_group([1.0]), _grads([1.0]), eta_t=0.0)
    assert state.t == 0 and state.failed_step is None
    table_step(adam_step, state, _one_group([1.0]), _grads([1.0]), eta_t=1e-3)
    assert state.t == 1 and state.failed_step is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_parameters_abort():
    hp = HyperParams(weight_decay=0.0)
    state = new_state(_one_group([1e308]), hp)
    with pytest.raises(FloatingPointError, match="non-finite"):
        table_step(sgdm_step, state, _one_group([1e308]), _grads([1e308]), eta_t=1e3)


def test_lemma_telemetry_on_random_stream():
    hp = HyperParams(weight_decay=0.0)
    rng = np.random.default_rng(5)
    params = _one_group(rng.standard_normal(16))
    state = new_state(params, hp)
    for _ in range(200):
        params, cols = table_step(padamp_step, state, params,
                                  _grads(rng.standard_normal(16)), 1e-3)
        assert cols["lemma2_residual"][0] < 1e-10
        assert cols["lemma3_margin"][0] >= 0.0


def test_make_step_dispatch():
    assert make_step(OptimizerKind.ADAM) is adam_step
    assert make_step("sgdm") is sgdm_step
    with pytest.raises(ValueError):
        make_step("newton")


def test_multi_group_step_records_each_group():
    hp = HyperParams(weight_decay=0.0)
    groups = [ParamGroup("w1", np.array([1.0, 0.0])),
              ParamGroup("w2", np.array([3.0]))]
    state = new_state(groups, hp)
    grads = {"w1": np.array([0.0, 1.0]), "w2": np.array([0.5])}
    _, cols = table_step(padamp_step, state, groups, grads, 1e-3)
    assert list(cols) == [
        "t", "epoch", "eta_t", "p_now", "loss", "grad_norm_sq",
        "w1_param_norm", "w1_cos_sim", "w1_projected", "w1_effective_step_norm",
        "w2_param_norm", "w2_cos_sim", "w2_projected", "w2_effective_step_norm",
        "lemma2_residual", "lemma3_margin", *SLACK_COLUMNS, "eval_grad_norm_sq"]
    assert cols["w1_projected"][0]
    assert not cols["w2_projected"][0]
    assert cols["grad_norm_sq"][0] == pytest.approx(1.0 + 0.25)
    assert cols["lemma3_lower"][0] == min(state.v["w1"].min(), state.v["w2"][0])
    # The lemma columns are the largest lemma-2 residual over groups and the
    # smallest of every other lemma quantity, bit for bit, after groups of
    # 1-3 arrays, at p = 1/4 and 1/2, and under either decay rule.
    rng = np.random.default_rng(5)
    for n_groups in (1, 2, 3):
        for p in (0.25, 0.5):
            for wd_mode in ("decoupled", "coupled"):
                hp = HyperParams(p=p, weight_decay=0.1, wd_mode=wd_mode)
                groups = [ParamGroup(f"w{i}", rng.standard_normal(3 + i))
                          for i in range(n_groups)]
                state = new_state(groups, hp)
                for t in (1, 2):
                    grads = {g.name: rng.standard_normal(g.values.size) for g in groups}
                    new, cols = table_step(padamp_step, state, groups, grads, 1e-3)
                    per_group = [one_step_lemmas(
                        state.m[g.name], state.m_prev[g.name], state.v[g.name],
                        grads[g.name] + 0.1 * g.values if wd_mode == "coupled"
                        else grads[g.name], beta1_at(t, hp), state.c1[g.name],
                        hp.epsilon, p, g.values, norm(g.values)) for g in groups]
                    columns = list(zip(*per_group))
                    want = [max(columns[0]), *map(min, columns[1:])]
                    got = [cols[c][0] for c in LEMMA_COLUMNS]
                    assert np.array(got).tobytes() == np.array(want).tobytes(), (
                        n_groups, p, wd_mode, t)
                    groups = new
    # sgdm computes no lemma quantity and writes nan to all eight columns.
    _, plain = table_step(sgdm_step, new_state(groups, hp), groups, grads, 1e-3)
    assert all(math.isnan(plain[c][0]) for c in LEMMA_COLUMNS)


@pytest.mark.parametrize("fn", [padamp_step, sgdm_step])
def test_direct_record_keys_order_and_types(fn):
    # A step called outside a run writes its record to the table it is given,
    # read as columns in CSV order: int64 t, epoch and projected flags,
    # float64 elsewhere, with epoch and loss left as the run loop's
    # placeholders and the eval estimate last. A run's table holds the same
    # columns and types.
    groups = [ParamGroup("w1", np.array([1.0, 0.0])), ParamGroup("w2", np.array([3.0]))]
    grads = {"w1": np.array([0.0, 1.0]), "w2": np.array([0.5])}
    new, cols = table_step(fn, new_state(groups, HyperParams()), groups, grads, 1e-3)
    assert [g.name for g in new] == ["w1", "w2"]
    assert tuple(cols) == step_columns(("w1", "w2")) + ("eval_grad_norm_sq",)
    assert list(cols) == [
        "t", "epoch", "eta_t", "p_now", "loss", "grad_norm_sq",
        "w1_param_norm", "w1_cos_sim", "w1_projected", "w1_effective_step_norm",
        "w2_param_norm", "w2_cos_sim", "w2_projected", "w2_effective_step_norm",
        *LEMMA_COLUMNS, "eval_grad_norm_sq"]
    assert (cols["t"].tolist(), cols["epoch"].tolist()) == ([1], [0])
    assert math.isnan(cols["loss"][0])
    run_cols = run(build_config({}, {"optimizer.kind": fn.__name__[:-5], "run.steps": "1",
                                     "objective.name": "tiny_mlp"})).records.columns()
    assert list(run_cols)[-1] == "eval_grad_norm_sq"
    for table_cols in (cols, run_cols):
        assert [col.dtype for col in table_cols.values()] == [
            np.int64 if is_int_column(k) else np.float64 for k in table_cols]


@pytest.mark.parametrize("fn", [padamp_step, adam_step, sgdm_step])
def test_step_norms_and_cosine_stay_exact_at_large_scale(fn):
    # Past about 1e154 the squared norm of theta overflows a float.
    rng = np.random.default_rng(11)
    base = rng.standard_normal(16)
    theta = base * 1e200
    g = 0.3 * base / np.linalg.norm(base) + rng.standard_normal(16)
    state = new_state(_one_group(theta), HyperParams(weight_decay=0.0))
    _, cols = table_step(fn, state, _one_group(theta), _grads(g), 1e-3)
    assert cols["theta_param_norm"][0] == pytest.approx(math.hypot(*theta), rel=1e-14,
                                                         abs=0.0)
    small = theta * 2.0 ** -664
    expected = abs(small @ g) / (np.linalg.norm(small) * np.linalg.norm(g))
    assert cols["theta_cos_sim"][0] == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert math.isfinite(cols["theta_effective_step_norm"][0])


@pytest.mark.parametrize("fn", [padamp_step, adam_step])
def test_overflowing_gradient_norm_names_the_group(fn):
    # A finite gradient whose squared norm, and so C1**2, exceeds the largest
    # float.
    state = new_state(_one_group(np.ones(4)), HyperParams(weight_decay=0.0))
    with pytest.raises(FloatingPointError, match="theta"):
        table_step(fn, state, _one_group(np.ones(4)), _grads(np.full(4, 1e160)), 1e-3)


@pytest.mark.parametrize("hp, theta", [
    # theta - eta * q overflows to -inf.
    (HyperParams(weight_decay=0.0), -1e308),
    # Coupled decay folds wd * theta = inf into the gradient the moments see.
    (HyperParams(weight_decay=10.0, wd_mode="coupled"), 1e308),
], ids=["update", "coupled_decay"])
def test_diverging_step_raises_without_a_warning(hp, theta):
    state = new_state(_one_group([theta] * 4), hp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="non-finite parameters"):
            table_step(padamp_step, state, _one_group([theta] * 4), _grads([1.0] * 4), 1e308)


def test_overflowing_lemma_slack_is_non_finite_without_a_warning(monkeypatch):
    # theta . (m / denom) overflows: the radial slack is -inf, which fails
    # lemma5_radial_min in check_telemetry, and the step does not warn. A
    # block of reductions makes the lemma passes inside the step.
    monkeypatch.setattr(diagnostics, "LEMMA_BLOCK_ELEMENTS", 0)
    state = new_state(_one_group([1e300] * 3), HyperParams(weight_decay=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, cols = table_step(padamp_step, state, _one_group([1e300] * 3), _grads([1e40] * 3),
                             1e-3)
    assert cols["lemma5_radial"][0] == -math.inf
    assert all(math.isfinite(cols[c][0]) for c in LEMMA_COLUMNS if c != "lemma5_radial")


@pytest.mark.parametrize("hold_inputs", [True, False], ids=["inputs", "reductions"])
def test_direct_caller_batch_fills_lemmas_under_any_error_state(hold_inputs, monkeypatch):
    # A caller that hands all its steps one table gets in its rows what steps
    # with a one-row table each write, under np.errstate(all="raise") too:
    # every row's radial slack overflows to -inf, and the shared table's
    # lemma block flushes inside a step (full at 2 rows) and at the caller's
    # own flush(). The shared table starts 3 rows high and grows.
    def steps(table):
        # With no table, each step writes a table of its own.
        groups = _one_group([1e300] * 3)
        state, one_row = new_state(groups, HyperParams(weight_decay=0.0)), []
        for _ in range(5):
            if table is None:
                groups, cols = table_step(padamp_step, state, groups, _grads([1e40] * 3), 1e-3)
                one_row.append(cols)
            else:
                groups = padamp_step(state, groups, _grads([1e40] * 3), 1e-3, table=table)
        return one_row

    # A block of 2 steps' inputs (3 elements each), or of 2 steps' reductions.
    monkeypatch.setattr(diagnostics, "LEMMA_BLOCK_ELEMENTS", 6 if hold_inputs else 0)
    monkeypatch.setattr(diagnostics, "_REDUCED_ROWS", 2)
    table = TelemetryTable(_one_group([0.0] * 3), HyperParams().epsilon, rows=3)
    inputs, _, _ = table.blocks["theta"]
    assert (table.height, inputs is not None) == (2, hold_inputs)
    with np.errstate(all="raise"):
        steps(table)
        table.flush()
        want = steps(None)
    got = table.columns()
    for name, col in got.items():
        assert col.tobytes() == np.concatenate([w[name] for w in want]).tobytes(), name
    assert got["lemma5_radial"].tolist() == [-math.inf] * 5


def test_adaptive_step_rejects_a_table_without_eps():
    # The table writes an adaptive step's lemma columns, so it needs the
    # step's eps; the step says so before it touches the state.
    groups, state = _one_group([1.0, 2.0]), new_state(_one_group([1.0, 2.0]), HyperParams())
    for eps in (None, 1e-6):
        with pytest.raises(ValueError, match="table built with eps"):
            padamp_step(state, groups, _grads([0.5, -0.5]), 1e-3,
                        table=TelemetryTable(groups, eps))
        assert state.t == 0 and state.failed_step is None
    table = TelemetryTable(groups)
    sgdm_step(state, groups, _grads([0.5, -0.5]), 1e-3, table=table)
    assert len(table) == 1


def test_sgdm_step_rejects_a_table_with_eps():
    # An eps table would write lemma columns from blocks sgdm never filled;
    # sgdm's stay nan.
    groups, state = _one_group([1.0, 2.0]), new_state(_one_group([1.0, 2.0]), HyperParams())
    with pytest.raises(ValueError, match="sgdm one without; got 1e-08"):
        sgdm_step(state, groups, _grads([0.5, -0.5]), 1e-3,
                  table=TelemetryTable(groups, HyperParams().epsilon))
    assert state.t == 0 and state.failed_step is None
    _, cols = table_step(sgdm_step, state, groups, _grads([0.5, -0.5]), 1e-3)
    assert all(math.isnan(cols[c][0]) for c in LEMMA_COLUMNS)


@pytest.mark.parametrize("fn, table_groups", [
    # Other names: the adaptive step's lemma inputs have no block to go to.
    (padamp_step, [ParamGroup("w", np.zeros(2))]),
    # Other dims: the block's rows do not take the step's vectors.
    (padamp_step, [ParamGroup("theta", np.zeros(3))]),
    # Other groups: sgdm's values would land under another group's columns.
    (sgdm_step, [ParamGroup("w", np.zeros(2)), ParamGroup("theta", np.zeros(2))]),
], ids=["names", "dims", "sgdm"])
def test_step_rejects_a_table_over_other_groups(fn, table_groups):
    # The step names both sets of groups before it advances the state, which
    # can then step on a table that fits.
    groups, state = _one_group([1.0, 2.0]), new_state(_one_group([1.0, 2.0]), HyperParams())
    eps = None if fn is sgdm_step else HyperParams().epsilon
    want = (f"table groups {[(g.name, g.dim) for g in table_groups]} are not the step's "
            "[('theta', 2)]")
    with pytest.raises(ValueError, match=re.escape(want)):
        fn(state, groups, _grads([0.5, -0.5]), 1e-3, table=TelemetryTable(table_groups, eps))
    assert state.t == 0 and state.failed_step is None
    _, cols = table_step(fn, state, groups, _grads([0.5, -0.5]), 1e-3)
    assert cols["t"].tolist() == [1] and state.failed_step is None


def test_a_table_of_no_rows_is_rejected():
    # A table starts with at least one row; it doubles when full.
    groups, state = _one_group([1.0, 2.0]), new_state(_one_group([1.0, 2.0]), HyperParams())
    for rows in (0, -1):
        with pytest.raises(ValueError, match=f"rows must be >= 1, got {rows}"):
            TelemetryTable(groups, HyperParams().epsilon, rows=rows)
    _, cols = table_step(padamp_step, state, groups, _grads([0.5, -0.5]), 1e-3)
    assert cols["t"].tolist() == [1] and state.failed_step is None


def _label(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def _calls_per_step(steps):
    """The calls cProfile counts in one padamp quad_d20 run, one count per
    code object, and how often the floating-point state is set:
    np.errstate's decorator wrapper in all, around the step and around run,
    and errstate blocks entered."""
    cfg = build_config({}, {"optimizer.kind": "padamp", "objective.name": "quadratic",
                            "objective.dim": "20", "objective.condition": "100",
                            "run.steps": str(steps), "run.seed": "0"})
    profiler = cProfile.Profile()
    profiler.enable()
    run(cfg)
    profiler.disable()
    # pstats keys functions by (file, line, name), and code objects that
    # share a key (every dataclass __init__, every named tuple's __new__)
    # keep one count between them; the profiler's own entries keep each.
    total = sum(entry.callcount for entry in profiler.getstats())
    stats = pstats.Stats(profiler).stats
    wrapper = _label(np.errstate()(lambda: None).__code__)
    # A function's callers map each caller to (primitive calls, calls, ...).
    wrapped = [stats[_label(fn.__wrapped__.__code__)][4][wrapper][1]
               for fn in (optimizers._step, run)]
    entered = stats[_label(np.errstate.__enter__.__code__)][1]
    return total, (stats[wrapper][1], *wrapped, entered)


def test_small_d_step_call_budget():
    # Per step: (calls at 2000 steps - calls at 1000) / 1000, so the set-up
    # and the end-of-run report cancel out; a short run first pays the
    # process's one-time costs, which would otherwise fall on the 1000-step
    # run alone. A step makes 48.036, the budget: the step returns its list
    # of groups, and its check of the table's groups is one counted call,
    # the list comprehension.
    _calls_per_step(10)
    (calls_1k, sets_1k), (calls_2k, sets_2k) = _calls_per_step(1000), _calls_per_step(2000)
    assert (calls_2k - calls_1k) / 1000 <= 48.04
    # The floating-point state is set once per step, by the decorator on the
    # step body, and once for the whole run; the one errstate block entered
    # is the lemma batch's closing flush.
    assert sets_2k[0] - sets_1k[0] == 1000
    assert sets_1k[1:] == (1000, 1, 1) and sets_2k[1:] == (2000, 1, 1)
