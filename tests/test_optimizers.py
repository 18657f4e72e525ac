import numpy as np
import pytest

from padamp.core import HyperParams, ParamGroup, new_state
from padamp.optimizers import (
    OptimizerKind,
    adam_step,
    adamp_step,
    amsgrad_step,
    make_step,
    padam_step,
    padamp_step,
    sgdm_step,
)


def _one_group(values):
    return [ParamGroup("theta", np.asarray(values, dtype=np.float64))]


def _grads(values):
    return {"theta": np.asarray(values, dtype=np.float64)}


def test_padamp_first_step_scalar():
    # theta = 1, g = 1: m_hat = v_hat = 1 after bias correction, so the step
    # is eta / (1 + eps)^p regardless of beta values.
    hp = HyperParams(eta0=1e-3, p=0.5, weight_decay=0.0)
    state = new_state(_one_group([1.0]), hp)
    out = padamp_step(state, _one_group([1.0]), _grads([1.0]), eta_t=1e-3)
    expected = 1.0 - 1e-3 / np.sqrt(1.0 + 1e-8)
    assert out.new_params[0].values[0] == pytest.approx(expected, rel=1e-15)
    assert state.t == 1
    assert not out.record.groups["theta"].projected
    assert out.record.p_t_power == 0.5


def test_adam_first_step_scalar_is_almost_eta():
    hp = HyperParams(weight_decay=0.0)
    state = new_state(_one_group([1.0]), hp)
    out = adam_step(state, _one_group([1.0]), _grads([1.0]), eta_t=1e-3)
    assert out.new_params[0].values[0] == pytest.approx(0.999, abs=1e-6)


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
        pa = padamp_step(pa_state, pa, _grads(g), 1e-3, p_now=0.5).new_params
        ad = adam_step(ad_state, ad, _grads(g), 1e-3).new_params
        assert np.array_equal(pa[0].values, ad[0].values)


def test_projection_triggers_on_orthogonal_gradient():
    hp = HyperParams(weight_decay=0.0)
    theta = np.array([1.0, 0.0])
    state = new_state(_one_group(theta), hp)
    out = padamp_step(state, _one_group(theta), _grads([0.0, 1.0]), eta_t=1e-3)
    rec = out.record.groups["theta"]
    assert rec.projected
    assert rec.cos_sim == 0.0
    # the projected step leaves the radial coordinate untouched
    step = out.new_params[0].values - theta
    assert abs(step @ theta) < 1e-15


def test_projection_not_triggered_on_aligned_gradient():
    hp = HyperParams(weight_decay=0.0)
    theta = np.array([1.0, 0.0])
    state = new_state(_one_group(theta), hp)
    out = padamp_step(state, _one_group(theta), _grads([1.0, 0.0]), eta_t=1e-3)
    assert not out.record.groups["theta"].projected


def test_adamp_trigger_ignores_learning_rate():
    # With a minute learning rate the scheduled trigger threshold collapses,
    # but the rate-free variant still fires on a nearly orthogonal gradient.
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    g = np.array([0.01, 1.0, 0.0, 0.0])
    hp = HyperParams(weight_decay=0.0)

    state = new_state(_one_group(theta), hp)
    out = padamp_step(state, _one_group(theta), _grads(g), eta_t=1e-6)
    assert not out.record.groups["theta"].projected

    state = new_state(_one_group(theta), hp)
    out = adamp_step(state, _one_group(theta), _grads(g), eta_t=1e-6)
    assert out.record.groups["theta"].projected


def test_trigger_lr_mode_base_uses_eta0():
    # cos ~ 0.02; the scheduled threshold 0.1 * 1e-4 / sqrt(2) ~ 7e-6 does not
    # fire, but with trigger_lr_mode="base" the threshold stays at
    # 0.1 * eta0 / sqrt(2) ~ 0.07 > cos.
    theta = np.array([1.0, 0.0])
    g = np.array([0.02, 1.0])
    g = g / np.linalg.norm(g) * 3.0
    hp = HyperParams(eta0=1.0, weight_decay=0.0, trigger_lr_mode="base")
    state = new_state(_one_group(theta), hp)
    out = padamp_step(state, _one_group(theta), _grads(g), eta_t=1e-4)
    assert out.record.groups["theta"].projected

    hp2 = hp.with_(trigger_lr_mode="scheduled")
    state2 = new_state(_one_group(theta), hp2)
    out2 = padamp_step(state2, _one_group(theta), _grads(g), eta_t=1e-4)
    assert not out2.record.groups["theta"].projected


def test_decoupled_weight_decay_applied_before_step():
    hp = HyperParams(weight_decay=0.1, eta0=1e-2)
    theta = np.array([2.0, 0.0])
    state = new_state(_one_group(theta), hp)
    out = padamp_step(state, _one_group(theta), _grads([1.0, 0.0]), eta_t=1e-2)
    direction = 1.0 / (1.0 + 1e-8) ** hp.p  # scalar-like: all mass on coord 0
    expected0 = (1.0 - 1e-2 * 0.1) * 2.0 - 1e-2 * direction
    assert out.new_params[0].values[0] == pytest.approx(expected0, rel=1e-12)


def test_weight_decay_skipped_for_projected_groups():
    hp = HyperParams(weight_decay=0.5, eta0=1e-3)
    theta = np.array([1.0, 0.0])
    g = np.array([0.0, 1.0])  # orthogonal -> projected

    state = new_state(_one_group(theta), hp)
    out = padamp_step(state, _one_group(theta), _grads(g), eta_t=1e-3)
    assert out.record.groups["theta"].projected
    # no decay: radial coordinate unchanged
    assert out.new_params[0].values[0] == 1.0

    hp2 = hp.with_(wd_skip_projected=False)
    state2 = new_state(_one_group(theta), hp2)
    out2 = padamp_step(state2, _one_group(theta), _grads(g), eta_t=1e-3)
    assert out2.new_params[0].values[0] == pytest.approx(1.0 - 1e-3 * 0.5)


def test_coupled_weight_decay_feeds_moments():
    hp = HyperParams(weight_decay=0.1, wd_mode="coupled")
    theta = np.array([2.0])
    state = new_state(_one_group(theta), hp)
    padamp_step(state, _one_group(theta), _grads([1.0]), eta_t=1e-3)
    # m_1 = (1 - beta1) * (g + wd * theta)
    assert state.m["theta"][0] == pytest.approx(0.1 * (1.0 + 0.1 * 2.0), rel=1e-15)


@pytest.mark.parametrize("fn", [padamp_step, sgdm_step])
def test_step_reports_the_gradients_the_moments_saw(fn):
    theta = np.array([2.0, -1.0])
    g = np.array([0.5, 0.25])
    coupled = HyperParams(weight_decay=0.1, wd_mode="coupled")
    out = fn(new_state(_one_group(theta), coupled), _one_group(theta), _grads(g), 1e-3)
    np.testing.assert_array_equal(out.grads["theta"], g + 0.1 * theta)

    decoupled = coupled.with_(wd_mode="decoupled")
    out = fn(new_state(_one_group(theta), decoupled), _one_group(theta), _grads(g), 1e-3)
    np.testing.assert_array_equal(out.grads["theta"], g)


def test_amsgrad_uses_max_buffer():
    hp = HyperParams(beta2=0.5, weight_decay=0.0)
    theta = np.array([1.0])
    ams_state = new_state(_one_group(theta), hp)
    adam_state = new_state(_one_group(theta), hp)

    ams = _one_group(theta)
    adam = _one_group(theta)
    # large gradient then small ones: v decays but max_v holds the peak
    for g in ([4.0], [0.1], [0.1], [0.1]):
        ams = amsgrad_step(ams_state, ams, _grads(g), 1e-2).new_params
        adam = adam_step(adam_state, adam, _grads(g), 1e-2).new_params
    assert ams_state.max_v["theta"][0] > ams_state.v["theta"][0]
    # the max buffer makes amsgrad's denominator larger -> smaller steps
    assert ams[0].values[0] > adam[0].values[0]


def test_padam_power_and_max_tracking():
    hp = HyperParams(p=0.125, weight_decay=0.0)
    theta = np.array([1.0])
    state = new_state(_one_group(theta), hp)
    out = padam_step(state, _one_group(theta), _grads([2.0]), eta_t=1e-3)
    # uncorrected max_v = v = (1-beta2) g^2; direction = m_hat / (v_max + eps)^p
    v = (1 - 0.999) * 4.0
    expected = 1.0 - 1e-3 * (2.0 / (v + 1e-8) ** 0.125)
    assert out.new_params[0].values[0] == pytest.approx(expected, rel=1e-12)
    assert out.record.p_t_power == 0.125


def test_p_now_overrides_hyperparameter():
    hp = HyperParams(p=0.25, weight_decay=0.0)
    state = new_state(_one_group([1.0]), hp)
    out = padamp_step(state, _one_group([1.0]), _grads([1.0]), 1e-3, p_now=0.125)
    assert out.record.p_t_power == 0.125
    with pytest.raises(ValueError):
        padamp_step(state, _one_group([1.0]), _grads([1.0]), 1e-3, p_now=0.75)


def test_geometric_beta1t_keeps_base_bias_correction():
    hp = HyperParams(beta1=0.9, lam=0.5, beta1t_mode="geometric",
                     weight_decay=0.0, p=0.5)
    state = new_state(_one_group([1.0]), hp)
    params = _one_group([1.0])
    g1, g2 = 1.0, 2.0
    params = padamp_step(state, params, _grads([g1]), 1e-3).new_params
    out = padamp_step(state, params, _grads([g2]), 1e-3)

    m1 = 0.1 * g1
    m2 = 0.45 * m1 + 0.55 * g2       # beta1 * lam at t=2
    v1 = 0.001 * g1 * g1
    v2 = 0.999 * v1 + 0.001 * g2 * g2
    m_hat = m2 / (1 - 0.9**2)        # correction uses base beta1 powers
    v_hat = v2 / (1 - 0.999**2)
    expected = params[0].values[0] - 1e-3 * m_hat / np.sqrt(v_hat + 1e-8)
    assert out.new_params[0].values[0] == pytest.approx(expected, rel=1e-12)


def test_sgdm_buffer_is_undamped_and_converges_to_inverse_gap():
    hp = HyperParams(momentum=0.9, weight_decay=0.0)
    state = new_state(_one_group([0.0]), hp)
    params = _one_group([0.0])
    out = sgdm_step(state, params, _grads([1.0]), 1e-3)
    # undamped: first buffer equals the raw gradient, not (1 - momentum) * g
    assert state.momentum_buf["theta"][0] == 1.0
    assert out.new_params[0].values[0] == pytest.approx(-1e-3)

    for _ in range(400):
        sgdm_step(state, params, _grads([1.0]), 1e-3)
    assert state.momentum_buf["theta"][0] == pytest.approx(10.0, rel=1e-12)


def test_sgdm_decoupled_weight_decay():
    hp = HyperParams(momentum=0.9, weight_decay=0.5)
    theta = np.array([2.0])
    state = new_state(_one_group(theta), hp)
    out = sgdm_step(state, _one_group(theta), _grads([1.0]), 1e-2)
    assert out.new_params[0].values[0] == pytest.approx(
        (1 - 1e-2 * 0.5) * 2.0 - 1e-2 * 1.0)
    rec = out.record
    assert np.isnan(rec.p_t_power)
    assert np.isnan(rec.lemma2_residual)
    assert np.isnan(rec.lemma3_margin)


def test_step_does_not_mutate_inputs():
    hp = HyperParams(weight_decay=0.0)
    theta = np.array([1.0, 2.0])
    params = _one_group(theta)
    before = params[0].values.copy()
    for fn in (padamp_step, adamp_step, padam_step, adam_step, amsgrad_step,
               sgdm_step):
        state = new_state(params, hp)
        out = fn(state, params, _grads([0.3, -0.1]), 1e-3)
        assert np.array_equal(params[0].values, before)
        assert out.new_params[0].values is not params[0].values


def test_step_validation_errors():
    hp = HyperParams()
    state = new_state(_one_group([1.0]), hp)
    with pytest.raises(ValueError):
        padamp_step(state, _one_group([1.0]), _grads([1.0]), eta_t=0.0)
    with pytest.raises(ValueError):
        padamp_step(state, _one_group([1.0]), {}, eta_t=1e-3)
    with pytest.raises(FloatingPointError):
        padamp_step(state, _one_group([1.0]), _grads([np.inf]), eta_t=1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_parameters_abort():
    hp = HyperParams(weight_decay=0.0)
    state = new_state(_one_group([1e308]), hp)
    with pytest.raises(FloatingPointError, match="non-finite"):
        sgdm_step(state, _one_group([1e308]), _grads([1e308]), eta_t=1e3)


def test_lemma_telemetry_on_random_stream():
    hp = HyperParams(weight_decay=0.0)
    rng = np.random.default_rng(5)
    params = _one_group(rng.standard_normal(16))
    state = new_state(params, hp)
    for _ in range(200):
        out = padamp_step(state, params, _grads(rng.standard_normal(16)), 1e-3)
        assert out.record.lemma2_residual < 1e-10
        assert out.record.lemma3_margin >= 0.0
        params = out.new_params


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
    out = padamp_step(state, groups, grads, 1e-3)
    assert set(out.record.groups) == {"w1", "w2"}
    assert out.record.groups["w1"].projected
    assert not out.record.groups["w2"].projected
    assert out.record.grad_norm_sq == pytest.approx(1.0 + 0.25)
