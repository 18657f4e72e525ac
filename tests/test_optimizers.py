import cProfile
import math
import pstats
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padamp.core import HyperParams, ParamGroup, beta1_at, new_state
from padamp.diagnostics import SLACK_COLUMNS, LemmaMonitor, _group_lemmas
from padamp.geometry import norm
from padamp.harness import build_config, run
from padamp.optimizers import OptimizerKind, make_step

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
    out = padamp_step(state, _one_group([1.0]), _grads([1.0]), eta_t=1e-3)
    expected = 1.0 - 1e-3 / np.sqrt(1.0 + 1e-8)
    assert out.new_params[0].values[0] == pytest.approx(expected, rel=1e-15)
    assert state.t == 1
    assert not out.record["theta_projected"]
    assert out.record["p_now"] == 0.5


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
        out_pa = padamp_step(states[0], pa, grads, 1e-2, p_now=0.5)
        out_ad = adam_step(states[1], ad, grads, 1e-2)
        pa, ad = out_pa.new_params, out_ad.new_params
        assert np.array_equal(pa[0].values, ad[0].values)
        assert repr(out_pa.record) == repr(out_ad.record)


def test_projection_triggers_on_orthogonal_gradient():
    hp = HyperParams(weight_decay=0.0)
    theta = np.array([1.0, 0.0])
    state = new_state(_one_group(theta), hp)
    out = padamp_step(state, _one_group(theta), _grads([0.0, 1.0]), eta_t=1e-3)
    rec = out.record
    assert rec["theta_projected"]
    assert rec["theta_cos_sim"] == 0.0
    # the projected step leaves the radial coordinate untouched
    step = out.new_params[0].values - theta
    assert abs(step @ theta) < 1e-15


def test_projection_not_triggered_on_aligned_gradient():
    hp = HyperParams(weight_decay=0.0)
    theta = np.array([1.0, 0.0])
    state = new_state(_one_group(theta), hp)
    out = padamp_step(state, _one_group(theta), _grads([1.0, 0.0]), eta_t=1e-3)
    assert not out.record["theta_projected"]


def test_adamp_trigger_ignores_learning_rate():
    # With a minute learning rate the scheduled trigger threshold collapses,
    # but the rate-free variant still fires on a nearly orthogonal gradient.
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    g = np.array([0.01, 1.0, 0.0, 0.0])
    hp = HyperParams(weight_decay=0.0)

    state = new_state(_one_group(theta), hp)
    out = padamp_step(state, _one_group(theta), _grads(g), eta_t=1e-6)
    assert not out.record["theta_projected"]

    state = new_state(_one_group(theta), hp)
    out = adamp_step(state, _one_group(theta), _grads(g), eta_t=1e-6)
    assert out.record["theta_projected"]


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
    assert out.record["theta_projected"]

    hp2 = replace(hp, trigger_lr_mode="scheduled")
    state2 = new_state(_one_group(theta), hp2)
    out2 = padamp_step(state2, _one_group(theta), _grads(g), eta_t=1e-4)
    assert not out2.record["theta_projected"]


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
    assert out.record["theta_projected"]
    # no decay: radial coordinate unchanged
    assert out.new_params[0].values[0] == 1.0

    hp2 = replace(hp, wd_skip_projected=False)
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
def test_step_slacks_use_the_gradients_the_moments_saw(fn):
    theta = np.array([2.0, -1.0])
    g = np.array([0.5, 0.25])
    hp = HyperParams(weight_decay=0.1, wd_mode="coupled")
    state = new_state(_one_group(theta), hp)
    out = fn(state, _one_group(theta), _grads(g), 1e-3)
    if fn is sgdm_step:
        assert out.slacks == []
        return
    # Under coupled decay the moments see g + wd * theta; so do the lemmas.
    resid, margin, slacks = _group_lemmas(
        state.m["theta"], state.m_prev["theta"], state.v["theta"], g + 0.1 * theta,
        beta1_at(1, hp), state.c1["theta"], hp.epsilon, hp.p, theta, norm(theta))
    assert (out.record["lemma2_residual"], out.record["lemma3_margin"]) == (resid, margin)
    assert out.slacks == [slacks]


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
    assert out.record["p_now"] == 0.125


def test_p_now_overrides_hyperparameter():
    hp = HyperParams(p=0.25, weight_decay=0.0)
    state = new_state(_one_group([1.0]), hp)
    out = padamp_step(state, _one_group([1.0]), _grads([1.0]), 1e-3, p_now=0.125)
    assert out.record["p_now"] == 0.125
    with pytest.raises(ValueError):
        padamp_step(state, _one_group([1.0]), _grads([1.0]), 1e-3, p_now=0.75)


def test_geometric_beta1t_keeps_base_bias_correction():
    hp = HyperParams(beta1=0.9, lam=0.5, weight_decay=0.0, p=0.5)
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
    assert state.m["theta"][0] == 1.0
    assert out.new_params[0].values[0] == pytest.approx(-1e-3)

    for _ in range(400):
        sgdm_step(state, params, _grads([1.0]), 1e-3)
    assert state.m["theta"][0] == pytest.approx(10.0, rel=1e-12)


def test_sgdm_decoupled_weight_decay():
    hp = HyperParams(momentum=0.9, weight_decay=0.5)
    theta = np.array([2.0])
    state = new_state(_one_group(theta), hp)
    out = sgdm_step(state, _one_group(theta), _grads([1.0]), 1e-2)
    assert out.new_params[0].values[0] == pytest.approx(
        (1 - 1e-2 * 0.5) * 2.0 - 1e-2 * 1.0)
    rec = out.record
    assert np.isnan(rec["p_now"])
    assert np.isnan(rec["lemma2_residual"])
    assert np.isnan(rec["lemma3_margin"])


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


def test_step_that_raises_part_way_marks_the_state():
    # Group a steps, then group b's update overflows: m, v and c1 already
    # hold the failed step, so the state refuses a second step.
    groups = [ParamGroup("a", np.ones(3)), ParamGroup("b", np.full(3, -1e308))]
    grads = {"a": np.ones(3), "b": np.ones(3)}
    state = new_state(groups, HyperParams())
    with pytest.raises(FloatingPointError, match="non-finite parameters after step in group 'b'"):
        adam_step(state, groups, grads, eta_t=1e308)
    assert state.t == 1 and state.failed_step == 1
    with pytest.raises(ValueError, match="part way through step 1,"):
        adam_step(state, groups, grads, eta_t=1e-3)
    assert state.t == 1


def test_step_that_raises_before_advancing_leaves_the_state_usable():
    state = new_state(_one_group([1.0]), HyperParams())
    with pytest.raises(ValueError, match="eta_t"):
        adam_step(state, _one_group([1.0]), _grads([1.0]), eta_t=0.0)
    assert state.t == 0 and state.failed_step is None
    adam_step(state, _one_group([1.0]), _grads([1.0]), eta_t=1e-3)
    assert state.t == 1 and state.failed_step is None


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
        assert out.record["lemma2_residual"] < 1e-10
        assert out.record["lemma3_margin"] >= 0.0
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
    assert list(out.record) == [
        "t", "epoch", "eta_t", "p_now", "loss", "grad_norm_sq",
        "w1_param_norm", "w1_cos_sim", "w1_projected", "w1_effective_step_norm",
        "w2_param_norm", "w2_cos_sim", "w2_projected", "w2_effective_step_norm",
        "lemma2_residual", "lemma3_margin"]
    assert out.record["w1_projected"]
    assert not out.record["w2_projected"]
    assert out.record["grad_norm_sq"] == pytest.approx(1.0 + 0.25)
    assert len(out.slacks) == 2
    assert out.slacks[1]["lemma3_lower"] == state.v["w2"][0]
    # The monitor's slack columns are the minimum over groups of each
    # group's _group_lemmas slacks; sgdm has no groups' slacks and gets nan.
    per_group = [_group_lemmas(state.m[g.name], state.m_prev[g.name], state.v[g.name],
                               grads[g.name], beta1_at(1, hp), state.c1[g.name],
                               hp.epsilon, hp.p, g.values, norm(g.values))[2]
                 for g in groups]
    LemmaMonitor().update(out)
    assert list(out.record)[-len(SLACK_COLUMNS):] == list(SLACK_COLUMNS)
    for key in SLACK_COLUMNS:
        assert out.record[key] == min(s[key] for s in per_group), key
    plain = sgdm_step(new_state(groups, hp), groups, grads, 1e-3)
    LemmaMonitor().update(plain)
    assert all(math.isnan(plain.record[key]) for key in SLACK_COLUMNS)


@pytest.mark.parametrize("fn", [padamp_step, adam_step, sgdm_step])
def test_step_norms_and_cosine_stay_exact_at_large_scale(fn):
    # Past about 1e154 the squared norm of theta overflows a float.
    rng = np.random.default_rng(11)
    base = rng.standard_normal(16)
    theta = base * 1e200
    g = 0.3 * base / np.linalg.norm(base) + rng.standard_normal(16)
    state = new_state(_one_group(theta), HyperParams(weight_decay=0.0))
    rec = fn(state, _one_group(theta), _grads(g), 1e-3).record
    assert rec["theta_param_norm"] == pytest.approx(math.hypot(*theta), rel=1e-14, abs=0.0)
    small = theta * 2.0 ** -664
    expected = abs(small @ g) / (np.linalg.norm(small) * np.linalg.norm(g))
    assert rec["theta_cos_sim"] == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert math.isfinite(rec["theta_effective_step_norm"])


@pytest.mark.parametrize("fn", [padamp_step, adam_step])
def test_overflowing_gradient_norm_names_the_group(fn):
    # A finite gradient whose squared norm, and so C1**2, exceeds the largest
    # float.
    state = new_state(_one_group(np.ones(4)), HyperParams(weight_decay=0.0))
    with pytest.raises(FloatingPointError, match="theta"):
        fn(state, _one_group(np.ones(4)), _grads(np.full(4, 1e160)), 1e-3)


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
            make_step("padamp")(state, _one_group([theta] * 4), _grads([1.0] * 4), 1e308)


def test_overflowing_lemma_slack_is_non_finite_without_a_warning():
    # theta . (m / denom) overflows: the radial slack is -inf, which fails
    # lemma5_radial_min in check_telemetry, and the step does not warn.
    state = new_state(_one_group([1e300] * 3), HyperParams(weight_decay=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = padamp_step(state, _one_group([1e300] * 3), _grads([1e40] * 3), 1e-3)
    assert out.slacks[0]["lemma5_radial"] == -math.inf
    assert all(math.isfinite(v) for k, v in out.slacks[0].items() if k != "lemma5_radial")


def _calls_per_step(steps):
    """The Python-level calls cProfile counts in one padamp quad_d20 run,
    and how many of them are np.errstate.__enter__."""
    cfg = build_config({}, {"optimizer.kind": "padamp", "objective.name": "quadratic",
                            "objective.dim": "20", "objective.condition": "100",
                            "run.steps": str(steps), "run.seed": "0"})
    profiler = cProfile.Profile()
    profiler.enable()
    run(cfg)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    enter = np.errstate.__enter__.__code__
    errstate_key = (enter.co_filename, enter.co_firstlineno, enter.co_name)
    total = sum(nc for _, nc, _, _, _ in stats.values())
    return total, stats[errstate_key][1]


def test_small_d_step_call_budget():
    # Per step: (calls at 2000 steps - calls at 1000) / 1000, so the set-up
    # and the end-of-run report cancel out.
    (calls_1k, enters_1k), (calls_2k, enters_2k) = _calls_per_step(1000), _calls_per_step(2000)
    assert (calls_2k - calls_1k) / 1000 <= 59
    # The step's errstate is the only one entered per step: run sets the
    # floating-point state once for the whole run.
    assert enters_2k - enters_1k == 1000
