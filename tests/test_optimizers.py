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
from padamp.diagnostics import (LEMMA_COLUMNS, SLACK_COLUMNS, LemmaBatch, TelemetryTable,
                                _vector_lemmas, step_columns)
from padamp.geometry import norm
from padamp.harness import build_config, run
from padamp import optimizers
from padamp.optimizers import OptimizerKind, StepOutput, make_step

padamp_step, adamp_step, padam_step, adam_step, amsgrad_step, sgdm_step = (
    make_step(k) for k in ("padamp", "adamp", "padam", "adam", "amsgrad", "sgdm"))


def _one_step_lemmas(m, m_prev, v, g, beta1t, c1, eps, p, theta, theta_norm):
    """One group's lemma columns for one step, as the step computes them
    without a batch: _group_lemmas on 1-row views, as Python floats."""
    return tuple(_vector_lemmas(m, m_prev, v, g, beta1t, c1, eps, p, theta,
                                theta_norm)[0].tolist())


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
    lemmas = tuple(out.record[c] for c in LEMMA_COLUMNS)
    if fn is sgdm_step:
        assert all(math.isnan(x) for x in lemmas)
        return
    # Under coupled decay the moments see g + wd * theta; so do the lemmas.
    assert lemmas == _one_step_lemmas(
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
        params = fn(state, params, _grads(rng.standard_normal(6)), 1e-3).new_params
        assert state.m_prev["theta"] is m_was and state.m["theta"] is m_prev_was
        assert state.m_prev["theta"].tobytes() == m_bits


def test_sgdm_step_swaps_no_buffers():
    params = _one_group([1.0, 2.0])
    state = new_state(params, HyperParams())
    m_was, m_prev_was = state.m["theta"], state.m_prev["theta"]
    sgdm_step(state, params, _grads([0.3, -0.1]), 1e-3)
    assert state.m["theta"] is m_was and state.m_prev["theta"] is m_prev_was
    assert not m_prev_was.any()


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
        "lemma2_residual", "lemma3_margin", *SLACK_COLUMNS]
    assert out.record["w1_projected"]
    assert not out.record["w2_projected"]
    assert out.record["grad_norm_sq"] == pytest.approx(1.0 + 0.25)
    assert out.record["lemma3_lower"] == min(state.v["w1"].min(), state.v["w2"][0])
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
                    out = padamp_step(state, groups, grads, 1e-3)
                    per_group = [_one_step_lemmas(
                        state.m[g.name], state.m_prev[g.name], state.v[g.name],
                        grads[g.name] + 0.1 * g.values if wd_mode == "coupled"
                        else grads[g.name], beta1_at(t, hp), state.c1[g.name],
                        hp.epsilon, p, g.values, norm(g.values)) for g in groups]
                    columns = list(zip(*per_group))
                    want = [max(columns[0]), *map(min, columns[1:])]
                    assert list(out.record)[-8:] == list(LEMMA_COLUMNS)
                    got = [out.record[c] for c in LEMMA_COLUMNS]
                    assert np.array(got).tobytes() == np.array(want).tobytes(), (
                        n_groups, p, wd_mode, t)
                    groups = out.new_params
    # sgdm computes no lemma quantity and writes nan to all eight columns.
    plain = sgdm_step(new_state(groups, hp), groups, grads, 1e-3)
    assert list(plain.record)[-8:] == list(LEMMA_COLUMNS)
    assert all(math.isnan(plain.record[c]) for c in LEMMA_COLUMNS)


@pytest.mark.parametrize("fn", [padamp_step, sgdm_step])
def test_direct_record_keys_order_and_types(fn):
    # A step called without a table returns its row as a dict: int t and
    # epoch, bool projected flags, and Python floats, epoch and loss being
    # the run loop's placeholders. A run's row holds the same keys and types,
    # and the eval estimate last.
    groups = [ParamGroup("w1", np.array([1.0, 0.0])), ParamGroup("w2", np.array([3.0]))]
    grads = {"w1": np.array([0.0, 1.0]), "w2": np.array([0.5])}
    record = fn(new_state(groups, HyperParams()), groups, grads, 1e-3).record
    assert tuple(record) == step_columns(("w1", "w2"))
    assert list(record) == [
        "t", "epoch", "eta_t", "p_now", "loss", "grad_norm_sq",
        "w1_param_norm", "w1_cos_sim", "w1_projected", "w1_effective_step_norm",
        "w2_param_norm", "w2_cos_sim", "w2_projected", "w2_effective_step_norm",
        *LEMMA_COLUMNS]
    assert (record["t"], record["epoch"]) == (1, 0) and math.isnan(record["loss"])
    row = run(build_config({}, {"optimizer.kind": fn.__name__[:-5], "run.steps": "1",
                                "objective.name": "tiny_mlp"})).records[0]
    assert list(row)[-1] == "eval_grad_norm_sq"
    for rec in (record, row):
        assert [type(v).__name__ for k, v in rec.items()] == [
            "bool" if k.endswith("_projected") else "int" if k in ("t", "epoch")
            else "float" for k in rec]


def test_step_output_is_an_immutable_named_tuple():
    groups = _one_group([1.0, 2.0])
    out = padamp_step(new_state(groups, HyperParams()), groups, _grads([0.5, -0.5]), 1e-3)
    assert StepOutput._fields == ("new_params", "record")
    new_params, record = out
    assert (new_params, record) == (out.new_params, out.record)
    assert [g.name for g in new_params] == ["theta"] and record["t"] == 1
    with pytest.raises(AttributeError):
        out.record = None


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
    assert out.record["lemma5_radial"] == -math.inf
    assert all(math.isfinite(out.record[c]) for c in LEMMA_COLUMNS if c != "lemma5_radial")


@pytest.mark.parametrize("hold_inputs", [True, False], ids=["inputs", "reductions"])
def test_direct_caller_batch_fills_lemmas_under_any_error_state(hold_inputs):
    # A caller that hands its steps a table holding a LemmaBatch gets in its
    # rows what unbatched steps record, under np.errstate(all="raise") too:
    # every row's radial slack overflows to -inf, and the batch flushes
    # inside a step (full at 2 rows) and at the caller's own flush(). The
    # table starts 3 rows high and grows.
    def steps(table):
        groups = _one_group([1e300] * 3)
        state, records = new_state(groups, HyperParams(weight_decay=0.0)), []
        for _ in range(5):
            out = padamp_step(state, groups, _grads([1e40] * 3), 1e-3, table=table)
            groups = out.new_params
            records.append(out.record)
        return records

    batch = LemmaBatch(_one_group([1e300] * 3), HyperParams().epsilon, 2, hold_inputs)
    table = TelemetryTable(_one_group([0.0]), batch, rows=3)
    with np.errstate(all="raise"):
        assert steps(table) == [None] * 5
        table.flush()
        want = steps(None)
    # The table's last column, the eval estimate, is the run loop's to write.
    got = [dict(list(row.items())[:-1]) for row in table]
    assert repr(got) == repr(want)
    assert [r["lemma5_radial"] for r in got] == [-math.inf] * 5


def _label(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def _calls_per_step(steps):
    """The calls cProfile counts in one padamp quad_d20 run, and how often
    the floating-point state is set: np.errstate's decorator wrapper in all,
    around the step and around run, and errstate blocks entered."""
    cfg = build_config({}, {"optimizer.kind": "padamp", "objective.name": "quadratic",
                            "objective.dim": "20", "objective.condition": "100",
                            "run.steps": str(steps), "run.seed": "0"})
    profiler = cProfile.Profile()
    profiler.enable()
    run(cfg)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    wrapper = _label(np.errstate()(lambda: None).__code__)
    total = sum(nc for _, nc, _, _, _ in stats.values())
    # A function's callers map each caller to (primitive calls, calls, ...).
    wrapped = [stats[_label(fn.__wrapped__.__code__)][4][wrapper][1]
               for fn in (optimizers._step, run)]
    entered = stats[_label(np.errstate.__enter__.__code__)][1]
    return total, (stats[wrapper][1], *wrapped, entered)


def test_small_d_step_call_budget():
    # Per step: (calls at 2000 steps - calls at 1000) / 1000, so the set-up
    # and the end-of-run report cancel out; a short run first pays the
    # process's one-time costs, which would otherwise fall on the 1000-step
    # run alone. A step makes 47.29: each named-tuple result is two counted
    # calls, its __new__ and tuple.__new__.
    _calls_per_step(10)
    (calls_1k, sets_1k), (calls_2k, sets_2k) = _calls_per_step(1000), _calls_per_step(2000)
    assert (calls_2k - calls_1k) / 1000 <= 47.3
    # The floating-point state is set once per step, by the decorator on the
    # step body, and once for the whole run; the one errstate block entered
    # is the lemma batch's closing flush.
    assert sets_2k[0] - sets_1k[0] == 1000
    assert sets_1k[1:] == (1000, 1, 1) and sets_2k[1:] == (2000, 1, 1)
