import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from padamp.geometry import (
    ProjectionDecision,
    cosine_similarity,
    norm,
    project_tangent,
    projection_condition,
)

TINY = float(np.finfo(np.float64).tiny)


def test_cosine_known_value():
    # (3,4).(4,3) = 24, norms are both 5
    assert cosine_similarity(np.array([3.0, 4.0]), np.array([4.0, 3.0])) == pytest.approx(
        24.0 / 25.0, rel=1e-15)


def test_cosine_absolute_value_and_zero():
    v = np.array([1.0, 2.0, -1.0])
    assert cosine_similarity(v, -v) == pytest.approx(1.0)
    assert cosine_similarity(v, np.zeros(3)) == 0.0
    assert cosine_similarity(np.zeros(3), v) == 0.0


def test_cosine_never_exceeds_one():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.standard_normal(8)
        c = rng.uniform(0.1, 10.0)
        assert cosine_similarity(v, c * v) <= 1.0


def test_cosine_shape_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity(np.ones(2), np.ones(3))


def test_project_tangent_known_value():
    out = project_tangent(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert np.allclose(out, [0.5, -0.5], atol=1e-15)


def test_project_tangent_zero_theta_raises():
    with pytest.raises(ValueError, match="zero vector"):
        project_tangent(np.zeros(3), np.ones(3))


def test_project_tangent_removes_radial_component():
    rng = np.random.default_rng(1)
    theta = rng.standard_normal(16)
    x = rng.standard_normal(16)
    out = project_tangent(theta, x)
    assert abs(out @ (theta / np.linalg.norm(theta))) < 1e-12 * np.linalg.norm(x)
    # x already tangent -> unchanged
    assert np.allclose(project_tangent(theta, out), out, atol=1e-14)


def test_projection_condition_threshold_and_strictness():
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    radial = np.array([1.0, 0.0, 0.0, 0.0])
    tangent = np.array([0.0, 1.0, 0.0, 0.0])

    d = projection_condition(theta, radial, delta=0.1, eta_t=1e-3)
    assert d.threshold == pytest.approx(0.1 * 1e-3 / 2.0)
    assert d.trigger_value == pytest.approx(1.0)
    assert not d.projected

    d = projection_condition(theta, tangent, delta=0.1, eta_t=1e-3)
    assert d.trigger_value == 0.0
    assert d.projected

    # trigger exactly at the threshold is NOT projected (strict <)
    g = np.array([5e-5, 1.0, 0.0, 0.0])
    g = g / np.linalg.norm(g)
    thr = 0.1 * 1e-3 / 2.0
    cos = cosine_similarity(theta, g)
    if cos == thr:  # exact hit depends on rounding; assert consistency either way
        assert not projection_condition(theta, g, 0.1, 1e-3).projected


def test_projection_decision_is_an_immutable_named_tuple():
    d = projection_condition(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.1, 1e-3)
    assert ProjectionDecision._fields == ("trigger_value", "threshold", "projected")
    assert isinstance(d, tuple) and tuple(d) == (0.0, d.threshold, True)
    assert type(d.projected) is bool
    with pytest.raises(AttributeError):
        d.projected = False


def test_projection_condition_zero_theta_never_projects():
    d = projection_condition(np.zeros(4), np.ones(4), delta=0.1, eta_t=1e-3)
    assert not d.projected
    assert d.trigger_value == 0.0


def test_projection_condition_validation():
    theta, g = np.ones(2), np.ones(2)
    with pytest.raises(ValueError):
        projection_condition(theta, g, delta=0.0, eta_t=1e-3)
    with pytest.raises(ValueError):
        projection_condition(theta, g, delta=0.1, eta_t=0.0)
    with pytest.raises(ValueError):
        projection_condition(theta, np.ones(3), delta=0.1, eta_t=1e-3)


def test_threshold_tightens_with_dim_and_lr():
    theta9 = np.ones(9)
    theta100 = np.ones(100)
    t9 = projection_condition(theta9, theta9, 0.1, 1e-2).threshold
    t100 = projection_condition(theta100, theta100, 0.1, 1e-2).threshold
    assert t9 == pytest.approx(0.1 * 1e-2 / 3.0)
    assert t100 == pytest.approx(0.1 * 1e-2 / 10.0)
    assert t100 < t9
    later = projection_condition(theta9, theta9, 0.1, 1e-4).threshold
    assert later < t9


def test_precomputed_norms_give_the_same_results():
    rng = np.random.default_rng(2)
    theta, g = rng.standard_normal(12), rng.standard_normal(12)
    tn, gn = norm(theta), norm(g)
    assert cosine_similarity(theta, g, a_norm=tn, b_norm=gn) == cosine_similarity(theta, g)
    assert projection_condition(theta, g, 0.1, 1.0, theta_norm=tn, grad_norm=gn) == (
        projection_condition(theta, g, 0.1, 1.0))
    np.testing.assert_array_equal(project_tangent(theta, g, theta_norm=tn),
                                  project_tangent(theta, g))


def test_norm_edge_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm(np.zeros(3)) == 0.0
        assert norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
        assert norm(np.array([3e-200, 4e-200])) == pytest.approx(5e-200, rel=1e-15)
        assert norm(np.array([1.0, np.inf])) == math.inf
        assert math.isnan(norm(np.array([1.0, np.nan])))
        # Finite elements whose norm exceeds the largest float.
        assert norm(np.full(4, 1.5e308)) == math.inf


@pytest.mark.parametrize("sa, sb", [(1e200, 1e200), (1e-200, 1e-200), (1e300, 1e-300),
                                     (1e307, 1e10)])
def test_cosine_is_the_same_at_every_scale(sa, sb):
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-1, 1, 32), rng.uniform(-1, 1, 32)
    b += a
    assert cosine_similarity(sa * a, sb * b) == pytest.approx(
        cosine_similarity(a, b), rel=1e-14, abs=0.0)


# Vectors of up to 64 elements in [-1, 1]; the scaled tests multiply them.
_unit_vectors = hnp.arrays(np.float64, st.integers(1, 64),
                           elements=st.floats(-1.0, 1.0, allow_subnormal=False))
_scales = st.one_of(st.floats(1e-300, 1e300), st.floats(1.6e308, 1.7976e308))


@settings(max_examples=300)
@given(hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(-1e160, 1e160, allow_subnormal=False)))
def test_norm_is_linalg_norm_in_the_normal_range(x):
    sq = float(np.vdot(x, x))
    if TINY <= sq < math.inf:
        assert norm(x) == np.linalg.norm(x)


@settings(max_examples=300)
@given(_unit_vectors, _scales)
def test_norm_matches_hypot_at_every_scale(v, scale):
    big = np.max(np.abs(v))
    x = v / big * scale if big > 0 else v
    expected = math.hypot(*x)
    got = norm(x)
    if math.isinf(expected):
        assert got == math.inf
    else:
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


@settings(max_examples=300)
@given(_unit_vectors, _scales, _scales, st.data())
def test_cosine_stays_in_unit_interval_at_every_scale(v, sa, sb, data):
    w = data.draw(hnp.arrays(np.float64, v.shape,
                             elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    cos = cosine_similarity(v * sa, w * sb)
    assert 0.0 <= cos <= 1.0


@settings(max_examples=300)
@given(_unit_vectors, st.data(), st.integers(-30, 30), st.integers(-30, 30))
def test_project_tangent_is_orthogonal_and_idempotent_at_every_scale(v, data,
                                                                    log_st, log_sx):
    w = data.draw(hnp.arrays(np.float64, v.shape,
                             elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    assume(np.any(v != 0.0))
    theta = v / np.max(np.abs(v)) * 2.0 ** log_st
    big = np.max(np.abs(w))
    x = w / big * 2.0 ** log_sx if big > 0 else w
    out = project_tangent(theta, x)
    assert abs(out @ (theta / norm(theta))) <= 1e-12 * norm(x)
    # x already tangent -> unchanged
    assert np.max(np.abs(project_tangent(theta, out) - out)) <= 1e-14 * norm(x)
