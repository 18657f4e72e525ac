import numpy as np
import pytest

from padamp.core import ParamGroup, seeded_rng
from padamp.objectives import (
    BN_VAR_FLOOR,
    SyntheticDataset,
    finite_difference_grad,
    logistic_regression,
    quadratic,
    rosenbrock,
    scale_invariant_objective,
    tiny_mlp,
)


def _theta(values):
    return [ParamGroup("theta", np.asarray(values, dtype=np.float64))]


# ---------------------------------------------------------------- quadratic

def test_quadratic_value_and_grad_by_hand():
    obj = quadratic(2, a_diag=[1.0, 10.0])
    p = _theta([1.0, 1.0])
    # f = 0.5 * (1*1 + 10*1) = 5.5, grad = A theta
    assert obj.eval(p) == 5.5
    np.testing.assert_array_equal(obj.grad(p)["theta"], [1.0, 10.0])


def test_quadratic_minimizer_has_zero_gradient():
    obj = quadratic(2, a_diag=[1.0, 10.0], b=[2.0, 5.0])
    star = obj.minimizer()
    np.testing.assert_allclose(star, [2.0, 0.5])
    np.testing.assert_allclose(obj.grad(_theta(star))["theta"], 0.0, atol=1e-15)
    # f(theta*) = -0.5 b' A^-1 b = -(0.5*4 + 0.5*2.5) = -3.25
    assert obj.eval(_theta(star)) == pytest.approx(-3.25)


def test_quadratic_condition_builds_geometric_ramp():
    obj = quadratic(4, condition=8.0)
    np.testing.assert_allclose(obj.a_diag, [1.0, 2.0, 4.0, 8.0])
    assert obj.smoothness == 8.0
    # condition=1 keeps the identity
    np.testing.assert_array_equal(quadratic(3).a_diag, np.ones(3))


def test_quadratic_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive diagonal"):
        quadratic(2, a_diag=[1.0, -1.0])
    with pytest.raises(ValueError, match="length dim"):
        quadratic(2, a_diag=[1.0, 2.0, 3.0])
    obj = quadratic(3)
    with pytest.raises(ValueError, match="expects group"):
        obj.eval(_theta([1.0, 2.0]))
    with pytest.raises(ValueError, match="expects group"):
        obj.eval([ParamGroup("w", np.ones(3))])


def test_quadratic_accuracy_is_none():
    assert quadratic(2).accuracy(_theta([0.0, 0.0])) is None


# --------------------------------------------------------------- rosenbrock

def test_rosenbrock_known_points():
    obj = rosenbrock()
    assert obj.eval(_theta([0.0, 0.0])) == 1.0
    np.testing.assert_array_equal(obj.grad(_theta([0.0, 0.0]))["theta"], [-2.0, 0.0])
    # global minimum at (1, 1)
    assert obj.eval(_theta([1.0, 1.0])) == 0.0
    np.testing.assert_array_equal(obj.grad(_theta([1.0, 1.0]))["theta"], [0.0, 0.0])
    assert obj.eval(_theta([-1.0, 1.0])) == 4.0


def test_rosenbrock_rejects_other_dims():
    with pytest.raises(ValueError, match="dim=2"):
        rosenbrock(dim=3)


# ----------------------------------------------------- scale-invariant toy

def test_scale_invariant_value_ignores_radius():
    obj = scale_invariant_objective(8)
    rng = seeded_rng(7)
    th = rng.standard_normal(8)
    base = obj.eval(_theta(th))
    for k in (-3, 1, 10):
        # powers of two scale the norm exactly, so the value matches bitwise
        assert obj.eval(_theta(th * 2.0 ** k)) == base


def test_scale_invariant_gradient_is_tangent_and_shrinks_with_radius():
    obj = scale_invariant_objective(16)
    th = seeded_rng(3).standard_normal(16)
    g = obj.grad(_theta(th))["theta"]
    # degree-0 homogeneity: radial derivative vanishes
    assert abs(th @ g) <= 1e-12 * np.linalg.norm(th) * np.linalg.norm(g)
    g4 = obj.grad(_theta(4.0 * th))["theta"]
    np.testing.assert_allclose(g4, g / 4.0, rtol=1e-12)


def test_scale_invariant_rejects_zero_and_small_dim():
    obj = scale_invariant_objective(4)
    with pytest.raises(ValueError, match="undefined at theta"):
        obj.eval(_theta(np.zeros(4)))
    with pytest.raises(ValueError, match="dim >= 2"):
        scale_invariant_objective(1)
    assert obj.is_scale_invariant == {"theta": True}


# ----------------------------------------------------------------- logistic

def test_logistic_loss_at_origin_is_log_two():
    obj = logistic_regression(d=5, n=64, seed=0)
    assert obj.eval(_theta(np.zeros(5))) == pytest.approx(np.log(2.0), rel=1e-15)


def test_logistic_labels_and_accuracy_along_separating_axis():
    obj = logistic_regression(d=10, n=512, seed=1, separation=4.0)
    assert set(np.unique(obj.dataset.labels)) == {-1, 1}
    acc = obj.accuracy(_theta(obj.separating_axis))
    assert acc > 0.9


def test_logistic_minibatch_grads_average_to_full_gradient():
    obj = logistic_regression(d=6, n=512, seed=2)
    th = _theta(seeded_rng(5).standard_normal(6) * 0.3)
    full = obj.grad(th)["theta"]  # no batch: the whole dataset
    parts = []
    for batch in obj.dataset.epoch_batches(32, seeded_rng(9)):
        assert len(batch) == 32  # 512 splits evenly
        parts.append(obj.grad(th, batch)["theta"])
    np.testing.assert_allclose(np.mean(parts, axis=0), full, rtol=1e-12, atol=1e-15)


def test_logistic_gradient_matches_finite_differences():
    obj = logistic_regression(d=4, n=64, seed=3)
    p = _theta(seeded_rng(1).standard_normal(4) * 0.5)
    an = obj.grad(p)["theta"]
    fd = finite_difference_grad(obj, p)["theta"]
    np.testing.assert_allclose(an, fd, rtol=1e-6)


def test_logistic_rejects_degenerate_sizes():
    with pytest.raises(ValueError, match="d >= 1"):
        logistic_regression(d=0, n=8, seed=0)
    with pytest.raises(ValueError, match="2 examples"):
        logistic_regression(d=3, n=1, seed=0)


# ------------------------------------------------------------------ dataset

def test_dataset_epoch_batches_partition_without_replacement():
    ds = SyntheticDataset(features=np.arange(14.0).reshape(7, 2),
                          labels=np.zeros(7, dtype=int))
    seen = np.concatenate(list(ds.epoch_batches(3, seeded_rng(0))))
    assert sorted(seen.tolist()) == list(range(7))
    with pytest.raises(ValueError, match="batch size"):
        next(ds.epoch_batches(0, seeded_rng(0)))


def test_dataset_sample_is_without_replacement():
    ds = SyntheticDataset(features=np.zeros((10, 1)), labels=np.zeros(10, dtype=int))
    idx = ds.sample(10, seeded_rng(1))
    assert len(np.unique(idx)) == 10
    # requests larger than the dataset are clipped
    assert len(ds.sample(50, seeded_rng(1))) == 10


def test_dataset_rejects_shape_mismatch_and_empty_csv():
    with pytest.raises(ValueError, match="one label per row"):
        SyntheticDataset(features=np.zeros((4, 2)), labels=np.zeros(3, dtype=int))


# ----------------------------------------------------------------- tiny MLP

def test_mlp_gradient_matches_finite_differences():
    obj = tiny_mlp(d_in=4, hidden=4, classes=2, n=32, seed=6)
    params = obj.init_params(seeded_rng(2), scale=0.5)
    an = obj.grad(params)
    fd = finite_difference_grad(obj, params)
    for name in ("w1", "w2"):
        denom = max(np.linalg.norm(an[name]), 1e-30)
        assert np.linalg.norm(an[name] - fd[name]) / denom < 1e-4


def test_mlp_first_layer_is_scale_invariant_above_variance_floor():
    obj = tiny_mlp(d_in=4, hidden=4, classes=2, n=32, seed=6)
    params = obj.init_params(seeded_rng(2), scale=1.0)
    scaled = [ParamGroup("w1", params[0].values * 2.0), params[1]]
    # batch-norm absorbs the rescaling exactly (power of two, floor inactive)
    assert obj.eval(scaled) == obj.eval(params)
    g, gs = obj.grad(params), obj.grad(scaled)
    np.testing.assert_array_equal(gs["w1"], g["w1"] / 2.0)
    np.testing.assert_array_equal(gs["w2"], g["w2"])


def test_mlp_first_layer_gradient_is_radially_orthogonal():
    obj = tiny_mlp(d_in=6, hidden=8, classes=3, n=48, seed=9)
    params = obj.init_params(seeded_rng(4), scale=1.0)
    g = obj.grad(params)["w1"]
    w1 = params[0].values
    assert abs(w1 @ g) <= 1e-10 * np.linalg.norm(w1) * np.linalg.norm(g)


def test_mlp_variance_floor_breaks_invariance_but_keeps_grads_finite():
    obj = tiny_mlp(d_in=4, hidden=4, classes=2, n=32, seed=6)
    params = obj.init_params(seeded_rng(2), scale=1e-6)
    # pre-activations are ~1e-6, so the per-unit variance sits below the floor
    w1 = params[0].values.reshape(4, 4)
    z = obj.dataset.features @ w1.T
    assert np.all(z.var(axis=0) < BN_VAR_FLOOR)
    scaled = [ParamGroup("w1", params[0].values * 2.0), params[1]]
    assert obj.eval(scaled) != obj.eval(params)
    g = obj.grad(params)
    assert np.all(np.isfinite(g["w1"])) and np.all(np.isfinite(g["w2"]))


def test_mlp_layout_accuracy_and_batch_guard():
    obj = tiny_mlp(d_in=5, hidden=3, classes=2, n=24, seed=0)
    assert obj.group_layout == {"w1": 15, "w2": 6}
    assert obj.is_scale_invariant == {"w1": True, "w2": False}
    params = obj.init_params(seeded_rng(0))
    acc = obj.accuracy(params)
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError, match="batch size >= 2"):
        obj.eval(params, batch=np.array([0]))
    with pytest.raises(ValueError, match=">= 2"):
        tiny_mlp(d_in=1, hidden=3, classes=2, n=8, seed=0)


# --------------------------------------------------------- finite differences

def test_finite_difference_rejects_bad_step():
    obj = quadratic(2)
    with pytest.raises(ValueError, match="positive"):
        finite_difference_grad(obj, _theta([1.0, 1.0]), h=0.0)


def test_finite_difference_exact_on_quadratic():
    obj = quadratic(3, a_diag=[1.0, 2.0, 3.0], b=[1.0, 0.0, -1.0])
    p = _theta([0.3, -0.7, 1.1])
    fd = finite_difference_grad(obj, p, h=1e-6)["theta"]
    np.testing.assert_allclose(fd, obj.grad(p)["theta"], rtol=1e-8)
