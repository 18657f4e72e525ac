import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padamp.core import ParamGroup, seeded_rng
from padamp.harness import build_config, build_objective
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


def test_quadratic_optimum_has_zero_gradient():
    obj = quadratic(2, a_diag=[1.0, 10.0], b=[2.0, 5.0])
    star = obj.b / obj.a_diag  # A^-1 b = [2.0, 0.5]
    np.testing.assert_allclose(obj.grad(_theta(star))["theta"], 0.0, atol=1e-15)
    # f(theta*) = -0.5 b' A^-1 b = -(0.5*4 + 0.5*2.5) = -3.25
    assert obj.eval(_theta(star)) == pytest.approx(-3.25)


def test_quadratic_condition_builds_geometric_ramp():
    obj = quadratic(4, condition=8.0)
    np.testing.assert_allclose(obj.a_diag, [1.0, 2.0, 4.0, 8.0])
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


@pytest.mark.parametrize("condition", [float("nan"), float("inf"), -5.0, 0.0])
def test_quadratic_rejects_bad_condition(condition):
    with pytest.raises(ValueError, match="^condition must be positive and finite"):
        quadratic(3, condition=condition)


def test_quadratic_accuracy_is_none():
    assert quadratic(2).accuracy(_theta([0.0, 0.0])) is None


def _bits_of(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("b", ["default", "zeros", "negative_zero", "nonzero"])
def test_quadratic_matches_its_explicit_expressions_bitwise(b):
    # eval and grad skip a linear term whose entries are all +0.0; at every
    # finite theta, signed zeros, subnormals and overflowing entries
    # included, they give the bits of the full expressions.
    d = 48
    rng = np.random.default_rng(11)
    a = np.geomspace(1.0, 1e3, d)
    b_vec = {"default": None, "zeros": np.zeros(d),
             "negative_zero": np.where(np.arange(d) % 5 == 0, -0.0, 0.0),
             "nonzero": rng.standard_normal(d)}[b]
    obj = quadratic(d, a_diag=a, b=b_vec)
    assert obj._linear == (b in ("negative_zero", "nonzero"))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e154, -1e154,
                        1e200, -1e300, 1.7e308])
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(300):
            th = rng.standard_normal(d) * 10.0 ** float(rng.integers(-320, 200))
            picks = rng.random(d) < trial / 300
            th[picks] = rng.choice(special, int(picks.sum()))
            if trial % 7 == 0:
                th = -np.abs(th)  # every product of b and theta a -0.0
            want_loss = float(0.5 * (th @ (a * th)) - obj.b @ th)
            want_grad = a * th - obj.b
            assert _bits_of(obj.eval(_theta(th))) == _bits_of(want_loss), trial
            assert obj.grad(_theta(th))["theta"].tobytes() == want_grad.tobytes(), trial
        # A non-finite theta still gives a non-finite loss (inf where the
        # full expression gave nan, with a zero b).
        for bad in (np.inf, -np.inf, np.nan):
            th = rng.standard_normal(d)
            th[3] = bad
            assert not math.isfinite(obj.eval(_theta(th)))


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
    # rosenbrock is 2-d only, so dim is no key of it, not even dim=2.
    with pytest.raises(ValueError, match="'rosenbrock' takes no parameter dim"):
        build_objective("rosenbrock", {"dim": 2}, 0)
    for dim in ("2", "3"):
        with pytest.raises(ValueError, match="'rosenbrock' takes no parameter dim"):
            build_config({"objective.name": "rosenbrock", "objective.dim": dim,
                          "run.steps": "2"})


# ----------------------------------------------------- scale-invariant toy

def test_scale_invariant_value_ignores_radius():
    obj = scale_invariant_objective(8)
    rng = seeded_rng(7)
    th = rng.standard_normal(8)
    base = obj.eval(_theta(th))
    grad = obj.grad(_theta(th))["theta"]
    # Powers of two scale the norm exactly, so the value matches bitwise, and
    # the gradient scales by the inverse power, also where theta . theta
    # overflows (k = 600, 1000) or underflows (k = -600, -1000).
    for k in (-1000, -600, -300, -3, 1, 10, 300, 600, 1000):
        assert obj.eval(_theta(th * 2.0 ** k)) == base, k
        scaled = obj.grad(_theta(th * 2.0 ** k))["theta"]
        assert scaled.tobytes() == (grad * 2.0 ** -k).tobytes(), k


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


# ----------------------------------------------------------------- logistic

def test_logistic_loss_at_origin_is_log_two():
    obj = logistic_regression(d=5, n=64, seed=0)
    assert obj.eval(_theta(np.zeros(5))) == pytest.approx(np.log(2.0), rel=1e-15)


def test_logistic_labels_and_accuracy_along_separating_axis():
    obj = logistic_regression(d=10, n=512, seed=1, separation=4.0)
    feats, labels = obj.dataset.features, obj.dataset.labels
    assert set(np.unique(labels)) == {-1, 1}
    # The difference of the class means estimates the axis the blobs lie on.
    axis = feats[labels == 1].mean(axis=0) - feats[labels == -1].mean(axis=0)
    acc = obj.accuracy(_theta(axis))
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


def test_logistic_batch_gathers_indices_and_refuses_a_mask():
    obj = logistic_regression(d=4, n=32, seed=4)
    th = _theta(seeded_rng(2).standard_normal(4))
    batch = np.array([3, 17, 5, 3, 31])
    X, y = obj._batch(batch)
    assert X.tobytes() == obj.dataset.features[batch].tobytes()
    assert y.tobytes() == obj.dataset.labels[batch].astype(np.float64).tobytes()
    # A list of indices is a batch too.
    assert obj.eval(th, list(batch)) == obj.eval(th, batch)
    # take would read a boolean mask as the indices 0 and 1.
    mask = np.arange(32) < 16
    for call in (obj.eval, obj.grad):
        with pytest.raises(ValueError, match="^logistic takes a batch of example indices, "
                                             "not a mask$"):
            call(th, mask)


def test_logistic_rejects_degenerate_sizes():
    with pytest.raises(ValueError, match="d >= 1"):
        logistic_regression(d=0, n=8, seed=0)
    with pytest.raises(ValueError, match="2 examples"):
        logistic_regression(d=3, n=1, seed=0)


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("build", [
    lambda sep: logistic_regression(d=3, n=8, seed=0, separation=sep),
    lambda sep: tiny_mlp(d_in=3, hidden=4, classes=2, n=8, seed=0, separation=sep),
], ids=["logistic", "tiny_mlp"])
def test_dataset_objectives_reject_bad_separation(build, separation):
    with pytest.raises(ValueError, match="^separation must be non-negative and finite"):
        build(separation)


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


def test_mlp_first_layer_scale_invariance_above_variance_floor():
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
    params = obj.init_params(seeded_rng(0))
    acc = obj.accuracy(params)
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError, match="batch size >= 2"):
        obj.eval(params, batch=np.array([0]))
    # A boolean mask is not a batch of indices; take would read it as 0 and 1.
    with pytest.raises(ValueError, match="not a mask"):
        obj.eval(params, batch=np.arange(24) < 12)
    with pytest.raises(ValueError, match=">= 2"):
        tiny_mlp(d_in=1, hidden=3, classes=2, n=8, seed=0)
    # The class centers are orthonormal directions in d_in dimensions.
    assert set(tiny_mlp(d_in=3, hidden=4, classes=3, n=30, seed=0).dataset.labels) == {0, 1, 2}
    with pytest.raises(ValueError, match="classes must be <= d_in, got classes=3, d_in=2"):
        tiny_mlp(d_in=2, hidden=4, classes=3, n=30, seed=0)


_MLP = dict(d_in=4, hidden=5, classes=3, n=40, seed=7)


def _bits(grads):
    return {name: g.tobytes() for name, g in grads.items()}


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.sampled_from([2.0 ** -8, 1.0, 2.0 ** 8]),
       st.sampled_from(["nothing", "other_weights", "other_batch", "in_place"]),
       st.integers(0, 2 ** 16))
def test_mlp_grad_after_eval_is_a_fresh_objectives_grad_bit_for_bit(
        seed, size, scale, between, entry):
    obj = tiny_mlp(**_MLP)
    rng = np.random.default_rng(seed)
    params = obj.init_params(rng, scale=scale)
    batch = rng.choice(obj.dataset.n, size=size, replace=False)
    obj.eval(params, batch)
    if between == "other_weights":
        obj.eval(obj.init_params(rng, scale=scale), batch)
    elif between == "other_batch":
        obj.eval(params, rng.choice(obj.dataset.n, size=size, replace=False))
    elif between == "in_place":
        values = params[entry % 2].values
        values[entry // 2 % values.size] += 1.0
    got = obj.grad(params, batch)
    assert _bits(got) == _bits(tiny_mlp(**_MLP).grad(params, batch))


@settings(max_examples=80)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 300), st.integers(1, 40),
       st.integers(-30, 30))
def test_batch_norm_statistics_are_numpys_mean_and_var_bit_for_bit(seed, B, H, log2_scale):
    rng = np.random.default_rng(seed)
    X = (rng.standard_normal((B, H)) + rng.uniform(-3.0, 3.0, H)) * 2.0 ** log2_scale
    obj = tiny_mlp(**_MLP)
    z, var, s, nz, *_ = obj._forward(np.eye(H), np.ones((2, H)), X)
    assert var.tobytes() == z.var(axis=0).tobytes()
    assert s.tobytes() == np.sqrt(np.maximum(z.var(axis=0), BN_VAR_FLOOR)).tobytes()
    assert nz.tobytes() == ((z - z.mean(axis=0)) / s).tobytes()
    # grad's means of dn and dn * nz take the same form.
    assert (np.add.reduce(z, 0) / B).tobytes() == z.mean(axis=0).tobytes()


def _mlp_oracle(obj, params, batch):
    # The row-major, out-of-place forms of _TinyMLP's forward pass, eval,
    # grad and accuracy before the softmax reductions went class-major.
    w1 = params[0].values.reshape(obj.hidden, obj.d_in)
    w2 = params[1].values.reshape(obj.classes, obj.hidden)

    def forward(rows):
        X, y = obj.dataset.features[rows], obj.dataset.labels[rows]
        z = X @ w1.T
        B = len(z)
        mu = np.add.reduce(z, 0) / B
        d = z - mu
        var = np.add.reduce(d * d, 0) / B
        s = np.sqrt(np.maximum(var, BN_VAR_FLOOR))
        nz = d / s
        a = np.maximum(nz, 0.0)
        logits = a @ w2.T
        lmax = logits.max(axis=1, keepdims=True)
        logz = lmax[:, 0] + np.log(np.exp(logits - lmax).sum(axis=1))
        return X, y, var, s, nz, a, logits, logz

    rows = np.arange(obj.dataset.n) if batch is None else batch
    X, y, var, s, nz, a, logits, logz = forward(rows)
    B = len(y)
    loss = float(np.mean(logz - logits[np.arange(B), y]))
    dlogits = np.exp(logits - logz[:, None])
    dlogits[np.arange(B), y] -= 1.0
    dlogits /= B
    dw2 = dlogits.T @ a
    da = dlogits @ w2
    dn = da * (nz > 0)
    mean_dn = np.add.reduce(dn, 0) / B
    mean_dnx = np.add.reduce(dn * nz, 0) / B
    xhat_path = np.where(var < BN_VAR_FLOOR, 0.0, 1.0)
    dz = (dn - mean_dn - xhat_path * nz * mean_dnx) / s
    dw1 = dz.T @ X
    *_, logits, _ = forward(np.arange(obj.dataset.n))
    accuracy = float(np.mean(logits.argmax(axis=1) == obj.dataset.labels))
    return loss, {"w1": dw1.ravel(), "w2": dw2.ravel()}, accuracy


@st.composite
def _mlp_cases(draw, classes):
    classes = draw(classes)
    d_in = draw(st.integers(classes, 12))
    hidden = draw(st.integers(2, 24))
    n = draw(st.integers(max(classes, 2), 300))
    size = draw(st.one_of(st.none(), st.integers(2, n)))
    scale = draw(st.sampled_from([2.0 ** -8, 0.1, 1.0, 3.0, 2.0 ** 6]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    obj = tiny_mlp(d_in=d_in, hidden=hidden, classes=classes, n=n, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    params = obj.init_params(rng, scale=scale)
    batch = None if size is None else rng.choice(n, size=size, replace=False)
    return obj, params, batch


@settings(max_examples=200)
@given(_mlp_cases(st.integers(2, 7)))
def test_mlp_matches_its_row_major_oracle_bit_for_bit(case):
    obj, params, batch = case
    loss, grads, accuracy = _mlp_oracle(obj, params, batch)
    assert np.float64(obj.eval(params, batch)).tobytes() == np.float64(loss).tobytes()
    assert _bits(obj.grad(params, batch)) == _bits(grads)
    assert np.float64(obj.accuracy(params)).tobytes() == np.float64(accuracy).tobytes()


@settings(max_examples=60)
@given(_mlp_cases(st.integers(8, 10)))
def test_mlp_from_eight_classes_matches_its_oracle_to_rounding(case):
    # From 8 items numpy's pairwise sum adds a row in 8 interleaved partial
    # sums, while the class-major reduce adds the classes in order, so the
    # log-sum-exp, and through it the loss and gradients, move by rounding.
    obj, params, batch = case
    loss, grads, accuracy = _mlp_oracle(obj, params, batch)
    assert abs(obj.eval(params, batch) - loss) <= 1e-15 * abs(loss)
    got = obj.grad(params, batch)
    for name, want in grads.items():
        assert np.max(np.abs(got[name] - want)) <= 1e-14 * np.max(np.abs(want))
    assert obj.accuracy(params) == accuracy


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
