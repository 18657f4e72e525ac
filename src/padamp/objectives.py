"""Test problems with analytic gradients, synthetic datasets, and a finite-difference oracle.

Analytic objectives (quadratic, rosenbrock, scale-invariant) ignore batches.
Dataset objectives (logistic blobs, tiny batch-normalized MLP) take an index
array into their SyntheticDataset; without one they evaluate the whole dataset.
All gradients are returned as flat per-group vectors matching group_layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .core import GradientSet, ParamGroup, seeded_rng
from .geometry import norm

__all__ = [
    "Objective",
    "SyntheticDataset",
    "quadratic",
    "rosenbrock",
    "scale_invariant_objective",
    "logistic_regression",
    "tiny_mlp",
    "finite_difference_grad",
]

BN_VAR_FLOOR = 1e-5

# The most float64 entries one numpy array can hold: its size in bytes must
# fit an intp.
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


def _check_entries(objective: str, **shapes) -> None:
    """Reject sizes that give an array numpy cannot make, naming their keys.

    Each keyword names an array and maps to its sizes by key, as in
    features={"n": n, "d": d}.
    """
    for array, sizes in shapes.items():
        entries = math.prod(sizes.values())
        if entries > _MAX_ENTRIES:
            raise ValueError(
                f"{objective}: {' * '.join(f'{k}={v}' for k, v in sizes.items())} "
                f"gives {array} {entries} entries, more than the {_MAX_ENTRIES} "
                "a float64 array can hold")


@dataclass
class SyntheticDataset:
    """Feature matrix plus integer labels with seeded batch sampling."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.labels) != len(self.features):
            raise ValueError("features must be N x d with one label per row")

    @property
    def n(self) -> int:
        return len(self.labels)

    def epoch_batches(self, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """Shuffle once, then yield consecutive slices (without replacement)."""
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        order = rng.permutation(self.n)
        for start in range(0, self.n, batch_size):
            yield order[start:start + batch_size]

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """One uniform batch without replacement (for evaluation windows)."""
        return rng.choice(self.n, size=min(batch_size, self.n), replace=False)


class Objective:
    """Base interface: loss value and analytic per-group gradient."""

    name: str = ""
    group_layout: Dict[str, int] = {}
    dataset: Optional[SyntheticDataset] = None

    def eval(self, params: Sequence[ParamGroup], batch: Optional[np.ndarray] = None) -> float:
        raise NotImplementedError

    def grad(self, params: Sequence[ParamGroup], batch: Optional[np.ndarray] = None) -> GradientSet:
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator, scale: float = 1.0) -> List[ParamGroup]:
        return [
            ParamGroup(name, scale * rng.standard_normal(dim))
            for name, dim in self.group_layout.items()
        ]

    def accuracy(self, params: Sequence[ParamGroup]) -> Optional[float]:
        """Fraction of correctly classified examples; None for non-classifiers."""
        return None

    def _check(self, params: Sequence[ParamGroup]) -> Dict[str, np.ndarray]:
        # A plain loop and no .items(): eval and grad call this every step,
        # and a comprehension or a bound method is one more Python call each.
        vals = {}
        for g in params:
            vals[g.name] = g.values
        layout = self.group_layout
        for name in layout:
            if name not in vals or vals[name].size != layout[name]:
                raise ValueError(
                    f"objective {self.name!r} expects group {name!r} of dim {layout[name]}")
        return vals


class _Quadratic(Objective):
    def __init__(self, dim: int, a_diag: np.ndarray, b: np.ndarray):
        a_diag = np.asarray(a_diag, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a_diag.shape != (dim,) or b.shape != (dim,):
            raise ValueError("a_diag and b must both have length dim")
        if np.any(a_diag <= 0):
            raise ValueError("quadratic requires strictly positive diagonal entries")
        self.name = "quadratic"
        self.a_diag = a_diag
        self.b = b
        self.group_layout = {"theta": dim}

    def eval(self, params, batch=None) -> float:
        th = self._check(params)["theta"]
        # Halving the dot product is exact short of subnormal or overflowing
        # values, and saves the full-size 0.5 * th that halving th would make.
        return float(0.5 * (th @ (self.a_diag * th)) - self.b @ th)

    def grad(self, params, batch=None) -> GradientSet:
        th = self._check(params)["theta"]
        return {"theta": self.a_diag * th - self.b}


def quadratic(dim: int, a_diag=None, b=None, condition: float = 1.0) -> Objective:
    """f(theta) = 1/2 theta' A theta - b' theta with diagonal SPD A.

    When a_diag is omitted it is built as a geometric ramp from 1 to
    ``condition`` so the condition number is explicit.
    """
    if not 1 <= dim < 2 ** 63:  # numpy's largest array length is 2**63 - 1
        raise ValueError(f"need 1 <= dim < 2**63, got {dim}")
    if a_diag is None:
        if not 0 < condition < math.inf:
            raise ValueError(f"condition must be positive and finite, got {condition}")
        a_diag = np.geomspace(1.0, float(condition), dim) if condition != 1.0 else np.ones(dim)
    if b is None:
        b = np.zeros(dim)
    return _Quadratic(dim, a_diag, b)


class _Rosenbrock(Objective):
    def __init__(self):
        self.name = "rosenbrock"
        self.group_layout = {"theta": 2}

    def eval(self, params, batch=None) -> float:
        x, y = self._check(params)["theta"]
        return float((1 - x) ** 2 + 100.0 * (y - x * x) ** 2)

    def grad(self, params, batch=None) -> GradientSet:
        x, y = self._check(params)["theta"]
        gx = -2.0 * (1 - x) - 400.0 * x * (y - x * x)
        gy = 200.0 * (y - x * x)
        return {"theta": np.array([gx, gy])}


def rosenbrock() -> Objective:
    """The classic 2-d banana valley."""
    return _Rosenbrock()


class _ScaleInvariant(Objective):
    """f(theta) = g(theta / ||theta||) for a fixed smooth g on the sphere.

    g(u) = -<u, tau> + 1/2 u' Q u with tau = e_1 and Q a fixed diagonal ramp,
    so f(c theta) = f(theta) exactly for c > 0 and <theta, grad f> = 0 by
    construction (degree-0 homogeneity).
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError(f"scale-invariant objective needs dim >= 2, got {dim}")
        self.name = "scale_invariant"
        self.dim = dim
        self.tau = np.zeros(dim)
        self.tau[0] = 1.0
        self.q_diag = np.linspace(1.0, 2.0, dim)
        self.group_layout = {"theta": dim}

    def _unit(self, th: np.ndarray) -> tuple:
        # norm() keeps the radius finite and nonzero where th . th is not.
        radius = norm(th)
        if radius == 0.0:
            raise ValueError("scale-invariant objective is undefined at theta = 0")
        return th / radius, radius

    def eval(self, params, batch=None) -> float:
        u, _ = self._unit(self._check(params)["theta"])
        return float(-(u @ self.tau) + 0.5 * u @ (self.q_diag * u))

    def grad(self, params, batch=None) -> GradientSet:
        th = self._check(params)["theta"]
        u, radius = self._unit(th)
        g_sphere = self.q_diag * u - self.tau
        # Chain rule through the normalization: project onto the tangent
        # space of u and divide by the radius.
        tangent = g_sphere - float(u @ g_sphere) * u
        return {"theta": tangent / radius}


def scale_invariant_objective(dim: int) -> Objective:
    return _ScaleInvariant(dim)


def _sigmoid_neg(z: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid(-z)."""
    out = np.empty_like(z)
    pos = z >= 0
    ez = np.exp(-z[pos])
    out[pos] = ez / (1.0 + ez)
    ez = np.exp(z[~pos])
    out[~pos] = 1.0 / (1.0 + ez)
    return out


def _blobs(d: int, classes: int, n: int, separation: float, seed: int,
           index: np.ndarray) -> np.ndarray:
    """n unit-variance Gaussian examples in d dims, example i around the
    center of class index[i]; the centers lie separation / 2 from the origin,
    at +/- one random axis for two classes, else along orthonormal directions
    (classes <= d)."""
    if n < 2:
        raise ValueError(f"need n >= 2 examples, got n={n}")
    if not 0 <= separation < math.inf:
        raise ValueError(f"separation must be non-negative and finite, got {separation}")
    rng = seeded_rng(seed)
    if classes == 2:
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        centers = np.vstack([(separation / 2.0) * u, -(separation / 2.0) * u])
    else:
        q, _ = np.linalg.qr(rng.standard_normal((d, classes)))
        centers = (separation / 2.0) * q.T
    return rng.standard_normal((n, d)) + centers[index]


class _Logistic(Objective):
    def __init__(self, d: int, n: int, seed: int, separation: float):
        if d < 1:
            raise ValueError(f"need d >= 1, got {d}")
        _check_entries("logistic", features={"n": n, "d": d})
        # Class 0, label +1, is the first half of the examples.
        index = (np.arange(n) >= n // 2).astype(np.int64)
        feats = _blobs(d, 2, n, separation, seed, index)
        self.name = "logistic"
        self.dataset = SyntheticDataset(features=feats, labels=1 - 2 * index)
        self.group_layout = {"theta": d}

    def _batch(self, batch):
        if batch is None:
            batch = np.arange(self.dataset.n)
        return self.dataset.features[batch], self.dataset.labels[batch].astype(np.float64)

    def eval(self, params, batch=None) -> float:
        th = self._check(params)["theta"]
        X, y = self._batch(batch)
        z = (X @ th) * y
        return float(np.mean(np.logaddexp(0.0, -z)))

    def grad(self, params, batch=None) -> GradientSet:
        th = self._check(params)["theta"]
        X, y = self._batch(batch)
        z = (X @ th) * y
        s = _sigmoid_neg(z)
        return {"theta": -(s * y) @ X / len(y)}

    def accuracy(self, params) -> float:
        th = self._check(params)["theta"]
        pred = np.where(self.dataset.features @ th >= 0, 1, -1)
        return float(np.mean(pred == self.dataset.labels))


def logistic_regression(d: int, n: int, seed: int, separation: float = 4.0) -> Objective:
    """Binary logistic regression on two Gaussian blobs with +/-1 labels.

    loss = mean log(1 + exp(-y theta.x)); at theta = 0 this is log 2 for any
    data. Minibatch gradients over equal-size batches average exactly to the
    full gradient.
    """
    return _Logistic(d, n, seed, separation)


class _TinyMLP(Objective):
    """x -> W1 x -> per-unit batch normalization -> ReLU -> W2 -> softmax CE.

    Normalization uses the population statistics of the current batch with a
    variance floor; no learned affine follows it, which is what makes each
    row of W1 scale-invariant (while the floor stays inactive).
    """

    def __init__(self, d_in: int, hidden: int, classes: int, n: int, seed: int,
                 separation: float):
        if min(d_in, hidden, classes) < 2:
            raise ValueError("d_in, hidden and classes must all be >= 2")
        if classes > d_in:
            raise ValueError(f"classes must be <= d_in, got classes={classes}, d_in={d_in}")
        _check_entries("tiny_mlp", features={"n": n, "d_in": d_in},
                       w1={"hidden": hidden, "d_in": d_in},
                       activations={"n": n, "hidden": hidden})
        labels = np.arange(n) % classes
        feats = _blobs(d_in, classes, n, separation, seed, labels)
        self.name = "tiny_mlp"
        self.d_in, self.hidden, self.classes = d_in, hidden, classes
        self.dataset = SyntheticDataset(features=feats, labels=labels)
        self.group_layout = {"w1": hidden * d_in, "w2": classes * hidden}
        # The last forward pass: (key, X, y, _forward's tuple); see _pass.
        self._last = None

    def init_params(self, rng: np.random.Generator, scale: float = 1.0) -> List[ParamGroup]:
        w1 = rng.standard_normal((self.hidden, self.d_in)) * (scale / np.sqrt(self.d_in))
        w2 = rng.standard_normal((self.classes, self.hidden)) * (scale / np.sqrt(self.hidden))
        return [ParamGroup("w1", w1.ravel()), ParamGroup("w2", w2.ravel())]

    def _weights(self, params):
        vals = self._check(params)
        w1 = vals["w1"].reshape(self.hidden, self.d_in)
        w2 = vals["w2"].reshape(self.classes, self.hidden)
        return w1, w2

    def _batch(self, batch):
        if batch is None:
            batch = np.arange(self.dataset.n)
        batch = np.asarray(batch)
        if batch.size < 2:
            raise ValueError("batch normalization needs batch size >= 2")
        return self.dataset.features[batch], self.dataset.labels[batch]

    def _forward(self, w1, w2, X):
        z = X @ w1.T
        B = len(z)
        # The expressions z.mean(axis=0) and z.var(axis=0) evaluate, so the
        # same bits, without the Python of numpy's _mean and _var.
        mu = np.add.reduce(z, 0) / B
        d = z - mu
        var = np.add.reduce(d * d, 0) / B
        if not math.isfinite(np.maximum.reduce(var)):
            raise FloatingPointError(
                "tiny_mlp batch-norm variance is not finite: the first layer's outputs overflow")
        s = np.sqrt(np.maximum(var, BN_VAR_FLOOR))
        nz = d / s
        a = np.maximum(nz, 0.0)
        logits = a @ w2.T
        # The class max and the log-sum-exp reduce a class-major copy, so
        # numpy's reduction loop runs once per class, not once per example.
        # Below 8 classes numpy's row sum adds in order, as this reduce does,
        # so logz keeps its bits; from 8 its pairwise sum rounds otherwise.
        # The gemms keep their operand layouts: their bits depend on them.
        by_class = logits.T.copy()
        lmax = np.maximum.reduce(by_class, 0)
        by_class -= lmax
        np.exp(by_class, out=by_class)
        logz = lmax + np.log(np.add.reduce(by_class, 0))
        return z, var, s, nz, a, logits, logz

    def _pass(self, w1, w2, batch):
        """X, y, each example's own-class index into the raveled logits, and
        the forward pass of these weights on this batch.

        The pass is a pure function of w1, w2 and the batch indices, so the
        last one is kept, keyed by their exact bytes: grad after eval on the
        same weights and batch reuses it, and a weight changed in place
        misses. Callers only read the arrays it returns.
        """
        if batch is not None:
            batch = np.asarray(batch)
        key = (w1.tobytes(), w2.tobytes(),
               None if batch is None else (batch.dtype.str, batch.tobytes()))
        if self._last is None or self._last[0] != key:
            X, y = self._batch(batch)
            own = np.arange(len(y)) * self.classes + y
            self._last = (key, X, y, own, self._forward(w1, w2, X))
        return self._last[1:]

    def eval(self, params, batch=None) -> float:
        w1, w2 = self._weights(params)
        _, y, own, (_, _, _, _, _, logits, logz) = self._pass(w1, w2, batch)
        # np.mean's own expression, without its Python.
        return float(np.add.reduce(logz - logits.take(own)) / len(y))

    def grad(self, params, batch=None) -> GradientSet:
        w1, w2 = self._weights(params)
        X, y, own, (_, var, s, nz, a, logits, logz) = self._pass(w1, w2, batch)
        B = len(y)
        dlogits = np.exp(logits - logz[:, None])
        dlogits.ravel()[own] -= 1.0
        dlogits /= B
        dw2 = dlogits.T @ a
        da = dlogits @ w2
        dn = da * (nz > 0)
        # Batch-norm backward with population statistics. When the variance
        # floor is active the std is constant, so the x-hat path drops out.
        mean_dn = np.add.reduce(dn, 0) / B
        mean_dnx = np.add.reduce(dn * nz, 0) / B
        # xhat_path is 0.0 or 1.0, so scaling the (H,) mean instead of the
        # (B, H) nz gives the same bits, zero signs included.
        xhat_path = np.where(var < BN_VAR_FLOOR, 0.0, 1.0)
        dz = (dn - mean_dn - nz * (xhat_path * mean_dnx)) / s
        dw1 = dz.T @ X
        return {"w1": dw1.ravel(), "w2": dw2.ravel()}

    def accuracy(self, params) -> float:
        w1, w2 = self._weights(params)
        _, y, _, (_, _, _, _, _, logits, _) = self._pass(w1, w2, None)
        return float(np.mean(logits.argmax(axis=1) == y))


def tiny_mlp(d_in: int, hidden: int, classes: int, n: int, seed: int,
             separation: float = 4.0) -> Objective:
    """Two-layer batch-normalized MLP on Gaussian blobs; W1 rows are scale-invariant."""
    return _TinyMLP(d_in, hidden, classes, n, seed, separation)


def finite_difference_grad(
    obj: Objective,
    params: Sequence[ParamGroup],
    batch: Optional[np.ndarray] = None,
    h: float = 1e-5,
) -> GradientSet:
    """Central-difference gradient oracle: (f(x + h e_i) - f(x - h e_i)) / 2h."""
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    params = [ParamGroup(g.name, g.values.copy()) for g in params]
    out: GradientSet = {}
    for g in params:
        fd = np.empty(g.dim)
        vec = g.values
        for i in range(g.dim):
            orig = vec[i]
            vec[i] = orig + h
            fp = obj.eval(params, batch)
            vec[i] = orig - h
            fm = obj.eval(params, batch)
            vec[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise FloatingPointError(
                    f"non-finite evaluation while differencing group {g.name!r} coord {i}"
                )
            fd[i] = (fp - fm) / (2.0 * h)
        out[g.name] = fd
    return out
