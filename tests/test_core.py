import numpy as np
import pytest

from padamp.core import (
    HyperParams,
    ParamGroup,
    beta1_at,
    check_grads,
    new_state,
    seeded_rng,
)


def test_hyperparams_defaults_valid():
    hp = HyperParams()
    assert hp.beta1 == 0.9
    assert hp.beta2 == 0.999
    assert hp.eps_mode == "power"
    assert 0 < hp.p <= 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta0": 0.0},
        {"eta0": -1e-3},
        {"beta1": 0.0},
        {"beta1": 1.0},
        {"beta2": 1.0},
        {"lam": 0.0},
        {"lam": 1.5},
        {"delta": -0.1},
        {"delta": float("nan")},
        {"epsilon": 0.0},
        {"p": 0.0},
        {"p": 0.6},
        {"weight_decay": -1e-4},
        {"weight_decay": float("nan")},
        {"momentum": 1.0},
        {"beta1t_mode": "linear"},
        {"eps_mode": "inside"},
        {"wd_mode": "l2"},
        {"trigger_lr_mode": "warmup"},
        {"eta0": float("inf")},
        {"delta": float("inf")},
        {"epsilon": float("inf")},
        {"weight_decay": float("inf")},
    ],
)
def test_hyperparams_rejects_bad_values(kwargs):
    (field,) = kwargs
    with pytest.raises(ValueError, match=f"^{field} must"):
        HyperParams(**kwargs)


def test_hyperparams_delta_zero_is_allowed():
    # delta = 0 turns the projection trigger off (strict comparison).
    assert HyperParams(delta=0.0).delta == 0.0


def test_with_copies_and_revalidates():
    hp = HyperParams()
    hp2 = hp.with_(p=0.5)
    assert hp2.p == 0.5
    assert hp.p == 0.25
    with pytest.raises(ValueError):
        hp.with_(p=2.0)


def test_beta1_at_constant_and_geometric():
    hp = HyperParams(beta1=0.9)
    assert beta1_at(1, hp) == 0.9
    assert beta1_at(1000, hp) == 0.9

    geo = HyperParams(beta1=0.9, lam=0.5, beta1t_mode="geometric")
    assert beta1_at(1, geo) == 0.9
    assert beta1_at(3, geo) == pytest.approx(0.225, rel=1e-15)
    with pytest.raises(ValueError):
        beta1_at(0, hp)


def test_param_group_coerces_and_validates():
    g = ParamGroup("w", [1, 2, 3])
    assert g.values.dtype == np.float64
    assert g.dim == 3
    with pytest.raises(ValueError):
        ParamGroup("w", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ParamGroup("w", np.zeros(0))


def test_new_state_buffers_and_errors():
    groups = [ParamGroup("a", np.ones(3)), ParamGroup("b", np.ones(5))]
    state = new_state(groups, HyperParams())
    assert state.t == 0
    assert set(state.m) == {"a", "b"}
    assert np.all(state.v["b"] == 0.0)
    assert state.c1["a"] == 0.0

    with pytest.raises(ValueError):
        new_state([], HyperParams())
    with pytest.raises(ValueError):
        new_state([ParamGroup("a", np.ones(2)), ParamGroup("a", np.ones(2))],
                  HyperParams())


def test_check_grads_errors():
    groups = [ParamGroup("a", np.ones(3))]
    with pytest.raises(ValueError, match="missing gradient"):
        check_grads(groups, {})
    with pytest.raises(ValueError, match="shape"):
        check_grads(groups, {"a": np.ones(4)})
    with pytest.raises(FloatingPointError):
        check_grads(groups, {"a": np.array([1.0, np.nan, 0.0])})


def test_rng_determinism():
    a = seeded_rng(7).standard_normal(4)
    b = seeded_rng(7).standard_normal(4)
    assert np.array_equal(a, b)
