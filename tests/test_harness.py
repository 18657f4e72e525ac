import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padamp.harness
from padamp.cli import _load_mapping, build_parser
from padamp.core import HyperParams, ParamGroup
from padamp.diagnostics import LEMMA_COLUMNS, TelemetryTable
from padamp.harness import (
    _PARSERS,
    CONFIG_KEYS,
    ExperimentConfig,
    LRSchedule,
    PSchedule,
    build_config,
    build_objective,
    check_telemetry,
    parse_config_file,
    read_telemetry,
    run,
    schedule_lr,
    schedule_p,
    sweep,
    table1_defaults,
    write_telemetry,
)
from padamp.objectives import _TinyMLP
from padamp.optimizers import OptimizerKind


def _quad_config(**kw):
    base = dict(
        optimizer="padamp",
        hp=table1_defaults("padamp", eta0=1e-3, weight_decay=0.0),
        objective="quadratic",
        objective_params={"dim": 4},
        schedule=LRSchedule(family="constant"),
        steps=6,
        init_scale=0.5,
        steps_per_epoch=3,
        seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _quad_keys(steps="6"):
    """_quad_config() as dotted config keys (its schedule is the default one)."""
    return {"optimizer.kind": "padamp", "hp.weight_decay": "0.0",
            "objective.name": "quadratic", "objective.dim": "4",
            "run.steps": steps, "run.init_scale": "0.5",
            "run.steps_per_epoch": "3", "run.seed": "1"}


# ----------------------------------------------------------------- defaults

def test_table1_defaults_per_family():
    pa = table1_defaults("padamp")
    assert (pa.eta0, pa.beta2, pa.weight_decay) == (1e-3, 0.999, 1e-2)
    assert table1_defaults("adamp").beta2 == 0.999
    assert table1_defaults("padam").weight_decay == 1e-2
    ad = table1_defaults("adam")
    assert (ad.eta0, ad.beta2, ad.weight_decay) == (1e-3, 0.99, 1e-4)
    assert table1_defaults("amsgrad").beta2 == 0.99
    sg = table1_defaults("sgdm")
    assert (sg.eta0, sg.momentum, sg.weight_decay) == (0.1, 0.9, 5e-4)
    assert table1_defaults("padamp", p=0.5).p == 0.5


# ---------------------------------------------------------------- schedules

def test_power_schedule_exact_value():
    sched = LRSchedule(family="power", a=0.75)
    # 16^0.75 = 8 exactly
    assert schedule_lr(16, sched, 1e-3) == 1.25e-4
    assert schedule_lr(1, sched, 1e-3) == 1e-3


def test_piecewise_schedule_counts_milestones():
    sched = LRSchedule(family="piecewise", milestones=(50, 100, 150), factor=0.1)
    assert schedule_lr(49, sched, 1e-3) == 1e-3
    assert schedule_lr(50, sched, 1e-3) == pytest.approx(1e-4, rel=1e-12)
    assert schedule_lr(120, sched, 1e-3) == pytest.approx(1e-5, rel=1e-12)
    assert schedule_lr(200, sched, 1e-3) == pytest.approx(1e-6, rel=1e-12)


def test_constant_schedule_and_index_guard():
    sched = LRSchedule(family="constant")
    assert schedule_lr(1, sched, 0.05) == schedule_lr(999, sched, 0.05) == 0.05
    with pytest.raises(ValueError, match=">= 1"):
        schedule_lr(0, sched, 0.05)


@pytest.mark.parametrize("sched", [
    LRSchedule(family="constant"),
    LRSchedule(family="power", a=0.6),
    LRSchedule(family="piecewise", milestones=(10, 300), factor=0.5),
])
def test_schedules_never_increase(sched):
    etas = np.array([schedule_lr(t, sched, 0.1) for t in range(1, 1001)])
    assert np.all(np.diff(etas) <= 0.0)


def _schedule_lr_expr(t, family, eta0, a, milestones, factor):
    """The rate as the schedule computed it when LRSchedule held eta0."""
    if family == "constant":
        return eta0
    if family == "power":
        return eta0 / float(t) ** a
    return eta0 * factor ** sum(1 for m in milestones if t >= m)


@given(st.sampled_from(["constant", "power", "piecewise"]),
       st.floats(1e-300, 1e300), st.floats(1e-3, 10.0),
       st.lists(st.integers(1, 500), min_size=1, max_size=5, unique=True).map(sorted),
       st.floats(1e-3, 1.0), st.integers(1, 10 ** 6))
def test_schedule_lr_keeps_the_bits_of_the_schedule_held_rate(family, eta0, a, milestones,
                                                              factor, t):
    sched = LRSchedule(family=family, a=a, milestones=tuple(milestones), factor=factor)
    got = schedule_lr(t, sched, eta0)
    want = _schedule_lr_expr(t, family, eta0, a, milestones, factor)
    assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


def test_lr_schedule_validation():
    with pytest.raises(ValueError, match="unknown schedule family"):
        LRSchedule(family="cosine")
    with pytest.raises(ValueError, match="eta0"):
        HyperParams(eta0=0.0)
    with pytest.raises(ValueError, match="exponent"):
        LRSchedule(family="power", a=0.0)
    with pytest.raises(ValueError, match="factor"):
        LRSchedule(family="piecewise", factor=0.0)
    with pytest.raises(ValueError, match="milestones"):
        LRSchedule(family="piecewise", milestones=(100, 50))
    with pytest.raises(ValueError, match="milestones"):
        LRSchedule(family="piecewise", milestones=(0, 50))


def test_p_schedule_switches_at_decay_epoch():
    ps = PSchedule(decay_epoch=100, new_p=0.125)
    assert schedule_p(99, ps, base_p=0.25) == 0.25
    assert schedule_p(100, ps, base_p=0.25) == 0.125
    assert schedule_p(500, ps, base_p=0.25) == 0.125
    assert schedule_p(7, None, base_p=0.25) == 0.25
    with pytest.raises(ValueError, match="decay_epoch"):
        PSchedule(decay_epoch=0, new_p=0.25)
    with pytest.raises(ValueError, match="new_p"):
        PSchedule(decay_epoch=10, new_p=0.6)


# --------------------------------------------------------------- objectives

def test_build_objective_dispatch_and_params():
    quad = build_objective("quadratic", {"dim": 3, "condition": 10.0}, data_seed=0)
    assert quad.group_layout == {"theta": 3}
    assert quad.a_diag.max() == 10.0
    assert build_objective("rosenbrock", {}, 0).name == "rosenbrock"
    assert build_objective("scale_invariant", {"dim": 5}, 0).group_layout == {"theta": 5}
    logi = build_objective("logistic", {"d": 4, "n": 32}, data_seed=9)
    assert logi.dataset.n == 32
    mlp = build_objective("tiny_mlp", {"d_in": 3, "hidden": 4, "classes": 2,
                                       "n": 16}, data_seed=9)
    assert mlp.group_layout == {"w1": 12, "w2": 8}
    with pytest.raises(ValueError, match="unknown objective"):
        build_objective("mnist", {}, 0)


def test_mlp_run_makes_one_forward_pass_per_step(monkeypatch):
    passes = []
    forward = _TinyMLP._forward

    def counted(self, *args):
        passes.append(1)
        return forward(self, *args)

    monkeypatch.setattr(_TinyMLP, "_forward", counted)
    run(build_config({}, {"objective.name": "tiny_mlp", "run.steps": "20",
                          "run.eval_every": "10", "run.eval_window": "4"}))
    # grad reuses eval's pass; each of 2 eval points adds a window of 4
    # gradients, and the final accuracy one full-dataset pass.
    assert len(passes) == 20 + 2 * 4 + 1


def test_mlp_run_with_an_overflowing_batch_norm_variance_raises(tmp_path):
    # At separation 1e308, d * d overflows in the batch-norm variance: every
    # normalized unit would read 0 and every gradient 0. The run stops on the
    # first forward pass, before any row is written, and does not warn; its
    # CSV is the header alone.
    out = tmp_path / "run.csv"
    cfg = build_config({}, {"objective.name": "tiny_mlp", "objective.separation": "1e308",
                            "run.steps": "3", "run.out": str(out)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="batch-norm variance"):
            run(cfg)
    assert out.read_text().count("\n") == 1


def test_build_objective_data_seed_param_wins():
    a = build_objective("logistic", {"d": 3, "n": 16, "data_seed": 5}, data_seed=0)
    b = build_objective("logistic", {"d": 3, "n": 16, "data_seed": 5}, data_seed=99)
    np.testing.assert_array_equal(a.dataset.features, b.dataset.features)


# ------------------------------------------------------------------- config

def test_config_budget_must_be_exactly_one():
    with pytest.raises(ValueError, match="exactly one"):
        _quad_config(steps=5, epochs=2)
    with pytest.raises(ValueError, match="exactly one"):
        _quad_config(steps=None)
    with pytest.raises(ValueError, match=">= 1"):
        _quad_config(steps=0)


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError, match="unknown objective"):
        _quad_config(objective="cifar")
    with pytest.raises(ValueError, match="takes no parameter dim"):
        ExperimentConfig(objective="logistic", objective_params={"dim": 3}, steps=2)
    with pytest.raises(ValueError, match="batch_size"):
        _quad_config(batch_size=0)
    with pytest.raises(ValueError):
        _quad_config(eval_every=0)
    with pytest.raises(ValueError, match="init_scale"):
        _quad_config(init_scale=0.0)
    with pytest.raises(ValueError):
        _quad_config(optimizer="lion")


@pytest.mark.parametrize("field, build", [
    ("eta0", lambda: HyperParams(eta0=float("nan"))),
    ("exponent a", lambda: LRSchedule(family="power", a=float("nan"))),
    ("init_scale", lambda: _quad_config(init_scale=float("nan"))),
    pytest.param("eta0", lambda: HyperParams(eta0=float("inf")), id="eta0-inf"),
    pytest.param("exponent a", lambda: LRSchedule(family="power", a=float("inf")),
                 id="exponent a-inf"),
    pytest.param("init_scale", lambda: _quad_config(init_scale=float("inf")),
                 id="init_scale-inf"),
])
def test_config_rejects_nan(field, build):
    with pytest.raises(ValueError, match=field):
        build()


# Keys a float key needs beside it for its value to reach its check.
_PARTNER_KEYS = {"p_schedule.new_p": {"p_schedule.decay_epoch": "2"},
                 "objective.separation": {"objective.name": "logistic"}}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [k for k, parse in _PARSERS.items() if parse is float])
def test_every_float_key_rejects_non_finite_values(key, value, monkeypatch):
    def first_step(*args):
        raise AssertionError(f"{key}={value} reached the run loop")

    monkeypatch.setattr("padamp.harness.new_state", first_step)
    field = key.partition(".")[2]
    with pytest.raises(ValueError, match=rf"\b{field} must"):
        run(build_config(dict(_PARTNER_KEYS.get(key, {}), **{key: value})))


# --------------------------------------------------------------------- runs

def test_run_counts_steps_and_epochs_analytic():
    result = run(_quad_config(steps=7, steps_per_epoch=3))
    cols = result.records.columns()
    assert cols["t"].tolist() == list(range(1, 8))
    assert cols["epoch"].tolist() == [1, 1, 1, 2, 2, 2, 3]
    # only the final step is a checkpoint when eval_every exceeds the budget
    estimates = cols["eval_grad_norm_sq"]
    assert np.isnan(estimates[:-1]).all() and not np.isnan(estimates[-1])
    assert np.isnan(result.summary["final_accuracy"])
    assert result.summary["final_loss"] == cols["loss"][-1]


@pytest.mark.parametrize("kind", ["padamp", "sgdm"])
@pytest.mark.parametrize("objective", ["quadratic", "scale_invariant", "rosenbrock"])
def test_estimate_without_a_dataset_is_the_rows_grad_norm_sq(objective, kind):
    # Without a dataset, an eval point's estimate is the squared gradient
    # norm its step already wrote, bit for bit; off the eval points it is nan.
    keys = {"optimizer.kind": kind, "objective.name": objective, "run.steps": "60",
            "run.eval_every": "7", "run.seed": "3"}
    if objective == "quadratic":
        keys["objective.condition"] = "100"
    if kind == "sgdm":
        keys["schedule.eta0"] = "1e-3"  # 0.1 diverges on rosenbrock
    cols = run(build_config({}, keys)).records.columns()
    at_eval = (cols["t"] % 7 == 0) | (cols["t"] == 60)
    assert np.count_nonzero(at_eval) == 9
    est = cols["eval_grad_norm_sq"]
    assert np.isnan(est[~at_eval]).all()
    assert est[at_eval].tobytes() == cols["grad_norm_sq"][at_eval].tobytes()


def test_run_epoch_budget_on_dataset_objective():
    cfg = ExperimentConfig(
        optimizer="padamp",
        hp=table1_defaults("padamp", eta0=1e-3),
        objective="logistic",
        objective_params={"d": 4, "n": 512},
        schedule=LRSchedule(family="constant"),
        epochs=2,
        batch_size=128,
        seed=0,
        eval_window=2,
        eval_every=100,
    )
    result = run(cfg)
    # 512 examples / 128 per batch = 4 steps per epoch
    assert len(result.records) == 8
    assert result.records.columns()["epoch"].tolist() == [1] * 4 + [2] * 4
    assert 0.0 <= result.summary["final_accuracy"] <= 1.0


def test_eval_window_estimate_is_squared_norm_of_mean_gradient():
    cfg = ExperimentConfig(
        optimizer="padamp",
        hp=table1_defaults("padamp", eta0=1e-3),
        objective="logistic",
        objective_params={"d": 4, "n": 256},
        schedule=LRSchedule(family="constant"),
        steps=1,
        batch_size=16,
        seed=3,
        eval_window=8,
    )
    result = run(cfg)
    # rebuild the objective, the init parameters and the window's batches
    data_ss, init_ss, _, eval_ss = np.random.SeedSequence(cfg.seed).spawn(4)
    objective = build_objective(cfg.objective, cfg.objective_params,
                                int(data_ss.generate_state(1)[0]))
    params = objective.init_params(np.random.default_rng(init_ss),
                                   scale=cfg.init_scale)
    eval_rng = np.random.default_rng(eval_ss)
    window = [objective.grad(params, objective.dataset.sample(cfg.batch_size, eval_rng))
              for _ in range(cfg.eval_window)]
    flat = [np.concatenate([g[pg.name] for pg in params]) for g in window]
    mean_sq = float(np.sum(np.mean(flat, axis=0) ** 2))
    mean_of_sq = float(np.mean([np.sum(f * f) for f in flat]))
    estimate = result.records.columns()["eval_grad_norm_sq"][0]
    np.testing.assert_allclose(estimate, mean_sq, rtol=1e-12)
    assert estimate < mean_of_sq


def test_run_reports_lemma_rows_only_for_adaptive_kinds():
    adaptive = run(_quad_config())
    names = [name for name, _, _ in adaptive.report.rows]
    assert "lemma2_max_scaled_residual" in names
    assert "lemma5_moment_diff_min" in names

    sgdm_cfg = _quad_config(optimizer="sgdm",
                            hp=table1_defaults("sgdm", eta0=0.01, weight_decay=0.0),
                            schedule=LRSchedule(family="constant"))
    plain = run(sgdm_cfg)
    plain_names = [name for name, _, _ in plain.report.rows]
    assert "lemma2_max_scaled_residual" not in plain_names
    assert plain.report.all_passed


@pytest.mark.parametrize("over", [
    {"objective.name": "tiny_mlp", "objective.n": "64", "run.batch_size": "16"},
    {"optimizer.kind": "sgdm", "objective.name": "logistic", "objective.n": "64",
     "run.batch_size": "16"},
    {"objective.name": "scale_invariant", "objective.dim": "8"},
], ids=["padamp_tiny_mlp", "sgdm_logistic", "padamp_scale_invariant"])
def test_run_report_holds_the_rows_check_gives_its_csv(over, tmp_path):
    path = tmp_path / "t.csv"
    cfg = build_config({}, dict(over, **{"run.steps": "40", "run.out": str(path)}))
    result = run(cfg)
    replayed = check_telemetry(read_telemetry(str(path))).rows
    assert any(name == "non_finite_values" for name, _, _ in replayed)
    # run's rows are check's rows, bit for bit, then the schedule verdict.
    *live, (last, _, _) = result.report.rows
    assert last == "schedule_theorem_assumptions"
    assert [(n, np.float64(v).tobytes(), p) for n, v, p in live] == [
        (n, np.float64(v).tobytes(), p) for n, v, p in replayed]
    names = [name for name, _, _ in live]
    assert "eval_grad_norm_sq_valid" in names
    lemma_rows = [name for name in names if name.startswith("lemma")]
    if cfg.optimizer == OptimizerKind.SGDM:
        assert lemma_rows == []
    else:
        assert lemma_rows == ["lemma2_max_scaled_residual", "lemma3_upper_min"] + [
            f"{c}_min" for c in _ADDED_COLUMNS[:6]]


@pytest.mark.parametrize("schedule, value", [
    (LRSchedule(family="power", a=0.75), 1.0),
    (LRSchedule(family="power", a=1.0), 1.0),
    (LRSchedule(family="power", a=0.5), 0.0),
    (LRSchedule(family="power", a=1.5), 0.0),
    (LRSchedule(family="constant"), 0.0),
    (LRSchedule(family="piecewise"), 0.0),
], ids=["power_0.75", "power_1", "power_0.5", "power_1.5", "constant", "piecewise"])
def test_run_reports_the_schedule_verdict(schedule, value):
    result = run(_quad_config(schedule=schedule))
    # Informational: a schedule outside the theorem's window still passes.
    assert result.report.rows[-1] == ("schedule_theorem_assumptions", value, True)


def test_run_with_coupled_weight_decay_passes_every_check():
    # The step's slacks use the gradients the moments saw, wd * theta included.
    cfg = _quad_config(hp=table1_defaults("padamp", weight_decay=0.1, wd_mode="coupled"),
                       steps=200)
    result = run(cfg)
    assert "lemma5_moment_diff_min" in [name for name, _, _ in result.report.rows]
    assert result.report.all_passed, str(result.report)


@pytest.mark.parametrize("keys", [
    {"hp.epsilon": "1"},
    {"hp.beta2": "0.999999999"},
    {"objective.name": "tiny_mlp", "hp.weight_decay": "1", "hp.epsilon": "1"},
], ids=["epsilon1", "beta2", "tiny_mlp"])
def test_coupled_decay_c1_bounds_the_decayed_gradient(keys):
    # Under coupled decay the moments and the lemmas see g + wd * theta, and
    # C1 bounds its norm. At eps = 1, or with v far below its bound, lemma
    # 5's C1**2 / eps**(2p) no longer hides a C1 of the raw gradient.
    result = run(build_config({}, dict(keys, **{"hp.wd_mode": "coupled", "run.steps": "200"})))
    assert result.report.all_passed, str(result.report)


def test_geometric_beta1t_survives_underflow_to_zero():
    # beta1 * 0.5**(t-1) underflows to 0.0 near t = 1075; the moment identity
    # still holds there (m_t = g_t), so the run completes and passes.
    cfg = build_config({}, {"hp.lam": "0.5", "objective.dim": "5", "run.steps": "1100"})
    result = run(cfg)
    assert len(result.records) == 1100
    assert result.report.all_passed, str(result.report)


def test_run_aborts_on_divergence_with_step_index():
    cfg = ExperimentConfig(
        optimizer="sgdm",
        hp=table1_defaults("sgdm", eta0=100.0, weight_decay=0.0),
        objective="rosenbrock",
        schedule=LRSchedule(family="constant"),
        steps=50,
        init_scale=2.0,
        seed=0,
    )
    with pytest.raises(RuntimeError, match=r"non-finite loss .* at step"):
        run(cfg)


def test_aborted_run_writes_the_steps_before_the_abort(tmp_path):
    path = tmp_path / "div.csv"
    cfg = build_config({}, {"optimizer.kind": "sgdm", "objective.name": "rosenbrock",
                            "schedule.eta0": "0.5", "run.out": str(path)})
    with pytest.raises(RuntimeError, match="at step 6;"):
        run(cfg)
    cols = read_telemetry(str(path))
    np.testing.assert_array_equal(cols["t"], [1, 2, 3, 4, 5])
    # The rows are those of a run that stops before the abort.
    short = run(build_config({}, {"optimizer.kind": "sgdm", "objective.name": "rosenbrock",
                                  "schedule.eta0": "0.5", "run.steps": "5"}))
    for name, col in short.records.columns().items():
        if name != "eval_grad_norm_sq":  # step 5 is the short run's last, an eval point
            assert cols[name].tobytes() == col.tobytes(), name
    # An abort at step 1 writes the header alone, over the earlier file.
    cfg = build_config({}, {"schedule.eta0": "1e308", "run.init_scale": "100",
                            "run.out": str(path)})
    with pytest.raises(FloatingPointError, match="non-finite parameters"):
        run(cfg)
    assert path.read_text() == ",".join(cols) + "\n"


@pytest.mark.parametrize("kind, row, value, bad", [
    ("padamp", 2, "nan", 1), ("padamp", 0, "0.0", 1), ("padamp", 5, "0.75", 1),
    ("padamp", 3, "-inf", 1), ("sgdm", 4, "0.25", 5),
])
def test_p_now_in_range_fails_an_entry_the_kind_cannot_write(kind, row, value, bad):
    hp = table1_defaults(kind, weight_decay=0.0)
    # The columns are read-only views of the run's table; the test edits a copy.
    cols = {name: col.copy() for name, col in
            run(_quad_config(optimizer=kind, hp=hp)).records.columns().items()}
    passing = {n: (v, p) for n, v, p in check_telemetry(cols).rows}
    assert passing["p_now_in_range"] == (0.0, True)
    assert passing["p_max_increase"] == (0.0, True)
    cols["p_now"][row] = float(value)
    rows = {n: (v, p) for n, v, p in check_telemetry(cols).rows}
    # A mix of nan and numbers fails: the table is neither adaptive nor sgdm.
    assert rows["p_now_in_range"] == (float(bad), False)
    if value == "nan":
        assert np.isnan(rows["p_max_increase"][0]) and not rows["p_max_increase"][1]


def test_run_writes_and_reads_back_telemetry(tmp_path):
    path = tmp_path / "telemetry.csv"
    result = run(_quad_config(output_path=str(path)))
    cols = read_telemetry(str(path))
    assert list(cols) == ["t", "epoch", "eta_t", "p_now", "loss", "grad_norm_sq",
                          "theta_param_norm", "theta_cos_sim", "theta_projected",
                          "theta_effective_step_norm", "lemma2_residual",
                          "lemma3_margin", *_ADDED_COLUMNS]
    # Bit for bit, nan payloads and signed zeros included, in the same dtypes.
    for name, col in result.records.columns().items():
        assert cols[name].dtype == col.dtype, name
        assert cols[name].tobytes() == col.tobytes(), name


def _per_value_csv(cols):
    """The CSV as each entry's own repr, the form write_telemetry saves work on."""
    rows = [list(cols)] + [list(map(repr, row))
                           for row in zip(*(v.tolist() for v in cols.values()))]
    return "".join(",".join(row) + "\n" for row in rows)


_NAN = float("nan")


@pytest.mark.parametrize("cols", [
    {"x": np.full(5, 0.1), "y": np.arange(5.0)},
    {"zeros": np.array([0.0, -0.0, 0.0]), "neg": np.full(3, -0.0), "pos": np.zeros(3)},
    {"nan": np.full(4, _NAN), "payloads": np.array([_NAN, -_NAN, _NAN, _NAN]),
     "inf": np.array([np.inf, np.inf, -np.inf, np.inf])},
    {"t": np.arange(1, 5), "epoch": np.ones(4, dtype=np.int64),
     "flag": np.array([0, 0, 1, 0]), "big": np.full(4, 2 ** 62)},
    {"t": np.array([1]), "loss": np.array([3.5]), "nan": np.array([_NAN])},
    {"t": np.empty(0, dtype=np.int64), "loss": np.empty(0)},
], ids=["repeated", "signed_zeros", "nans", "ints", "one_row", "empty"])
def test_write_telemetry_writes_each_entrys_repr(cols, tmp_path):
    # A column whose entries share one bit pattern is formatted once; the
    # text is the per-value form's, a mix of 0.0 and -0.0 and nans included.
    path = tmp_path / "t.csv"
    write_telemetry(cols, str(path))
    assert path.read_text() == _per_value_csv(cols)


def test_rerun_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(_quad_config(output_path=str(p1), seed=3))
    run(_quad_config(output_path=str(p2), seed=3))
    assert p1.read_bytes() == p2.read_bytes()


# SHA-256 of the telemetry CSV of six configs at 200 steps and seed 3,
# recorded with numpy 2.4.6 and Python 3.11.7 on x86-64 Linux under
# numeric_pin (conftest.py loads it). Together they cover one and two
# parameter groups, projected and unprojected steps, the nan lemma columns
# of sgdm, and coupled weight decay. The first digest covers every column
# but _ADDED_COLUMNS, so it tells a move in those columns from one in the
# rest; the second covers the whole file.
_PINNED_TELEMETRY = {
    "padamp quadratic": (
        {"objective.name": "quadratic", "objective.dim": "20",
         "objective.condition": "100"},
        "c13c87decfa914eb75b7be822f66624f76dc96714d88228700e3378620419cb6",
        "3c2b828a0dc32c08666b8e2cfe5761ad94294aa9b7664351421e7361d4258fcc"),
    "padamp tiny_mlp": (
        {"objective.name": "tiny_mlp"},
        "4e8abc3268b7a98c4825825c1ff2981bdc83e0f5fe102ef900606c12b9087ef6",
        "da4e011674bfbc076704f06d014fedfb41d4526b8e1e8f312196b3bce2cfee63"),
    "sgdm logistic": (
        {"optimizer.kind": "sgdm", "objective.name": "logistic"},
        "51841408da26ef625d99340b83a09b8e52db7068871cd6787b480448ee2bf667",
        "9677c683b2021dacdf1cecd19f3480b2c9badfd19c34ba7caf214bb78bc5a851"),
    "adamp scale_invariant coupled": (
        {"optimizer.kind": "adamp", "objective.name": "scale_invariant",
         "hp.wd_mode": "coupled"},
        "5f8e307fe0be65ea71f87b2558cd9415a8081ea949c6148c4abd3e2f223a5220",
        "2968885367a3a9bb853133b4bba225c60873b1eb580373afa02c0ff1fb11f492"),
    # A max-tracked v, and a decaying beta1,t that sets lemma 2's b / (1 - b).
    "padam quadratic lam": (
        {"optimizer.kind": "padam", "objective.name": "quadratic",
         "objective.condition": "100", "hp.lam": "0.99"},
        "fd71eee572fb0a119b528f49d2eb285ca8f5d92246901fdab5b9ae9ac02b1b6d",
        "bcdf13e6cf903fc9c71a0cb970ce9f7a6b8cf1ce92deef1eadd9f6835733f578"),
    "amsgrad tiny_mlp post": (
        {"optimizer.kind": "amsgrad", "objective.name": "tiny_mlp", "hp.eps_mode": "post"},
        "47bc103195406f4407f1cd32a650bb9f767bebba6d6eada962704c373d0a50bd",
        "e66a5d5d00200ac8cdc45cb26211b971ff70e1106f17795ca3db453524ccc95a"),
}

# The lemma-3/4/5 slack columns and the eval-window estimate, which follow
# lemma3_margin.
_ADDED_COLUMNS = ["lemma3_lower", "lemma4_lower", "lemma4_upper", "lemma5_radial",
                  "lemma5_precond_sq", "lemma5_moment_diff", "eval_grad_norm_sq"]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(_PINNED_TELEMETRY))
def test_telemetry_bytes_match_pinned_digests(tmp_path, name):
    keys, earlier_digest, digest = _PINNED_TELEMETRY[name]
    path, earlier = tmp_path / "run.csv", tmp_path / "earlier.csv"
    run(build_config(keys, {"run.steps": "200", "run.seed": "3", "run.out": str(path)}))
    assert _sha256(path) == digest
    cols = read_telemetry(str(path))
    write_telemetry({k: v for k, v in cols.items() if k not in _ADDED_COLUMNS},
                    str(earlier))
    assert _sha256(earlier) == earlier_digest


@pytest.mark.parametrize("name", list(_PINNED_TELEMETRY))
def test_telemetry_read_back_writes_the_same_bytes(tmp_path, name):
    keys = _PINNED_TELEMETRY[name][0]
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    run(build_config(keys, {"run.steps": "200", "run.seed": "3", "run.out": str(p)}))
    write_telemetry(read_telemetry(str(p)), str(q))
    assert q.read_bytes() == p.read_bytes()


# Runs whose lemma columns the table writes a block of rows at a time. The p
# schedule decays p at step 21, inside a block of 8 rows (and of the
# default height); 61 steps is no multiple of either height.
_BATCHED_RUNS = {
    "padamp quadratic": {"objective.name": "quadratic", "objective.dim": "20",
                         "objective.condition": "100"},
    "padamp scale_invariant": {"objective.name": "scale_invariant"},
    "padamp logistic": {"objective.name": "logistic"},
    "padamp tiny_mlp": {"objective.name": "tiny_mlp"},
    "amsgrad quadratic": {"optimizer.kind": "amsgrad", "objective.name": "quadratic",
                          "objective.dim": "20", "objective.condition": "100"},
    "padamp quadratic p_schedule": {
        "objective.name": "quadratic", "run.steps_per_epoch": "10",
        "p_schedule.decay_epoch": "3", "p_schedule.new_p": "0.125"},
    "padamp tiny_mlp p_schedule": {
        "objective.name": "tiny_mlp", "p_schedule.decay_epoch": "6",
        "p_schedule.new_p": "0.125"},
    # Past LEMMA_BLOCK_ELEMENTS: the default block holds reductions only.
    "padamp quadratic d=10000": {"objective.name": "quadratic", "objective.dim": "10000",
                                 "p_schedule.decay_epoch": "2", "p_schedule.new_p": "0.125",
                                 "run.steps_per_epoch": "20"},
    # No lemma block either way: sgdm's lemma columns stay nan.
    "sgdm quadratic": {"optimizer.kind": "sgdm", "objective.name": "quadratic",
                       "objective.dim": "20", "objective.condition": "100"},
}


def _assert_same_columns(table, other):
    """Two tables' columns agree bit for bit."""
    want = other.columns()
    assert list(table.columns()) == list(want)
    for name, col in table.columns().items():
        assert col.tobytes() == want[name].tobytes(), name


def _set_lemma_batch(monkeypatch, height, hold_inputs=True):
    """Make the lemma block of run's table `height` rows high, holding the
    steps' inputs or only their reductions. None keeps the default block;
    1 holds one step's reductions, and so flushes at every step."""
    def table(groups, eps, rows):
        budget = height * sum(g.dim for g in groups) if hold_inputs and height > 1 else 0
        monkeypatch.setattr(padamp.diagnostics, "LEMMA_BLOCK_ELEMENTS", budget)
        monkeypatch.setattr(padamp.diagnostics, "_REDUCED_ROWS", height)
        return TelemetryTable(groups, eps, rows)
    if height is not None:
        monkeypatch.setattr(padamp.harness, "TelemetryTable", table)


def test_lemma_batch_holds_inputs_up_to_the_element_budget():
    def blocks(dims):
        return TelemetryTable([ParamGroup(f"g{i}", np.zeros(d)) for i, d in enumerate(dims)],
                              1e-8).blocks.values()
    # 16384 // 20 = 819 rows; two groups share the budget.
    assert [inputs.shape for inputs, _, _ in blocks([20])] == [(5, 819, 20)]
    assert [inputs.shape for inputs, _, _ in blocks([8000, 192])] == [(5, 2, 8000),
                                                                      (5, 2, 192)]
    # Under 2 rows: each step's reductions, 256 steps of them.
    assert [(inputs, found.shape) for inputs, _, found in blocks([8193])] == [
        (None, (9, 256))]


@pytest.mark.parametrize("height, hold_inputs", [(None, True), (8, True), (8, False)],
                         ids=["default", "inputs8", "reductions8"])
@pytest.mark.parametrize("name", list(_BATCHED_RUNS))
def test_batched_run_writes_what_unbatched_steps_write(name, height, hold_inputs, tmp_path,
                                                       monkeypatch):
    # The unbatched steps write through one-row blocks of reductions, each
    # flushed by its own step.
    keys = dict(_BATCHED_RUNS[name], **{"run.steps": "61", "run.seed": "3"})
    results, paths = [], [tmp_path / "batched.csv", tmp_path / "unbatched.csv"]
    for path, block in zip(paths, ((height, hold_inputs), (1, False))):
        with monkeypatch.context() as patch:
            _set_lemma_batch(patch, *block)
            results.append(run(build_config(keys, {"run.out": str(path)})))
    batched, unbatched = results
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _assert_same_columns(batched.records, unbatched.records)
    assert batched.report.rows == unbatched.report.rows
    if "p_schedule" in name:
        assert len(set(batched.records.columns()["p_now"].tolist())) == 2
    if name.startswith("sgdm"):
        cols = batched.records.columns()
        assert all(np.isnan(cols[c]).all() for c in LEMMA_COLUMNS)


@pytest.mark.parametrize("height", [None, 3], ids=["default", "inputs3"])
def test_table_grows_across_a_budget_that_is_no_power_of_two(height, tmp_path, monkeypatch):
    # A table that starts 1 row high doubles to 64 rows over 61 steps, with
    # lemma rows pending across each doubling at height 3; one that starts
    # at the budget never grows. Both write the same rows.
    keys = dict(_BATCHED_RUNS["padamp quadratic"], **{"run.steps": "61"})
    results, paths = [], [tmp_path / "grown.csv", tmp_path / "whole.csv"]
    for path, first_rows in zip(paths, (1, 61)):
        with monkeypatch.context() as patch:
            _set_lemma_batch(patch, height)
            patch.setattr(padamp.harness, "TABLE_ROWS", first_rows)
            results.append(run(build_config(keys, {"run.out": str(path)})))
    grown, whole = results
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert len(grown.records) == 61 and grown.records.columns()["t"][-1] == 61
    assert grown.records.data.shape == (64, 19) and whole.records.data.shape == (61, 19)
    _assert_same_columns(grown.records, whole.records)


def test_records_read_the_table_row_by_row():
    # The records are read as columns: entry i of each is row i, one per
    # completed step. tiny_mlp has two groups; padamp projects one of them.
    result = run(build_config({}, {"objective.name": "tiny_mlp", "run.steps": "5"}))
    rows, cols = result.records, result.records.columns()
    assert len(rows) == 5 and cols["t"].tolist() == [1, 2, 3, 4, 5]
    assert list(cols) == list(rows.names) and all(len(col) == 5 for col in cols.values())
    assert cols["w1_projected"].any() or cols["w2_projected"].any()
    for name, col in cols.items():
        assert col.tobytes() == rows.data[:5, rows.names.index(name)].astype(col.dtype).tobytes()
    # Read-only: the columns take no write.
    with pytest.raises(ValueError, match="read-only"):
        cols["loss"][0] = 1.0


@pytest.mark.parametrize("eta0, error, message", [
    # The loss check aborts the run, or the step raises.
    ("1e10", RuntimeError, "non-finite loss inf at step 5"),
    ("1e3", FloatingPointError, "squared gradient norm of group 'theta' overflows"),
])
@pytest.mark.parametrize("hold_inputs", [True, False], ids=["inputs", "reductions"])
@pytest.mark.parametrize("height", [2, 3])
def test_aborted_batched_run_writes_what_unbatched_steps_write(eta0, error, message, height,
                                                               hold_inputs, tmp_path,
                                                               monkeypatch):
    # The unbatched steps write through one-row blocks of reductions.
    keys = {"objective.name": "rosenbrock", "schedule.eta0": eta0, "run.steps": "40"}
    paths = [tmp_path / "batched.csv", tmp_path / "unbatched.csv"]
    for path, block in zip(paths, ((height, hold_inputs), (1, False))):
        with monkeypatch.context() as patch:
            _set_lemma_batch(patch, *block)
            with pytest.raises(error, match=message):
                run(build_config(keys, {"run.out": str(path)}))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    cols = read_telemetry(str(paths[0]))
    assert cols["t"].size > height and np.isfinite(cols["lemma2_residual"]).all()


def test_overflowing_objective_names_the_step(tmp_path):
    # tiny_mlp's batch norm overflows at the first step; the CSV has no rows
    # to write, only the header.
    keys = {"objective.name": "tiny_mlp", "objective.separation": "1e308"}
    with pytest.raises(FloatingPointError,
                       match=r"^tiny_mlp batch-norm variance is not finite: .* at step 1$"):
        run(build_config(keys, {"run.steps": "3", "run.out": str(tmp_path / "run.csv")}))
    assert (tmp_path / "run.csv").read_text().count("\n") == 1


# The step's two overflow checks, each failing at a step the run names: the
# gradient norm of a scale-invariant objective at a tiny radius, and sgdm's
# logistic parameters at a rate of 1e307.
_STEP_FAILURES = {
    "gradient_norm": ({"objective.name": "scale_invariant", "run.init_scale": "1e-300"},
                      r"squared gradient norm of group 'theta' overflows "
                      r"\(norm [0-9.e+]+\) at step 1", 1),
    "parameters": ({"objective.name": "logistic", "optimizer.kind": "sgdm",
                    "schedule.eta0": "1e307"},
                   r"non-finite parameters after step in group 'theta' at step 2", 2),
    "coupled_gradient_norm": ({"hp.wd_mode": "coupled", "hp.weight_decay": "1e300"},
                              r"squared gradient norm of group 'theta' under coupled "
                              r"decay overflows \(norm [0-9.e+]+\) at step 1", 1),
}


@pytest.mark.parametrize("name", list(_STEP_FAILURES))
def test_step_failure_names_the_step(name, tmp_path):
    keys, message, step = _STEP_FAILURES[name]
    path = tmp_path / "run.csv"
    with pytest.raises(FloatingPointError, match=f"^{message}$"):
        run(build_config(keys, {"run.steps": "5", "run.out": str(path)}))
    # The CSV holds the steps before the failing one.
    np.testing.assert_array_equal(read_telemetry(str(path))["t"], np.arange(1, step))


@pytest.mark.parametrize("keys, error, message", [
    # The objective raises on the first forward pass.
    ({"objective.name": "tiny_mlp", "run.init_scale": "1e300"}, FloatingPointError,
     "batch-norm variance is not finite: .* at step 1$"),
    # The first step's update leaves non-finite parameters.
    ({"objective.name": "quadratic", "schedule.eta0": "1e308", "run.init_scale": "100"},
     FloatingPointError, "non-finite parameters after step in group"),
], ids=["objective", "step"])
def test_abort_at_step_1_writes_its_own_header_over_an_earlier_csv(keys, error, message,
                                                                   tmp_path):
    path = tmp_path / "run.csv"
    earlier = run(build_config(keys | {"run.init_scale": "0.1", "schedule.eta0": "1e-3"},
                               {"run.steps": "3", "run.out": str(path)}))
    assert len(earlier.records) == 3
    header = path.read_text().splitlines()[0]
    with pytest.raises(error, match=message):
        run(build_config(keys, {"run.steps": "3", "run.out": str(path)}))
    assert path.read_text() == header + "\n"
    with pytest.raises(ValueError, match="no rows to check"):
        check_telemetry(read_telemetry(str(path)))


def test_different_seeds_change_the_run(tmp_path):
    r1 = run(_quad_config(seed=0))
    r2 = run(_quad_config(seed=1))
    assert r1.records.columns()["loss"][0] != r2.records.columns()["loss"][0]


# ------------------------------------------------------------------- sweeps

def test_sweep_over_p_returns_value_order_and_sorted_summary(tmp_path):
    out = tmp_path / "sweep"
    results = sweep(_quad_keys(), "p", [0.25, 0.5, 0.125], out_dir=str(out))
    assert [r.config.hp.p for r in results] == [0.25, 0.5, 0.125]
    assert sorted(f.name for f in out.iterdir()) == [
        "run_000.csv", "run_001.csv", "run_002.csv", "summary.csv"]
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "p,final_loss,final_accuracy,min_grad_norm_sq,diagnostics_passed"
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert losses == sorted(losses)


def test_sweep_axis_aliases_and_dotted_paths():
    results = sweep(_quad_keys(steps="2"), "lr", [1e-3, 1e-2])
    assert [r.config.hp.eta0 for r in results] == [1e-3, 1e-2]
    results = sweep(_quad_keys(steps="2"), "hp.delta", [0.1, 0.2])
    assert [r.config.hp.delta for r in results] == [0.1, 0.2]
    results = sweep(_quad_keys(steps="2"), "objective.dim", [2, 3])
    assert [len(r.final_params[0].values) for r in results] == [2, 3]
    results = sweep(_quad_keys(steps="2"), "seed", [0, 1])
    assert [r.config.seed for r in results] == [0, 1]


def test_sweep_optimizer_axis_rebuilds_defaults():
    base = dict(_quad_keys(steps="2"), **{"hp.p": "0.125"})
    results = sweep(base, "optimizer", ["adam", "sgdm"])
    adam_cfg, sgdm_cfg = results[0].config, results[1].config
    assert adam_cfg.optimizer == OptimizerKind.ADAM
    assert adam_cfg.hp.beta2 == 0.99
    assert adam_cfg.hp.p == 0.125  # swept configs keep the tuned power
    assert adam_cfg.hp.eta0 == 1e-3
    assert sgdm_cfg.hp.eta0 == 0.1


def test_sweep_rejects_empty_values_and_unknown_axis():
    with pytest.raises(ValueError, match="at least one value"):
        sweep(_quad_keys(), "p", [])
    # Only scalar config keys are axes.
    for axis in ("banana", "hp.bogus", "schedule.bogus", "run.out", "schedule.milestones"):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep(_quad_keys(), axis, [1])


def test_sweep_parses_hp_strings_and_sets_the_objective():
    results = sweep(_quad_keys(steps="2"), "hp.wd_skip_projected", ["true", "false"])
    assert [r.config.hp.wd_skip_projected for r in results] == [True, False]
    results = sweep(_quad_keys(steps="2"), "hp.eps_mode", ["post"])
    assert results[0].config.hp.eps_mode == "post"
    base = _quad_keys(steps="2")
    del base["objective.dim"]  # logistic takes no dim
    results = sweep(base, "objective.name", ["logistic"])
    assert results[0].config.objective == "logistic"
    # Every section parses its strings, not only hp.*.
    results = sweep(_quad_keys(steps="2"), "lr", ["1e-3"])
    assert results[0].config.hp.eta0 == 1e-3
    results = sweep(_quad_keys(steps="2"), "objective.dim", ["3"])
    assert results[0].config.objective_params["dim"] == 3


# ------------------------------------------------------------ telemetry I/O

def test_an_empty_table_has_its_columns_and_no_rows():
    # A run that aborts before its first step completes writes these columns'
    # header alone.
    table = TelemetryTable([ParamGroup("w", np.zeros(2))])
    cols = table.columns()
    assert list(cols) == list(table.names) and len(table) == 0
    assert all(col.size == 0 for col in cols.values())
    assert [cols[name].dtype for name in ("t", "w_projected", "loss")] == [
        np.int64, np.int64, np.float64]


@pytest.mark.parametrize("value", ["0.5", "nan", "inf", "1e19"])
def test_read_telemetry_rejects_non_whole_int_columns(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,loss,theta_projected\n1,2.0,0\n2,1.5,{value}\n")
    with pytest.raises(ValueError, match="'theta_projected', data row 2"):
        read_telemetry(str(path))


def test_read_telemetry_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,loss\n1,2.0\n3\n")
    with pytest.raises(ValueError, match="data row 2: 1 fields, the header has 2"):
        read_telemetry(str(path))


def test_read_telemetry_rejects_non_numeric_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,epoch,loss\n1,1,2.0\n2,1,abc\n")
    with pytest.raises(ValueError, match="column 'loss', data row 2: 'abc' is not a number"):
        read_telemetry(str(path))


def test_read_telemetry_rejects_a_repeated_column(tmp_path):
    # A second theta_cos_sim would otherwise replace the first in the table,
    # and check would test the step norms as cosines.
    path = tmp_path / "bad.csv"
    path.write_text("t,theta_cos_sim,theta_cos_sim\n1,0.5,0.0013\n")
    with pytest.raises(ValueError, match="the header repeats column 'theta_cos_sim'"):
        read_telemetry(str(path))


# ------------------------------------------------------------- config files

def test_parse_config_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment\n"
        "\n"
        "optimizer.kind = padamp\n"
        "hp.p = 0.25\n"
        "run.out = out=dir.csv\n"
    )
    mapping = parse_config_file(str(path))
    assert mapping == {"optimizer.kind": "padamp", "hp.p": "0.25",
                       "run.out": "out=dir.csv"}


def test_parse_config_file_reports_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("optimizer.kind = adam\nnot a pair\n")
    with pytest.raises(ValueError, match=r":2: expected"):
        parse_config_file(str(path))


def test_build_config_defaults():
    cfg = build_config({})
    assert cfg.optimizer == OptimizerKind.PADAMP
    assert cfg.objective == "quadratic"
    assert cfg.steps == 1000 and cfg.epochs is None
    assert cfg.hp.eta0 == 1e-3


def test_build_config_full_mapping():
    cfg = build_config({
        "optimizer.kind": "sgdm",
        "objective.name": "logistic",
        "objective.d": "6",
        "objective.n": "64",
        "objective.separation": "2.5",
        "schedule.family": "piecewise",
        "schedule.milestones": "10, 20, 30",
        "schedule.factor": "0.5",
        "p_schedule.decay_epoch": "5",
        "p_schedule.new_p": "0.125",
        "run.epochs": "2",
        "run.batch_size": "16",
        "run.out": "telemetry.csv",
        "hp.wd_skip_projected": "false",
    })
    assert cfg.optimizer == OptimizerKind.SGDM
    assert cfg.hp.eta0 == 0.1  # table 1's sgdm rate
    assert cfg.schedule.milestones == (10, 20, 30)
    assert cfg.p_schedule == PSchedule(5, 0.125)
    assert cfg.epochs == 2 and cfg.steps is None
    assert cfg.objective_params == {"d": 6, "n": 64, "separation": 2.5}
    assert cfg.output_path == "telemetry.csv"
    assert cfg.hp.wd_skip_projected is False


def test_schedule_eta0_is_the_base_trigger_rate():
    keys = {"objective.name": "tiny_mlp", "objective.n": "64", "run.batch_size": "16",
            "schedule.eta0": "0.05", "run.steps": "20"}
    base = build_config(keys, {"hp.trigger_lr_mode": "base"})
    assert base.hp.eta0 == 0.05
    # Under a constant schedule the step's rate is the base rate, so both
    # trigger modes make the same run.
    scheduled = run(build_config(keys, {"hp.trigger_lr_mode": "scheduled"}))
    want = scheduled.records.columns()
    assert want["w1_projected"].any()
    for name, col in run(base).records.columns().items():
        assert col.tobytes() == want[name].tobytes(), name
    # There is no second rate to set.
    with pytest.raises(ValueError, match="^unknown config keys: hp.eta0$"):
        build_config(keys, {"hp.eta0": "0.01"})


@pytest.mark.parametrize("kind", [k.value for k in OptimizerKind])
def test_experiment_config_and_build_config_apply_the_same_defaults(kind):
    built = build_config({"optimizer.kind": kind, "run.steps": "3"})
    assert ExperimentConfig(optimizer=kind, steps=3) == built
    assert built.hp == table1_defaults(kind)


def test_experiment_config_defaults_are_table1():
    sgdm = ExperimentConfig(optimizer="sgdm", steps=3)
    assert (sgdm.hp.eta0, sgdm.hp.weight_decay) == (0.1, 5e-4)
    assert run(sgdm).records.columns()["eta_t"][0] == 0.1
    assert ExperimentConfig(steps=2).hp.weight_decay == 1e-2


def test_experiment_config_steps_at_hp_eta0():
    result = run(ExperimentConfig(hp=table1_defaults("padamp", eta0=0.05), steps=2))
    assert result.records.columns()["eta_t"].tolist() == [0.05, 0.05]


@pytest.mark.parametrize("keys, field", [
    ({"run.seed": "-1"}, "seed"),
    ({"objective.name": "logistic", "objective.data_seed": "-1"}, "data_seed"),
])
def test_negative_seeds_are_rejected_where_the_config_is_built(keys, field):
    with pytest.raises(ValueError, match=rf"^{field} must be >= 0, got -1$"):
        build_config(keys)


@pytest.mark.parametrize("key, text, message", [
    ("hp.p", "abc", "could not convert string to float: 'abc'"),
    ("run.steps", "1e3", "invalid literal for int() with base 10: '1e3'"),
    ("optimizer.kind", "lion", "'lion' is not a valid OptimizerKind"),
    ("hp.wd_skip_projected", "maybe", "expected a boolean, got 'maybe'"),
    ("schedule.milestones", "10,x", "invalid literal for int() with base 10: 'x'"),
])
def test_a_value_that_fails_to_parse_names_its_key(key, text, message):
    with pytest.raises(ValueError) as info:
        build_config({key: text})
    assert str(info.value) == f"{key}: {message}"


def test_build_config_overrides_win_over_file_mapping():
    cfg = build_config({"hp.p": "0.25"}, overrides={"hp.p": "0.5"})
    assert cfg.hp.p == 0.5


def test_build_config_rejects_unknown_keys_and_half_p_schedule():
    with pytest.raises(ValueError, match="unknown config keys: hp.gamma"):
        build_config({"hp.gamma": "1.0"})
    with pytest.raises(ValueError, match="both decay_epoch and new_p"):
        build_config({"p_schedule.new_p": "0.125"})
    with pytest.raises(ValueError, match="p_schedule.new_p must not exceed hp.p"):
        build_config({"p_schedule.decay_epoch": "2", "p_schedule.new_p": "0.5"})
    with pytest.raises(ValueError, match="expected a boolean"):
        build_config({"hp.wd_skip_projected": "maybe"})


def test_config_keys_cover_every_documented_key():
    # spot checks that the public key list names all the sections
    for key in ("optimizer.kind", "hp.p", "objective.n", "schedule.milestones",
                "p_schedule.new_p", "run.steps", "run.out"):
        assert key in CONFIG_KEYS


# Text values per config key. Some draws are not a config (an objective key
# the drawn objective does not take, a half p schedule, p above 1/2, a
# singleton tiny_mlp batch), so both outcomes are compared.
_CONFIG_TEXTS = {
    "optimizer.kind": st.sampled_from([k.value for k in OptimizerKind]),
    "objective.name": st.sampled_from(["quadratic", "logistic", "tiny_mlp"]),
    "objective.dim": st.integers(1, 40).map(str),
    "hp.p": st.sampled_from(["0.5", "0.25", "1e-1", "0.6"]),
    "hp.lam": st.floats(0.5, 1.0).map(repr),
    "hp.eps_mode": st.sampled_from(["power", "post"]),
    "hp.wd_skip_projected": st.sampled_from(["true", "False", "1", "no"]),
    "schedule.family": st.sampled_from(["constant", "power", "piecewise"]),
    "schedule.eta0": st.floats(1e-6, 1.0).map(repr),
    "schedule.milestones": st.lists(st.integers(1, 300), min_size=1, max_size=3,
                                    unique=True).map(
        lambda xs: ", ".join(map(str, sorted(xs)))),
    "p_schedule.decay_epoch": st.integers(1, 20).map(str),
    "p_schedule.new_p": st.sampled_from(["0.125", "0.25"]),
    "run.steps": st.integers(1, 5000).map(str),
    "run.seed": st.integers(0, 2 ** 32 - 1).map(str),
    "run.batch_size": st.integers(1, 256).map(str),
    "run.out": st.text("ab_./=-", min_size=1, max_size=12),
}


def _outcome(build):
    """The built config, or the ValueError's message."""
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=200)
@given(st.fixed_dictionaries({}, optional=_CONFIG_TEXTS),
       st.sampled_from([" = ", "=", "\t=  "]))
def test_config_text_set_flags_and_mapping_build_the_same_config(tmp_path_factory,
                                                                 mapping, sep):
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text("# drawn config\n\n" + "".join(
        f"{key}{sep}{text}\n" for key, text in mapping.items()))
    assert parse_config_file(str(path)) == mapping
    want = _outcome(lambda: build_config(mapping))
    assert _outcome(lambda: build_config(parse_config_file(str(path)))) == want
    argv = ["run"] + [a for key, text in mapping.items()
                      for a in ("--set", f"{key}={text}")]
    assert _outcome(lambda: build_config(_load_mapping(build_parser().parse_args(argv)))
                    ) == want
