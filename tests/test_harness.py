import numpy as np
import pytest

from padamp.harness import (
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
from padamp.optimizers import OptimizerKind


def _quad_config(**kw):
    base = dict(
        optimizer="padamp",
        hp=table1_defaults("padamp", weight_decay=0.0),
        objective="quadratic",
        objective_params={"dim": 4},
        schedule=LRSchedule(family="constant", eta0=1e-3),
        steps=6,
        init_scale=0.5,
        steps_per_epoch=3,
        seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


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
    sched = LRSchedule(family="power", eta0=1e-3, a=0.75)
    # 16^0.75 = 8 exactly
    assert schedule_lr(16, sched) == 1.25e-4
    assert schedule_lr(1, sched) == 1e-3


def test_piecewise_schedule_counts_milestones():
    sched = LRSchedule(family="piecewise", eta0=1e-3,
                       milestones=(50, 100, 150), factor=0.1)
    assert schedule_lr(49, sched) == 1e-3
    assert schedule_lr(50, sched) == pytest.approx(1e-4, rel=1e-12)
    assert schedule_lr(120, sched) == pytest.approx(1e-5, rel=1e-12)
    assert schedule_lr(200, sched) == pytest.approx(1e-6, rel=1e-12)


def test_constant_schedule_and_index_guard():
    sched = LRSchedule(family="constant", eta0=0.05)
    assert schedule_lr(1, sched) == schedule_lr(999, sched) == 0.05
    with pytest.raises(ValueError, match=">= 1"):
        schedule_lr(0, sched)


@pytest.mark.parametrize("sched", [
    LRSchedule(family="constant", eta0=0.1),
    LRSchedule(family="power", eta0=0.1, a=0.6),
    LRSchedule(family="piecewise", eta0=0.1, milestones=(10, 300), factor=0.5),
])
def test_schedules_never_increase(sched):
    etas = np.array([schedule_lr(t, sched) for t in range(1, 1001)])
    assert np.all(np.diff(etas) <= 0.0)


def test_lr_schedule_validation():
    with pytest.raises(ValueError, match="unknown schedule family"):
        LRSchedule(family="cosine")
    with pytest.raises(ValueError, match="eta0"):
        LRSchedule(eta0=0.0)
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
    with pytest.raises(ValueError, match="decay epoch"):
        PSchedule(decay_epoch=0, new_p=0.25)
    with pytest.raises(ValueError, match="new p"):
        PSchedule(decay_epoch=10, new_p=0.6)


# --------------------------------------------------------------- objectives

def test_build_objective_dispatch_and_params():
    quad = build_objective("quadratic", {"dim": 3, "condition": 10.0}, data_seed=0)
    assert quad.group_layout == {"theta": 3}
    assert quad.smoothness == 10.0
    assert build_objective("rosenbrock", {}, 0).name == "rosenbrock"
    assert build_objective("scale_invariant", {"dim": 5}, 0).group_layout == {"theta": 5}
    logi = build_objective("logistic", {"d": 4, "n": 32}, data_seed=9)
    assert logi.dataset.n == 32
    mlp = build_objective("tiny_mlp", {"d_in": 3, "hidden": 4, "classes": 2,
                                       "n": 16}, data_seed=9)
    assert mlp.group_layout == {"w1": 12, "w2": 8}
    with pytest.raises(ValueError, match="unknown objective"):
        build_objective("mnist", {}, 0)


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
    with pytest.raises(ValueError, match="batch_size"):
        _quad_config(batch_size=0)
    with pytest.raises(ValueError):
        _quad_config(eval_every=0)
    with pytest.raises(ValueError, match="init_scale"):
        _quad_config(init_scale=0.0)
    with pytest.raises(ValueError):
        _quad_config(optimizer="lion")


@pytest.mark.parametrize("field, build", [
    ("eta0", lambda: LRSchedule(eta0=float("nan"))),
    ("exponent a", lambda: LRSchedule(family="power", a=float("nan"))),
    ("init_scale", lambda: _quad_config(init_scale=float("nan"))),
    pytest.param("eta0", lambda: LRSchedule(eta0=float("inf")), id="eta0-inf"),
    pytest.param("exponent a", lambda: LRSchedule(family="power", a=float("inf")),
                 id="exponent a-inf"),
    pytest.param("init_scale", lambda: _quad_config(init_scale=float("inf")),
                 id="init_scale-inf"),
])
def test_config_rejects_nan(field, build):
    with pytest.raises(ValueError, match=field):
        build()


# --------------------------------------------------------------------- runs

def test_run_counts_steps_and_epochs_analytic():
    result = run(_quad_config(steps=7, steps_per_epoch=3))
    assert [r.t for r in result.records] == list(range(1, 8))
    assert [r.epoch for r in result.records] == [1, 1, 1, 2, 2, 2, 3]
    # only the final step is a checkpoint when eval_every exceeds the budget
    np.testing.assert_array_equal(result.convergence.t, [7])
    assert np.isnan(result.summary["final_accuracy"])
    assert result.summary["final_loss"] == result.records[-1].loss


def test_run_epoch_budget_on_dataset_objective():
    cfg = ExperimentConfig(
        optimizer="padamp",
        hp=table1_defaults("padamp"),
        objective="logistic",
        objective_params={"d": 4, "n": 512},
        schedule=LRSchedule(family="constant", eta0=1e-3),
        epochs=2,
        batch_size=128,
        seed=0,
        eval_window=2,
        eval_every=100,
    )
    result = run(cfg)
    # 512 examples / 128 per batch = 4 steps per epoch
    assert len(result.records) == 8
    assert [r.epoch for r in result.records] == [1] * 4 + [2] * 4
    assert 0.0 <= result.summary["final_accuracy"] <= 1.0


def test_eval_window_estimate_is_squared_norm_of_mean_gradient():
    cfg = ExperimentConfig(
        optimizer="padamp",
        hp=table1_defaults("padamp"),
        objective="logistic",
        objective_params={"d": 4, "n": 256},
        schedule=LRSchedule(family="constant", eta0=1e-3),
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
    np.testing.assert_array_equal(result.convergence.t, [1])
    np.testing.assert_allclose(result.convergence.estimate[0], mean_sq, rtol=1e-12)
    assert result.convergence.estimate[0] < mean_of_sq


def test_run_reports_lemma_rows_only_for_adaptive_kinds():
    adaptive = run(_quad_config())
    names = [name for name, _, _ in adaptive.report.rows]
    assert "lemma2_max_scaled_residual" in names
    assert "lemma5_moment_diff_min" in names

    sgdm_cfg = _quad_config(optimizer="sgdm",
                            hp=table1_defaults("sgdm", weight_decay=0.0),
                            schedule=LRSchedule(family="constant", eta0=0.01))
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
    live = {name: (value, passed) for name, value, passed in result.report.rows}
    replayed = check_telemetry(read_telemetry(str(path))).rows
    assert any(name == "non_finite_values" for name, _, _ in replayed)
    for name, value, passed in replayed:
        assert live[name] == (value, passed), name
    lemma_rows = [name for name in live if name.startswith("lemma")]
    if cfg.optimizer == OptimizerKind.SGDM:
        assert lemma_rows == []
    else:
        assert {"lemma2_max_scaled_residual", "lemma3_upper_min"} <= set(lemma_rows)


def test_run_with_coupled_weight_decay_passes_every_check():
    # The monitor's slacks use the gradients the moments saw, wd * theta included.
    cfg = _quad_config(hp=table1_defaults("padamp", weight_decay=0.1, wd_mode="coupled"),
                       steps=200)
    result = run(cfg)
    assert "lemma5_moment_diff_min" in [name for name, _, _ in result.report.rows]
    assert result.report.all_passed, str(result.report)


def test_geometric_beta1t_survives_underflow_to_zero():
    # beta1 * 0.5**(t-1) underflows to 0.0 near t = 1075; the moment identity
    # still holds there (m_t = g_t), so the run completes and passes.
    cfg = build_config({}, {"hp.beta1t_mode": "geometric", "hp.lam": "0.5",
                            "objective.dim": "5", "run.steps": "1100"})
    result = run(cfg)
    assert len(result.records) == 1100
    assert result.report.all_passed, str(result.report)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_aborts_on_divergence_with_step_index():
    cfg = ExperimentConfig(
        optimizer="sgdm",
        hp=table1_defaults("sgdm", eta0=100.0, weight_decay=0.0),
        objective="rosenbrock",
        schedule=LRSchedule(family="constant", eta0=100.0),
        steps=50,
        init_scale=2.0,
        seed=0,
    )
    with pytest.raises(RuntimeError, match=r"non-finite loss .* at step"):
        run(cfg)


def test_run_writes_and_reads_back_telemetry(tmp_path):
    path = tmp_path / "telemetry.csv"
    result = run(_quad_config(output_path=str(path)))
    cols = read_telemetry(str(path))
    assert list(cols) == ["t", "epoch", "eta_t", "p_now", "loss", "grad_norm_sq",
                          "theta_param_norm", "theta_cos_sim", "theta_projected",
                          "theta_effective_step_norm", "lemma2_residual",
                          "lemma3_margin"]
    np.testing.assert_array_equal(cols["t"], [r.t for r in result.records])
    np.testing.assert_array_equal(cols["loss"], [r.loss for r in result.records])
    np.testing.assert_array_equal(
        cols["theta_projected"],
        [float(r.groups["theta"].projected) for r in result.records])


def test_rerun_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(_quad_config(output_path=str(p1), seed=3))
    run(_quad_config(output_path=str(p2), seed=3))
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_change_the_run(tmp_path):
    r1 = run(_quad_config(seed=0))
    r2 = run(_quad_config(seed=1))
    assert r1.records[0].loss != r2.records[0].loss


# ------------------------------------------------------------------- sweeps

def test_sweep_over_p_returns_value_order_and_sorted_summary(tmp_path):
    out = tmp_path / "sweep"
    results = sweep(_quad_config(), "p", [0.25, 0.5, 0.125], out_dir=str(out))
    assert [r.config.hp.p for r in results] == [0.25, 0.5, 0.125]
    assert sorted(f.name for f in out.iterdir()) == [
        "run_000.csv", "run_001.csv", "run_002.csv", "summary.csv"]
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "p,final_loss,final_accuracy,min_grad_norm_sq,diagnostics_passed"
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert losses == sorted(losses)


def test_sweep_axis_aliases_and_dotted_paths():
    results = sweep(_quad_config(steps=2), "lr", [1e-3, 1e-2])
    assert [r.config.schedule.eta0 for r in results] == [1e-3, 1e-2]
    results = sweep(_quad_config(steps=2), "hp.delta", [0.1, 0.2])
    assert [r.config.hp.delta for r in results] == [0.1, 0.2]
    results = sweep(_quad_config(steps=2), "objective.dim", [2, 3])
    assert [len(r.final_params[0].values) for r in results] == [2, 3]
    results = sweep(_quad_config(steps=2), "seed", [0, 1])
    assert [r.config.seed for r in results] == [0, 1]


def test_sweep_optimizer_axis_rebuilds_defaults():
    base = _quad_config(steps=2, hp=table1_defaults("padamp", p=0.125))
    results = sweep(base, "optimizer", ["adam", "sgdm"])
    adam_cfg, sgdm_cfg = results[0].config, results[1].config
    assert adam_cfg.optimizer == OptimizerKind.ADAM
    assert adam_cfg.hp.beta2 == 0.99
    assert adam_cfg.hp.p == 0.125  # swept configs keep the tuned power
    assert adam_cfg.schedule.eta0 == adam_cfg.hp.eta0 == 1e-3
    assert sgdm_cfg.schedule.eta0 == 0.1


def test_sweep_rejects_empty_values_and_unknown_axis():
    with pytest.raises(ValueError, match="at least one value"):
        sweep(_quad_config(), "p", [])
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(_quad_config(), "banana", [1])


# ------------------------------------------------------------ telemetry I/O

def test_write_telemetry_rejects_empty_records(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        write_telemetry([], str(tmp_path / "x.csv"))


def test_read_telemetry_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,loss\n1,2.0\n3\n")
    with pytest.raises(ValueError):
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
    assert cfg.schedule.eta0 == cfg.hp.eta0 == 1e-3


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
    assert cfg.schedule.eta0 == 0.1  # synced from the sgdm default
    assert cfg.schedule.milestones == (10, 20, 30)
    assert cfg.p_schedule == PSchedule(5, 0.125)
    assert cfg.epochs == 2 and cfg.steps is None
    assert cfg.objective_params == {"d": 6, "n": 64, "separation": 2.5}
    assert cfg.output_path == "telemetry.csv"
    assert cfg.hp.wd_skip_projected is False


def test_build_config_explicit_schedule_eta0_wins():
    cfg = build_config({"hp.eta0": "0.01", "schedule.eta0": "0.5"})
    assert cfg.hp.eta0 == 0.01
    assert cfg.schedule.eta0 == 0.5


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
