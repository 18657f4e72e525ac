import csv
import hashlib
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import padamp
from padamp.cli import main
from padamp.harness import CONFIG_KEYS, OBJECTIVES, read_telemetry


def _run_csv(tmp_path, name="run.csv", steps="5", extra=()):
    out = tmp_path / name
    argv = ["run", "--steps", steps, "--seed", "1",
            "--set", "objective.dim=3", "--set", "hp.weight_decay=0.0",
            "--out", str(out)] + list(extra)
    assert main(argv) == 0
    return out


# --------------------------------------------------------------------- run

def test_run_writes_telemetry_and_prints_summary(tmp_path, capsys):
    out = _run_csv(tmp_path)
    captured = capsys.readouterr()
    assert "final_loss=" in captured.out
    assert f"telemetry: {out}" in captured.out
    cols = read_telemetry(str(out))
    assert len(cols["t"]) == 5
    np.testing.assert_array_equal(cols["t"], [1, 2, 3, 4, 5])


def test_run_steps_flag_beats_config_value(tmp_path):
    out = _run_csv(tmp_path, steps="3", extra=["--set", "run.steps=50"])
    assert len(read_telemetry(str(out))["t"]) == 3


def test_run_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# tiny logistic run\n"
        "objective.name = logistic\n"
        "objective.d = 4\n"
        "objective.n = 64\n"
        "run.batch_size = 32\n"
        "run.epochs = 1\n"
    )
    out = tmp_path / "log.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "final_accuracy=0." in captured.out
    assert len(read_telemetry(str(out))["t"]) == 2  # 64 examples / 32 per batch


def test_run_honors_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PADAMP_OUT_DIR", str(tmp_path))
    assert main(["run", "--steps", "2", "--set", "objective.dim=2"]) == 0
    assert (tmp_path / "run.csv").exists()
    capsys.readouterr()


def test_run_and_sweep_exit_1_on_a_failing_report_row(tmp_path, capsys):
    # The squared gradient norm overflows, so non_finite_values fails.
    args = ["--set", "optimizer.kind=sgdm", "--set", "objective.condition=1e80",
            "--set", "run.init_scale=1e77", "--steps", "1"]
    out = tmp_path / "run.csv"
    assert main(["run", *args, "--out", str(out)]) == 1
    assert "FAIL  non_finite_values = 1" in capsys.readouterr().out
    assert main(["check", "--csv", str(out)]) == 1
    assert main(["sweep", "--axis", "seed", "--values", "0,1", *args,
                 "--out", str(tmp_path / "sweepdir")]) == 1
    assert "diagnostics=FAIL" in capsys.readouterr().out


# ------------------------------------------------------------------- check

def test_check_passes_on_fresh_telemetry(tmp_path, capsys):
    out = _run_csv(tmp_path)
    assert main(["check", "--csv", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_takes_no_seed(tmp_path, capsys):
    # check draws nothing at random, so a --seed would be ignored.
    out = _run_csv(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--csv", str(out), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def _tamper(path, column, row_index, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1 + row_index][rows[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("column", ["loss", "grad_norm_sq"])
def test_check_fails_on_tampered_rows_and_limit_skips_them(column, value, tmp_path,
                                                          capsys):
    out = _run_csv(tmp_path, steps="6")
    _tamper(out, column, row_index=4, value=value)
    assert main(["check", "--csv", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    # the bad row sits past the inspection window
    assert main(["check", "--csv", str(out), "--steps", "3"]) == 0


@pytest.mark.parametrize("column, value", [
    ("lemma2_residual", "inf"), ("lemma2_residual", "nan"),
    ("lemma3_margin", "-inf"), ("lemma3_margin", "inf"),
    ("lemma4_upper", "nan"), ("lemma5_radial", "-inf"),
    ("eval_grad_norm_sq", "-1.0"), ("eval_grad_norm_sq", "inf"),
    ("p_now", "inf"), ("p_now", "-3.0"),
])
def test_check_fails_on_a_tampered_lemma_entry(column, value, tmp_path, capsys):
    out = _run_csv(tmp_path, steps="6")
    assert main(["check", "--csv", str(out)]) == 0
    _tamper(out, column, row_index=4, value=value)
    assert main(["check", "--csv", str(out)]) == 1
    row = {"lemma2_residual": "lemma2_max_scaled_residual",
           "lemma3_margin": "lemma3_upper_min",
           "eval_grad_norm_sq": "eval_grad_norm_sq_valid",
           "p_now": "p_now_in_range"}.get(column, f"{column}_min")
    assert f"FAIL  {row} = " in capsys.readouterr().out
    assert main(["check", "--csv", str(out), "--steps", "3"]) == 0


def test_check_fails_a_non_finite_learning_rate_without_a_warning(tmp_path):
    # inf - inf in the rise of adjacent entries must not warn on stderr.
    out = _run_csv(tmp_path, steps="6")
    for row_index in (2, 3):
        _tamper(out, "eta_t", row_index=row_index, value="inf")
    proc = _cli_run(["--csv", str(out)], tmp_path, command="check")
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert "FAIL  eta_max_increase = nan" in proc.stdout


def test_run_seed_key_is_the_seed_without_a_seed_flag(tmp_path, capsys):
    # With no --seed, run.seed from --set or a config file seeds the run.
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("run.seed = 5\n")
    outs = [tmp_path / f"{i}.csv" for i in range(3)]
    base = ["run", "--steps", "3", "--set", "objective.dim=3"]
    assert main(base + ["--seed", "5", "--out", str(outs[0])]) == 0
    assert main(base + ["--set", "run.seed=5", "--out", str(outs[1])]) == 0
    assert main(base + ["--config", str(cfg), "--out", str(outs[2])]) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes() == outs[2].read_bytes()
    assert main(base + ["--out", str(outs[1])]) == 0
    assert outs[1].read_bytes() != outs[0].read_bytes()
    capsys.readouterr()


def test_check_writes_report_csv_when_asked(tmp_path):
    out = _run_csv(tmp_path)
    report_path = tmp_path / "report.csv"
    assert main(["check", "--csv", str(out), "--out", str(report_path)]) == 0
    lines = report_path.read_text().splitlines()
    assert lines[0] == "check,value,passed"
    assert all(line.endswith(",1") for line in lines[1:])


# ---------------------------------------------------------------- norm-sim

def test_norm_sim_reports_limit_agreement(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["norm-sim", "--beta", "0.5", "--pattern", "step",
                 "--cutoff", "100", "--steps", "3000", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "limit=3.000000" in printed
    rel_err = float(printed.split("rel_err=")[1].split()[0])
    assert rel_err < 1e-6
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["beta", "t", "norm_sq_gd", "norm_sq_gdm", "ratio"]


def test_norm_sim_csv_bytes_match_pinned_digest(tmp_path, capsys):
    # The digest of this file as csv.writer wrote it, row by row.
    out = tmp_path / "sim.csv"
    assert main(["norm-sim", "--beta", "0.5,0.9", "--pattern", "random",
                 "--steps", "2000", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3aa8a0ae4557879f7a1018ed059226d54660a77942d57adbb5d382659333323a")
    capsys.readouterr()


def test_norm_sim_multiple_betas_stack_rows(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["norm-sim", "--beta", "0.5,0.9", "--steps", "50",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 50
    assert {r[0] for r in rows[1:]} == {"0.5", "0.9"}
    capsys.readouterr()


# ---------------------------------------------------------------- grad-check

def test_grad_check_quadratic(tmp_path, capsys):
    assert main(["grad-check", "--objective", "quadratic",
                 "--param", "dim=3", "--steps", "3"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 3


def test_grad_check_mlp_uses_looser_tolerance(capsys):
    assert main(["grad-check", "--objective", "tiny_mlp", "--steps", "2",
                 "--param", "d_in=3", "--param", "hidden=4",
                 "--param", "n=16"]) == 0
    capsys.readouterr()


def test_grad_check_tol_override(capsys):
    # an unreachable tolerance flips the verdict on the same points
    argv = ["grad-check", "--objective", "quadratic",
            "--param", "dim=3", "--steps", "3"]
    assert main(argv + ["--tol", "1e-15"]) == 1
    assert capsys.readouterr().out.count("FAIL") == 3
    assert main(argv + ["--tol", "0.5"]) == 0
    capsys.readouterr()


def test_grad_check_takes_norms_that_do_not_overflow(capsys):
    # Gradient entries near 1e308 square past the largest float, where
    # np.linalg.norm's inf / inf would make the error nan.
    assert main(["grad-check", "--objective", "quadratic",
                 "--param", "condition=1e308", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["PASS", "PASS"]
    assert all(float(line.split("= ")[1]) < 1e-10 for line in lines)


def test_grad_check_tol_must_be_positive(capsys):
    assert main(["grad-check", "--objective", "quadratic",
                 "--tol", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
    # nan <= 0 is False, so a nan tolerance failed every point and exited 1;
    # an infinite one passed any finite error.
    for tol in ("nan", "inf"):
        assert main(["grad-check", "--objective", "quadratic", "--steps", "1",
                     "--tol", tol]) == 2
        assert capsys.readouterr().err == (
            f"error: --tol must be positive and finite, got {tol}\n")


# ------------------------------------------------------------------- sweep

def test_sweep_writes_summary_and_per_value_lines(tmp_path, capsys):
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--axis", "p", "--values", "0.25,0.5",
                 "--steps", "4", "--set", "objective.dim=2",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "p=0.25:" in printed and "p=0.5:" in printed
    assert (out / "summary.csv").exists()
    assert (out / "run_000.csv").exists() and (out / "run_001.csv").exists()


def test_sweep_parses_bool_axis_values(tmp_path, capsys):
    # Decoupled decay on projected groups changes the scale-invariant run.
    # Every bool spelling --set accepts is an axis value, 1 and 0 included.
    for values in ("true,false", "1,0"):
        out = tmp_path / values.replace(",", "_")
        assert main(["sweep", "--axis", "hp.wd_skip_projected", "--values", values,
                     "--steps", "5", "--set", "objective.name=scale_invariant",
                     "--out", str(out)]) == 0
        skip, decay = (read_telemetry(str(out / f"run_00{i}.csv")) for i in (0, 1))
        assert np.all(skip["theta_projected"] == 1)
        assert decay["theta_param_norm"][-1] < skip["theta_param_norm"][-1]
        summary = (out / "summary.csv").read_text().splitlines()[1:]
        assert sorted(row.split(",")[0] for row in summary) == sorted(values.split(","))


def test_sweep_accepts_run_config_keys(tmp_path, capsys):
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--axis", "run.steps", "--values", "2,3",
                 "--set", "objective.dim=2", "--out", str(out)]) == 0
    assert [len(read_telemetry(str(out / f"run_00{i}.csv"))["t"]) for i in (0, 1)] == [2, 3]
    assert main(["sweep", "--axis", "run.seed", "--values", "1,2", "--steps", "2",
                 "--set", "objective.dim=2", "--out", str(out)]) == 0
    assert "run.seed=1:" in capsys.readouterr().out


def test_optimizer_sweep_runs_what_run_runs_for_each_value(tmp_path, capsys):
    flags = ["--set", "objective.name=tiny_mlp", "--set", "hp.wd_mode=coupled",
             "--set", "schedule.eta0=0.01", "--steps", "20"]
    values = ["padamp", "adamp"]
    assert main(["sweep", "--axis", "optimizer", "--values", ",".join(values),
                 "--out", str(tmp_path / "sweep"), *flags]) == 0
    for i, value in enumerate(values):
        alone = tmp_path / f"{value}.csv"
        assert main(["run", "--set", f"optimizer.kind={value}", "--out", str(alone),
                     *flags]) == 0
        assert (tmp_path / "sweep" / f"run_00{i}.csv").read_bytes() == alone.read_bytes()


def test_sweep_over_a_p_schedule_key_gets_its_partner_from_set(tmp_path, capsys):
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--axis", "p_schedule.decay_epoch", "--values", "2,3",
                 "--set", "p_schedule.new_p=0.125", "--set", "run.steps_per_epoch=5",
                 "--set", "objective.dim=2", "--steps", "12", "--out", str(out)]) == 0
    for i, first_decayed in ((0, 5), (1, 10)):
        p_now = read_telemetry(str(out / f"run_00{i}.csv"))["p_now"]
        assert np.all(p_now[:first_decayed] == 0.25)
        assert np.all(p_now[first_decayed:] == 0.125)


def test_sweep_with_a_bad_value_writes_no_run(tmp_path, capsys):
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--axis", "p", "--values", "0.25,0.7", "--steps", "2",
                 "--set", "objective.dim=2", "--out", str(out)]) == 2
    assert "error: p must" in capsys.readouterr().err
    assert not (out / "run_000.csv").exists()
    # logistic takes no dim: the second value is a bad config as well.
    assert main(["sweep", "--axis", "objective.name", "--values", "quadratic,logistic",
                 "--set", "objective.dim=3", "--steps", "2", "--out", str(out)]) == 2
    assert "takes no parameter dim" in capsys.readouterr().err
    assert not (out / "run_000.csv").exists()
    # The quadratic rejects a negative condition when it is built.
    assert main(["sweep", "--axis", "objective.condition", "--values", "10,-5",
                 "--steps", "2", "--out", str(out)]) == 2
    assert "condition must be positive" in capsys.readouterr().err
    assert not (out / "run_000.csv").exists()
    # 512 examples in batches of 511 leave a last batch of one, which batch
    # normalization cannot take.
    assert main(["sweep", "--axis", "batch_size", "--values", "128,511",
                 "--set", "objective.name=tiny_mlp", "--steps", "3",
                 "--out", str(out)]) == 2
    assert "run.batch_size=511" in capsys.readouterr().err
    assert not (out / "run_000.csv").exists()
    # Three classes do not fit two input dimensions.
    assert main(["sweep", "--axis", "objective.classes", "--values", "2,3",
                 "--set", "objective.name=tiny_mlp", "--set", "objective.d_in=2",
                 "--steps", "2", "--out", str(out)]) == 2
    assert "classes must be <= d_in" in capsys.readouterr().err
    assert not (out / "run_000.csv").exists()


# ------------------------------------------------------------------ errors

@pytest.mark.parametrize("argv", [
    ["run", "--set", "nonsense", "--steps", "2"],
    ["run", "--set", "hp.bogus=1", "--steps", "2"],
    ["run", "--config", "/nonexistent/path.cfg"],
    ["check", "--csv", "/nonexistent/telemetry.csv"],
    ["norm-sim", "--beta", ""],
    ["run", "--set", "schedule.eta0=1e308", "--set", "run.init_scale=100",
     "--steps", "3"],
    ["run", "--set", "p_schedule.decay_epoch=2", "--set", "p_schedule.new_p=0.5",
     "--set", "run.steps_per_epoch=5", "--steps", "20"],
    ["check", "--csv", "{sweep}/summary.csv"],
    ["check", "--csv", "{run}", "--steps", "0"],
    ["check", "--csv", "{run}", "--steps", "-2"],
    ["sweep", "--axis", "hp.bogus", "--values", "1", "--steps", "2", "--out", "{tmp}"],
    ["sweep", "--axis", "schedule.bogus", "--values", "1", "--steps", "2",
     "--out", "{tmp}"],
    ["run", "--set", "objective.condition=nan", "--steps", "2", "--out", "{run}"],
    ["run", "--set", "objective.condition=inf", "--steps", "2", "--out", "{run}"],
    ["run", "--set", "objective.condition=-5", "--steps", "2", "--out", "{run}"],
    ["run", "--set", "objective.name=logistic", "--set", "objective.separation=nan",
     "--steps", "2", "--out", "{run}"],
    ["run", "--set", "objective.name=tiny_mlp", "--set", "objective.separation=inf",
     "--steps", "2", "--out", "{run}"],
    ["check", "--csv", "{half}"],
    ["run", "--set", "objective.hidden=8", "--steps", "2", "--out", "{run}"],
    ["check", "--csv", "{header}"],
    ["check", "--csv", "{empty}"],
    ["run", "--set", "objective.name=tiny_mlp", "--set", "objective.n=513",
     "--steps", "10", "--out", "{run}"],
    ["sweep", "--axis", "batch_size", "--values", "128,511", "--set",
     "objective.name=tiny_mlp", "--steps", "3", "--out", "{tmp}/d"],
    ["run", "--set", "objective.name=tiny_mlp", "--set", "run.batch_size=1",
     "--steps", "2", "--out", "{run}"],
    ["grad-check", "--objective", "quadratic", "--steps", "0"],
    ["grad-check", "--objective", "quadratic", "--steps", "-3"],
    ["norm-sim", "--eta", "inf", "--out", "{tmp}/ns.csv"],
    ["norm-sim", "--theta0-norm-sq", "nan", "--out", "{tmp}/ns.csv"],
    ["norm-sim", "--beta", "0.5,1.0", "--steps", "5", "--out", "{tmp}/ns.csv"],
    ["norm-sim", "--eta", "1e-170", "--beta", "0.5", "--steps", "5",
     "--out", "{tmp}/ns.csv"],
    ["norm-sim", "--theta0-norm-sq", "1e30", "--beta", "0.5", "--steps", "5",
     "--out", "{tmp}/ns.csv"],
    ["norm-sim", "--eta", "1e200", "--beta", "0.5", "--steps", "5",
     "--out", "{tmp}/ns.csv"],
    ["grad-check", "--objective", "quadratic", "--param", "dim"],
    ["norm-sim", "--steps", "0", "--out", "{tmp}/ns.csv"],
    ["norm-sim", "--steps", "-5", "--pattern", "random", "--out", "{tmp}/ns.csv"],
    ["check", "--csv", "{dup}"],
])
def test_bad_input_exits_2_with_error_line(argv, tmp_path, capsys, monkeypatch):
    # {run} is a fresh run's telemetry CSV, {sweep} a fresh sweep directory,
    # {half} a telemetry CSV whose projected flag reads 0.5, {header} a CSV
    # holding a header and no rows, {empty} a zero-byte file, {dup} a telemetry
    # CSV whose header names theta_cos_sim twice. A run without --out that
    # aborts writes the header of its default run.csv into tmp_path.
    monkeypatch.chdir(tmp_path)
    paths = dict(tmp=tmp_path, run=tmp_path / "run.csv", sweep=tmp_path / "sweepdir",
                 half=tmp_path / "half.csv", header=tmp_path / "header.csv",
                 empty=tmp_path / "empty.csv", dup=tmp_path / "dup.csv")
    paths["header"].write_text("t,epoch\n")
    paths["empty"].write_text("")
    # A norm-sim that fails leaves an existing --out file as it was.
    kept = tmp_path / "ns.csv"
    kept.write_bytes(b"beta,t\nkeep me\n")
    if "{run}" in argv and argv[0] == "check":
        _run_csv(tmp_path)
    if "{half}" in argv:
        text = _run_csv(tmp_path).read_text()
        paths["half"].write_text(text.replace(",0,", ",0.5,", 1))
    if "{dup}" in argv:
        text = _run_csv(tmp_path).read_text()
        paths["dup"].write_text(
            text.replace("theta_effective_step_norm", "theta_cos_sim", 1))
    if any("{sweep}" in a for a in argv):
        assert main(["sweep", "--axis", "p", "--values", "0.25,0.5", "--steps", "2",
                     "--set", "objective.dim=2", "--out", str(paths["sweep"])]) == 0
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1, captured.err
    for flag, pair in (("--set", "nonsense"), ("--param", "dim")):
        if pair in argv:
            assert captured.err == f"error: {flag} expects key=value, got {pair!r}\n"
    if "{header}" in argv:
        assert "telemetry table has no rows to check" in captured.err
    if "{empty}" in argv:
        assert "empty.csv" in captured.err
    if "{dup}" in argv:
        assert "the header repeats column 'theta_cos_sim'" in captured.err
    if any("batch_size" in a or a == "objective.n=513" for a in argv):
        # A singleton tiny_mlp batch is rejected when the config is built.
        assert "run.batch_size" in captured.err
    assert kept.read_bytes() == b"beta,t\nkeep me\n"
    for flag, name in (("--eta", "eta"), ("--theta0-norm-sq", "theta0_norm_sq")):
        if flag in argv:
            assert name in captured.err
    if argv[0] == "norm-sim" and "--steps" in argv:
        steps = argv[argv.index("--steps") + 1]
        if int(steps) < 1:
            assert captured.err == f"error: --steps must be >= 1, got {steps}\n"


@pytest.mark.parametrize("argv, err", [
    (["sweep", "--axis", "lr", "--values", "0.5,abc"],
     "schedule.eta0: could not convert string to float: 'abc'"),
    (["run", "--set", "run.steps=1e3"],
     "run.steps: invalid literal for int() with base 10: '1e3'"),
    (["run", "--config", "two_rates.cfg"], "unknown config keys: hp.eta0"),
    (["run", "--set", "run.seed=-1"], "seed must be >= 0, got -1"),
    (["run", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["run", "--set", "objective.name=logistic", "--set", "objective.data_seed=-1"],
     "data_seed must be >= 0, got -1"),
], ids=["sweep_value", "run_value", "hp_eta0_key", "seed_key", "seed_flag", "data_seed"])
def test_a_rejected_config_names_its_key_and_writes_nothing(argv, err, tmp_path,
                                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two_rates.cfg").write_text("hp.eta0 = 0.01\nschedule.eta0 = 0.5\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert os.listdir(tmp_path) == ["two_rates.cfg"]


@pytest.mark.parametrize("argv, err", [
    (["grad-check", "--objective", "quadratic", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["norm-sim", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["norm-sim", "--seed", "-1", "--pattern", "random"], "--seed must be >= 0, got -1"),
    (["grad-check", "--objective", "logistic", "--param", "data_seed=-1"],
     "data_seed must be >= 0, got -1"),
    (["grad-check", "--objective", "tiny_mlp", "--param", "hidden=12345678901234567890"],
     "tiny_mlp: hidden=12345678901234567890 * d_in=10 gives w1 123456789012345678900 "
     "entries, more than the 1152921504606846975 a float64 array can hold"),
], ids=["grad_check_seed", "norm_sim_seed", "norm_sim_random_seed", "data_seed_param",
        "hidden_param"])
def test_a_rejected_flag_or_param_is_one_error_line_naming_it(argv, err, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert os.listdir(tmp_path) == []


# Values at and past every boundary a number or a name can have.
_BOUNDARY_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-320", "", "abc",
                    "1e400", "12345678901234567890", "0.5", "2")


# A divergence abort says where the run stopped instead of naming a key.
_DIVERGED = re.compile(r"at step \d+|group '\w+' overflows")


def _boundary_offenders(argvs, exits, capsys, names=None):
    """Each argv that exits outside `exits`, raises, warns, or exits 2 without
    exactly one error: line, with what it did. Given names(argv), an exit-2
    line that is not a divergence abort must also hold one of those names,
    each as a whole word."""
    offenders = []
    for argv in argvs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value itself
                code = exc.code
            except Exception as exc:  # the CLI would print a traceback
                code = f"raised {exc!r}"
        out, err = capsys.readouterr()
        problems = [str(w.message) for w in caught]
        if code not in exits:
            problems.append(f"exit {code}")
        if "Traceback" in out + err or "Warning" in err:
            problems.append(err.strip())
        if code == 2 and sum("error:" in line for line in err.splitlines()) != 1:
            problems.append(f"stderr {err!r}")
        if (code == 2 and names is not None and not _DIVERGED.search(err)
                and not any(re.search(rf"\b{re.escape(n)}\b", err) for n in names(argv))):
            problems.append(f"{err.strip()!r} names none of {names(argv)}")
        if problems:
            offenders.append(f"{argv}: {'; '.join(problems)}")
    return offenders


def test_run_takes_any_value_of_every_config_key_without_a_traceback(
        tmp_path, monkeypatch, capsys):
    # Exit 1 (a failing report row) is allowed: three calls give it, through
    # lemma slacks at a tight bound. A rejected value names its key or field.
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "run.csv")
    argvs = [["run", "--set", f"{key}={value}", "--steps", "3", "--out", out]
             for key in CONFIG_KEYS if key != "run.out" for value in _BOUNDARY_VALUES]
    # The dataset objectives' keys, each under its own objective.
    argvs += [["run", "--set", f"objective.name={name}",
               "--set", f"objective.{key}={value}", "--steps", "3", "--out", out]
              for name in ("logistic", "tiny_mlp") for key in OBJECTIVES[name][1]
              for value in _BOUNDARY_VALUES]

    def key_and_field(argv):
        key = argv[argv.index("--steps") - 1].partition("=")[0]
        return key, key.partition(".")[2]

    offenders = _boundary_offenders(argvs, (0, 1, 2), capsys, key_and_field)
    assert not offenders, "\n".join(offenders)


def test_norm_sim_takes_any_value_of_every_option_without_a_traceback(
        tmp_path, monkeypatch, capsys):
    # opt=value hands even "-inf" to the option, where a separate token would
    # read as an unknown flag.
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "ns.csv")
    options = ("--beta", "--pattern", "--cutoff", "--eta", "--theta0-norm-sq",
               "--seed", "--steps")
    argvs = [["norm-sim", "--steps", "50", "--out", out, f"{opt}={value}"]
             for opt in options for value in _BOUNDARY_VALUES]
    offenders = _boundary_offenders(argvs, (0, 2), capsys)
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize("args", [
    ["--set", "schedule.eta0=1e308", "--set", "run.init_scale=100", "--steps", "3"],
    ["--set", "optimizer.kind=sgdm", "--set", "objective.name=rosenbrock",
     "--set", "schedule.eta0=0.5"],
    ["--set", "hp.wd_mode=coupled", "--set", "hp.weight_decay=1e307",
     "--set", "run.init_scale=100", "--steps", "3"],
])
def test_diverging_run_prints_exactly_one_error_line(args, tmp_path):
    # Overflow on the way to the abort must not add a RuntimeWarning to stderr.
    proc = _cli_run(args, tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_diverging_run_keeps_the_telemetry_of_its_completed_steps(tmp_path):
    # The loss goes non-finite at step 6; steps 1-5 stay in the CSV.
    proc = _cli_run(["--set", "optimizer.kind=sgdm", "--set", "objective.name=rosenbrock",
                     "--set", "schedule.eta0=0.5", "--set", "run.out=div.csv"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: non-finite loss inf at step 6; aborting\n"
    cols = read_telemetry(str(tmp_path / "div.csv"))
    np.testing.assert_array_equal(cols["t"], [1, 2, 3, 4, 5])
    assert np.all(np.isfinite(cols["loss"]))


def _cli_run(args, cwd, command="run"):
    """`python -m padamp.cli <command> *args` in a subprocess, so stderr holds any
    warning."""
    src = os.path.dirname(os.path.dirname(padamp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "padamp.cli", command, *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("args, line", [
    (["--set", "objective.name=scale_invariant", "--set", "run.init_scale=1e-300"],
     r"error: squared gradient norm of group 'theta' overflows \(norm [0-9.e+]+\) "
     r"at step 1"),
    (["--set", "objective.name=logistic", "--set", "optimizer.kind=sgdm",
      "--set", "schedule.eta0=1e307"],
     r"error: non-finite parameters after step in group 'theta' at step 2"),
    (["--set", "hp.wd_mode=coupled", "--set", "hp.weight_decay=1e300"],
     r"error: squared gradient norm of group 'theta' under coupled decay overflows "
     r"\(norm [0-9.e+]+\) at step 1"),
], ids=["gradient_norm", "parameters", "coupled_gradient_norm"])
def test_step_failure_is_one_error_line_naming_the_step(args, line, tmp_path):
    proc = _cli_run(args + ["--steps", "5"], tmp_path)
    assert proc.returncode == 2
    assert re.fullmatch(line + "\n", proc.stderr), proc.stderr
    assert proc.stdout == ""


def test_huge_weights_keep_finite_norms_and_pass_every_check(tmp_path):
    # eta0 = 1e300 drives the weights far past 1e154, where theta . theta
    # overflows a float.
    proc = _cli_run(["--set", "objective.name=logistic", "--set", "schedule.eta0=1e300",
                     "--steps", "5"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "FAIL" not in proc.stdout and "PASS" in proc.stdout
    cols = read_telemetry(str(tmp_path / "run.csv"))
    assert cols["theta_param_norm"].max() > 1e299
    for c in ("theta_param_norm", "theta_effective_step_norm"):
        assert np.all(np.isfinite(cols[c])), c


@pytest.mark.parametrize("command,args", [
    ("run", ["--set", "objective.name=tiny_mlp", "--set", "objective.d_in=2",
             "--set", "objective.classes=3"]),
    ("grad-check", ["--objective", "tiny_mlp", "--param", "d_in=3",
                    "--param", "classes=5", "--out", "report.csv"]),
])
def test_tiny_mlp_with_more_classes_than_inputs_is_one_error_line(command, args,
                                                                   tmp_path):
    proc = _cli_run(args, tmp_path, command=command)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: classes must be <= d_in"), \
        proc.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command,args", [
    ("run", ["--set", "objective.name=tiny_mlp", "--set", "objective.separation=1e308",
             "--steps", "3"]),
    ("run", ["--set", "objective.name=tiny_mlp", "--set", "run.init_scale=1e200",
             "--steps", "3"]),
    ("grad-check", ["--objective", "tiny_mlp", "--param", "separation=1e308",
                    "--steps", "2", "--out", "report.csv"]),
])
def test_tiny_mlp_batch_norm_overflow_is_one_error_line(command, args, tmp_path):
    # An overflowing variance normalizes every unit to 0: all gradients are 0
    # and every report row would pass.
    proc = _cli_run(args, tmp_path, command=command)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: tiny_mlp batch-norm variance"), \
        proc.stderr
    # run aborts at step 1 and its CSV is the header alone; grad-check writes
    # no report.
    if command == "run":
        assert os.listdir(tmp_path) == ["run.csv"]
        assert (tmp_path / "run.csv").read_text().startswith("t,epoch,")
        assert (tmp_path / "run.csv").read_text().count("\n") == 1
    else:
        assert os.listdir(tmp_path) == []


def test_memory_error_is_one_error_line(monkeypatch, tmp_path, capsys):
    def run(config):
        raise MemoryError("Unable to allocate 22.4 GiB for an array")
    monkeypatch.setattr("padamp.harness.run", run)
    assert main(["run", "--steps", "2", "--out", str(tmp_path / "run.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 22.4 GiB for an array\n"


def test_scale_invariant_run_is_the_same_at_any_radius(tmp_path):
    # theta . theta overflows at 1e170 and underflows at 1e-170; the
    # objective's norm does neither.
    base = ["--set", "objective.name=scale_invariant", "--steps", "3"]
    rows = {}
    for scale in ("0.1", "1e170"):
        out = f"run_{scale}.csv"
        proc = _cli_run(base + ["--set", f"run.init_scale={scale}", "--out", out],
                        tmp_path)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        rows[scale] = read_telemetry(str(tmp_path / out))["loss"]
    # Row 1 is the loss at the initial direction, which the radius does not
    # change; later rows move less at 1e170, where the gradient is ~1e-170.
    assert rows["1e170"][0] != 0.0
    assert rows["1e170"][0] == pytest.approx(rows["0.1"][0], rel=1e-15, abs=0)
    # At 1e-170 the gradient's norm is about 1e170, and its square overflows.
    proc = _cli_run(base + ["--set", "run.init_scale=1e-170"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: squared gradient norm of group 'theta' overflows")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
