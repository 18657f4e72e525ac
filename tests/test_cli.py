import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import padamp
from padamp.cli import main
from padamp.harness import read_telemetry


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


# ------------------------------------------------------------------- check

def test_check_passes_on_fresh_telemetry(tmp_path, capsys):
    out = _run_csv(tmp_path)
    assert main(["check", "--csv", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


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


def test_grad_check_tol_must_be_positive(capsys):
    assert main(["grad-check", "--objective", "quadratic",
                 "--tol", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


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
])
def test_bad_input_exits_2_with_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("args", [
    ["--set", "schedule.eta0=1e308", "--set", "run.init_scale=100", "--steps", "3"],
    ["--set", "optimizer.kind=sgdm", "--set", "objective.name=rosenbrock",
     "--set", "schedule.eta0=0.5"],
    ["--set", "hp.wd_mode=coupled", "--set", "hp.weight_decay=1e307",
     "--set", "run.init_scale=100", "--steps", "3"],
])
def test_diverging_run_prints_exactly_one_error_line(args, tmp_path):
    # Overflow on the way to the abort must not add a RuntimeWarning to stderr.
    src = os.path.dirname(os.path.dirname(padamp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "padamp.cli", "run", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
