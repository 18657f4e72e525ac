"""End-to-end acceptance suite.

One test per numbered criterion; each prints a single PASS/FAIL line with the
measured values (run pytest with -rA to see them for passing tests). All
configs and thresholds below were frozen after pilot runs; the asserts state
the required tolerances directly.

Criterion 8's logistic half uses its own base rate (eta0=0.1, same power-law
schedule a=0.75): with eta0=1e-3 the total movement (sum of eta_t over 2e4
steps, about 0.044) cannot carry the weights from a 0.1-scale init to the
optimum at ||theta*|| = 3.52, while eta0=0.1 gives a sum of about 4.4. Its
estimate of ||grad f||^2 is the squared norm of the eval window's mean
minibatch gradient, whose bias tr(Sigma)/(B*K) sits well under the 1e-3
threshold.

Criterion 11 reruns criterion 8's two configs with beta2 = 0.64 alone
changed, so beta1/sqrt(beta2) = 1.125 lies outside the classical condition,
and holds them to criterion 8's thresholds plus a fully passing report.
"""

import time

import numpy as np

from padamp.core import HyperParams, ParamGroup, new_state, seeded_rng
from padamp.diagnostics import momentum_norm_ratio_limit, simulate_norm_growth
from padamp.geometry import project_tangent
from padamp.harness import (
    ExperimentConfig,
    LRSchedule,
    run,
    sweep,
    table1_defaults,
)
from padamp.objectives import (
    finite_difference_grad,
    logistic_regression,
    quadratic,
    rosenbrock,
    scale_invariant_objective,
    tiny_mlp,
)
from padamp.optimizers import OptimizerKind, make_step
from table_step import table_step


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_momentum_norm_growth_ratio():
    t = np.arange(1, 100_001, dtype=np.float64)
    u = 1.0 / t**2
    measured = []
    for beta in (0.5, 0.9, 0.99):
        started = time.perf_counter()
        trace = simulate_norm_growth(u, beta=beta, eta=0.1, theta0_norm_sq=1.0)
        elapsed = time.perf_counter() - started
        limit = momentum_norm_ratio_limit(beta)
        rel = abs(trace[-1].ratio - limit) / limit
        measured.append((beta, rel, elapsed))
    ok = all(rel < 0.01 and elapsed < 1.0 for _, rel, elapsed in measured)
    _verdict(1, ok, "; ".join(f"beta={b} rel={r:.2e} ({e:.3f}s)"
                              for b, r, e in measured))
    for beta, rel, elapsed in measured:
        assert rel < 0.01, beta
        assert elapsed < 1.0, beta


def test_criterion_02_moment_identity_residual_over_mlp_run():
    residuals = {}
    started = time.perf_counter()
    for lam in (1.0, 0.99):
        cfg = ExperimentConfig(
            optimizer="padamp",
            hp=table1_defaults("padamp", eta0=1e-3, p=0.25, lam=lam),
            objective="tiny_mlp",
            schedule=LRSchedule(family="constant"),
            steps=10_000, batch_size=128, seed=0,
            eval_every=10_000, eval_window=4,
        )
        result = run(cfg)
        rows = {name: value for name, value, _ in result.report.rows}
        # Python's max over the column, as over rows: a nan first propagates.
        per_record = max(result.records.columns()["lemma2_residual"].tolist())
        residuals[lam] = max(rows["lemma2_max_scaled_residual"], per_record)
    elapsed = time.perf_counter() - started
    worst = max(residuals.values())
    ok = worst < 1e-10 and elapsed < 30.0
    _verdict(2, ok, f"max scaled residual {worst:.2e} over 2x10^4 steps "
                    f"({elapsed:.1f}s)")
    assert worst < 1e-10
    assert elapsed < 30.0


_SLACK_ROWS = ("lemma3_lower_min", "lemma3_upper_min", "lemma4_lower_min",
               "lemma4_upper_min", "lemma5_radial_min", "lemma5_precond_sq_min",
               "lemma5_moment_diff_min")


def test_criterion_03_bound_slacks_nonnegative_across_optimizers():
    objectives = (
        ("quadratic", {"dim": 10, "condition": 10.0}),
        ("logistic", {"d": 6, "n": 256}),
        ("tiny_mlp", {"d_in": 6, "hidden": 8, "classes": 2, "n": 256}),
    )
    worst_slack = np.inf
    n_runs = 0
    for kind in OptimizerKind:
        hp = table1_defaults(kind)
        for objective, params in objectives:
            cfg = ExperimentConfig(
                optimizer=kind, hp=hp, objective=objective,
                objective_params=dict(params),
                schedule=LRSchedule(family="constant"),
                steps=300, batch_size=64, seed=2,
                eval_every=300, eval_window=4,
            )
            result = run(cfg)
            n_runs += 1
            rows = {name: (value, passed)
                    for name, value, passed in result.report.rows}
            if kind != OptimizerKind.SGDM:
                for row in _SLACK_ROWS:
                    value, passed = rows[row]
                    worst_slack = min(worst_slack, value)
                    assert passed and value >= 0.0, (kind, objective, row, value)
                margins = result.records.columns()["lemma3_margin"].tolist()
                assert min(margins) >= 0.0, (kind, objective)
    _verdict(3, True, f"min slack {worst_slack:.3e} over {n_runs} runs "
                      f"(6 optimizers x 3 objectives, 300 steps each)")


def test_criterion_04_reductions_to_adam_and_momentum():
    # p = 1/2 with the trigger disabled must match the plain bias-corrected
    # step exactly
    hp = HyperParams(p=0.5, delta=0.0, weight_decay=0.0)
    groups_a = [ParamGroup("theta", seeded_rng(0).standard_normal(50))]
    groups_b = [ParamGroup("theta", groups_a[0].values.copy())]
    state_a, state_b = new_state(groups_a, hp), new_state(groups_b, hp)
    pad, adam = make_step("padamp"), make_step("adam")
    rng = seeded_rng(1)
    worst_adam = 0.0
    for _ in range(100):
        g = {"theta": rng.standard_normal(50)}
        groups_a, _ = table_step(pad, state_a, groups_a, g, 1e-3)
        groups_b, _ = table_step(adam, state_b, groups_b, g, 1e-3)
        diff = np.linalg.norm(groups_a[0].values - groups_b[0].values)
        worst_adam = max(worst_adam, diff / np.linalg.norm(groups_b[0].values))

    # p -> 0 leaves the bias-corrected first moment as the direction
    hp0 = HyperParams(p=1e-8, delta=0.0, weight_decay=0.0)
    groups = [ParamGroup("theta", seeded_rng(0).standard_normal(50))]
    state = new_state(groups, hp0)
    rng = seeded_rng(1)
    worst_m = 0.0
    for t in range(1, 101):
        g = {"theta": rng.standard_normal(50)}
        prev = groups[0].values.copy()
        groups, _ = table_step(pad, state, groups, g, 1e-3)
        direction = (prev - groups[0].values) / 1e-3
        m_hat = state.m["theta"] / (1.0 - hp0.beta1 ** t)
        worst_m = max(worst_m, float(
            np.linalg.norm(direction - m_hat)
            / max(np.linalg.norm(m_hat), 1e-30)))

    ok = worst_adam <= 1e-12 and worst_m <= 1e-6
    _verdict(4, ok, f"adam reduction rel {worst_adam:.2e}; "
                    f"momentum-direction rel {worst_m:.2e}")
    assert worst_adam <= 1e-12
    assert worst_m <= 1e-6


def test_criterion_05_projection_geometry_randomized():
    rng = seeded_rng(0)
    worst = {"orthogonality": 0.0, "idempotence": 0.0, "contraction": 0.0,
             "scale_invariance": 0.0}
    for _ in range(10_000):
        dim = int(rng.integers(1, 1001))
        theta = rng.standard_normal(dim)
        while not np.any(theta):
            theta = rng.standard_normal(dim)
        x = rng.standard_normal(dim)
        c = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))
        px = project_tangent(theta, x)
        nx = np.linalg.norm(x)
        worst["orthogonality"] = max(
            worst["orthogonality"],
            abs(theta @ px) / (np.linalg.norm(theta) * nx + 1e-300))
        worst["idempotence"] = max(
            worst["idempotence"],
            np.linalg.norm(project_tangent(theta, px) - px) / (nx + 1e-300))
        worst["contraction"] = max(
            worst["contraction"],
            (np.linalg.norm(px) - nx) / (nx + 1e-300))
        worst["scale_invariance"] = max(
            worst["scale_invariance"],
            np.linalg.norm(project_tangent(c * theta, x) - px) / (nx + 1e-300))
    ok = all(v <= 1e-12 for v in worst.values())
    _verdict(5, ok, "; ".join(f"{k} {v:.1e}" for k, v in worst.items()))
    for name, value in worst.items():
        assert value <= 1e-12, name


def _mlp_norm_run(delta: float, seed: int) -> float:
    # inseparable data keeps the gradients stochastic for the whole run, the
    # regime where unprojected tangent updates let the weight norm drift up
    cfg = ExperimentConfig(
        optimizer="padamp",
        hp=table1_defaults("padamp", eta0=1e-3, weight_decay=0.0, delta=delta, p=0.25),
        objective="tiny_mlp", objective_params={"separation": 0.0},
        schedule=LRSchedule(family="constant"),
        steps=2000, batch_size=32, seed=seed, eval_every=2000, eval_window=2,
        init_scale=0.1,
    )
    result = run(cfg)
    vals = {g.name: g.values for g in result.final_params}
    return float(np.linalg.norm(vals["w1"]))


def test_criterion_06_scale_invariance_suite():
    started = time.perf_counter()
    toy = scale_invariant_objective(64)
    theta = seeded_rng(1).standard_normal(64)
    base = toy.eval([ParamGroup("theta", theta)])
    inv_toy = max(abs(toy.eval([ParamGroup("theta", c * theta)]) - base)
                  / abs(base) for c in (1e-3, 0.3, 2.7, 191.0))
    g = toy.grad([ParamGroup("theta", theta)])["theta"]
    orth_toy = abs(theta @ g) / (np.linalg.norm(theta) * np.linalg.norm(g))

    mlp = tiny_mlp(d_in=10, hidden=16, classes=2, n=512, seed=5)
    params = mlp.init_params(seeded_rng(2), scale=1.0)
    base = mlp.eval(params)
    inv_mlp = max(
        abs(mlp.eval([ParamGroup("w1", params[0].values * c), params[1]]) - base)
        / abs(base) for c in (0.3, 2.7, 191.0))
    gm = mlp.grad(params)["w1"]
    w1 = params[0].values
    orth_mlp = abs(w1 @ gm) / (np.linalg.norm(w1) * np.linalg.norm(gm))

    comparisons = []
    for seed in (0, 1):
        comparisons.append((_mlp_norm_run(0.1, seed), _mlp_norm_run(0.0, seed)))
    elapsed = time.perf_counter() - started

    norms_ok = all(on <= off for on, off in comparisons)
    ok = (max(inv_toy, inv_mlp) <= 1e-10 and max(orth_toy, orth_mlp) <= 1e-8
          and norms_ok and elapsed < 60.0)
    pairs = " ".join(f"{on:.3f}<={off:.3f}" for on, off in comparisons)
    _verdict(6, ok, f"invariance {max(inv_toy, inv_mlp):.1e}; orthogonality "
                    f"{max(orth_toy, orth_mlp):.1e}; w1 norms {pairs} "
                    f"({elapsed:.1f}s)")
    assert inv_toy <= 1e-10 and inv_mlp <= 1e-10
    assert orth_toy <= 1e-8 and orth_mlp <= 1e-8
    for projected, unprojected in comparisons:
        assert projected <= unprojected
    assert elapsed < 60.0


def test_criterion_07_finite_difference_gradient_audit():
    cases = [
        (quadratic(6, condition=10.0), 1e-6),
        (rosenbrock(), 1e-6),
        (scale_invariant_objective(8), 1e-6),
        (logistic_regression(d=6, n=64, seed=7), 1e-6),
        (tiny_mlp(d_in=5, hidden=6, classes=3, n=64, seed=7), 1e-4),
    ]
    details, ok = [], True
    for objective, tol in cases:
        rng = seeded_rng(123)
        worst = 0.0
        for _ in range(20):
            params = objective.init_params(rng, scale=0.5)
            analytic = objective.grad(params)
            numeric = finite_difference_grad(objective, params)
            a = np.concatenate([analytic[p.name] for p in params])
            n = np.concatenate([numeric[p.name] for p in params])
            worst = max(worst, float(
                np.linalg.norm(n - a) / max(np.linalg.norm(a), 1e-30)))
        details.append((objective.name, worst, tol))
        ok = ok and worst < tol
    _verdict(7, ok, "; ".join(f"{name} {worst:.1e}" for name, worst, _ in details))
    for name, worst, tol in details:
        assert worst < tol, name


def _convergence_runs(**hp_overrides):
    """Criterion 8's quadratic and logistic runs, with hp_overrides on its hp."""
    hp = dict(p=0.5, weight_decay=0.0, lam=0.99, **hp_overrides)
    schedule = LRSchedule(family="power", a=0.75)
    quad = run(ExperimentConfig(
        optimizer="padamp", hp=table1_defaults("padamp", eta0=1e-3, **hp),
        objective="quadratic", objective_params={"dim": 20, "condition": 100.0},
        schedule=schedule, steps=10_000, seed=0, eval_every=500,
        init_scale=0.003,
    ))
    logi = run(ExperimentConfig(
        optimizer="padamp", hp=table1_defaults("padamp", eta0=0.1, **hp),
        objective="logistic", objective_params={"d": 10, "n": 512},
        schedule=schedule, steps=20_000, batch_size=32, seed=0,
        eval_every=2000, eval_window=32, init_scale=0.1,
    ))
    return quad, logi


def test_criterion_08_convergence_diagnostic():
    started = time.perf_counter()
    quad, logi = _convergence_runs()
    quad_min = quad.convergence.final_min
    logi_min = logi.convergence.final_min
    elapsed = time.perf_counter() - started
    ok = quad_min < 1e-6 and logi_min < 1e-3 and elapsed < 120.0
    _verdict(8, ok, f"running-min quadratic {quad_min:.2e} (tol 1e-6), "
                    f"logistic {logi_min:.2e} (tol 1e-3) ({elapsed:.1f}s)")
    assert elapsed < 120.0
    assert quad_min < 1e-6
    assert logi_min < 1e-3, (
        f"logistic running-min gradient-norm estimate is {logi_min:.2e}, not "
        f"< 1e-3: the run did not reach the optimum, or the estimate's bias "
        f"tr(Sigma)/(B*K) exceeds the threshold")


def test_criterion_09_p_sweep_protocol(tmp_path):
    base = {"optimizer.kind": "padamp", "objective.name": "tiny_mlp",
            "schedule.family": "constant", "schedule.eta0": "1e-3",
            "run.epochs": "20", "run.batch_size": "128", "run.seed": "0",
            "run.eval_every": "40", "run.eval_window": "8"}
    results = sweep(base, "p", [1 / 4, 1 / 5, 1 / 8], out_dir=str(tmp_path))
    summary = tmp_path / "summary.csv"
    all_green = all(r.report.all_passed for r in results)
    ok = summary.exists() and len(results) == 3 and all_green
    losses = " ".join(f"{r.summary['final_loss']:.4f}" for r in results)
    _verdict(9, ok, f"3 runs completed, losses {losses}, diagnostics "
                    f"{'all pass' if all_green else 'FAILED'}")
    assert summary.exists()
    assert len(results) == 3
    assert all_green


def test_criterion_10_byte_identical_reruns(tmp_path):
    quad_cfg = dict(
        optimizer="padamp",
        hp=table1_defaults("padamp", eta0=1e-2, weight_decay=0.0),
        objective="quadratic", objective_params={"dim": 6},
        schedule=LRSchedule(family="power", a=0.75),
        steps=300, seed=3, eval_every=50,
    )
    mlp_cfg = dict(
        optimizer="padamp",
        hp=table1_defaults("padamp", eta0=1e-3),
        objective="tiny_mlp",
        schedule=LRSchedule(family="constant"),
        steps=300, batch_size=128, seed=5, eval_every=100, eval_window=4,
    )
    checks = []
    for label, cfg in (("quadratic", quad_cfg), ("tiny_mlp", mlp_cfg)):
        paths = [tmp_path / f"{label}_{i}.csv" for i in (0, 1)]
        for path in paths:
            run(ExperimentConfig(output_path=str(path), **cfg))
        checks.append((label, paths[0].read_bytes() == paths[1].read_bytes()))

    sweep_base = {"optimizer.kind": "padamp", "objective.name": "tiny_mlp",
                  "schedule.family": "constant", "schedule.eta0": "1e-3",
                  "run.steps": "60", "run.batch_size": "128", "run.seed": "0",
                  "run.eval_every": "60", "run.eval_window": "4"}
    dirs = [tmp_path / f"sweep_{i}" for i in (0, 1)]
    for d in dirs:
        sweep(sweep_base, "p", [0.25, 0.125], out_dir=str(d))
    for name in ("summary.csv", "run_000.csv", "run_001.csv"):
        checks.append((f"sweep/{name}",
                       (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()))

    ok = all(same for _, same in checks)
    _verdict(10, ok, "; ".join(f"{label} {'identical' if same else 'DIFFERS'}"
                               for label, same in checks))
    for label, same in checks:
        assert same, label


def test_criterion_11_convergence_without_the_classical_beta_condition():
    # beta2 = 0.64 gives beta1 / sqrt(beta2) = 0.9 / 0.8 = 1.125, outside the
    # classical beta1 < sqrt(beta2); the paper's analysis does not need it.
    started = time.perf_counter()
    quad, logi = _convergence_runs(beta2=0.64)
    quad_min = quad.convergence.final_min
    logi_min = logi.convergence.final_min
    elapsed = time.perf_counter() - started
    green = quad.report.all_passed and logi.report.all_passed
    ok = quad_min < 1e-6 and logi_min < 1e-3 and green and elapsed < 120.0
    _verdict(11, ok, f"beta1/sqrt(beta2) = 1.125: running-min quadratic "
                     f"{quad_min:.2e} (tol 1e-6), logistic {logi_min:.2e} (tol 1e-3), "
                     f"diagnostics {'all pass' if green else 'FAILED'} ({elapsed:.1f}s)")
    assert elapsed < 120.0
    assert quad_min < 1e-6
    assert logi_min < 1e-3
    assert quad.report.all_passed, str(quad.report)
    assert logi.report.all_passed, str(logi.report)
