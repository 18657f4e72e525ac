"""Command-line interface: run, sweep, norm-sim, check, grad-check.

Every subcommand accepts --steps and --out, and every one but check --seed.
When --out is omitted, files land in $PADAMP_OUT_DIR (default: current
directory). Exit code: 0 when every report row passes, 1 when one fails, 2 on
bad input or divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import harness
from .diagnostics import (
    DiagnosticsReport,
    momentum_norm_ratio_limit,
    simulate_norm_growth,
)
from .geometry import norm
from .objectives import finite_difference_grad


def _default_out(filename: str, out_flag: Optional[str]) -> str:
    return out_flag or os.path.join(os.environ.get("PADAMP_OUT_DIR", "."), filename)


def _parse_sets(pairs: List[str], flag: str = "--set") -> Dict[str, str]:
    mapping: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"{flag} expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _load_mapping(args) -> Dict[str, str]:
    """Dotted config keys: the config file, then --set, --seed and --steps."""
    mapping = harness.parse_config_file(args.config) if args.config else {}
    mapping.update(_parse_sets(args.set or []))
    if args.seed is not None:
        mapping["run.seed"] = str(args.seed)
    if args.steps is not None:
        mapping["run.steps"] = str(args.steps)
        mapping.pop("run.epochs", None)
    return mapping


def _print_run(result: harness.RunResult) -> None:
    s = result.summary
    acc = "n/a" if np.isnan(s["final_accuracy"]) else f"{s['final_accuracy']:.4f}"
    print(f"steps={len(result.records)} final_loss={s['final_loss']:.6g} "
          f"final_accuracy={acc} min_grad_norm_sq={s['min_grad_norm_sq']:.6g} "
          f"wall={s['wall_time_s']:.2f}s")
    print(result.report)


def _cmd_run(args) -> int:
    mapping = _load_mapping(args)
    if args.out or "run.out" not in mapping:
        mapping["run.out"] = _default_out("run.csv", args.out)
    config = harness.build_config(mapping)
    result = harness.run(config)
    _print_run(result)
    print(f"telemetry: {config.output_path}")
    return 0 if result.report.all_passed else 1


def _cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    out_dir = _default_out("sweep", args.out)
    results = harness.sweep(_load_mapping(args), args.axis, values, out_dir=out_dir)
    for value, result in zip(values, results):
        s = result.summary
        print(f"{args.axis}={value}: final_loss={s['final_loss']:.6g} "
              f"diagnostics={'pass' if result.report.all_passed else 'FAIL'}")
    print(f"summary: {os.path.join(out_dir, 'summary.csv')}")
    return 0 if all(r.report.all_passed for r in results) else 1


def _make_updates(pattern: str, steps: int, cutoff: int, seed: int) -> np.ndarray:
    t = np.arange(1, steps + 1, dtype=np.float64)
    if pattern == "inverse-square":
        return 1.0 / t**2
    if pattern == "step":
        return np.where(t <= cutoff, 1.0, 0.0)
    if pattern == "random":
        rng = np.random.default_rng(seed)
        return rng.standard_normal(steps) ** 2 / t**2
    raise ValueError(f"unknown update pattern {pattern!r}")


def _check_seed_and_steps(args) -> None:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")


def _cmd_norm_sim(args) -> int:
    _check_seed_and_steps(args)
    betas = [float(b) for b in args.beta.split(",") if b.strip()]
    if not betas:
        raise ValueError("--beta needs at least one value")
    u = _make_updates(args.pattern, args.steps, args.cutoff, args.seed)
    # Every trace first, so a bad value leaves --out as it was.
    traces = [simulate_norm_growth(u, beta, args.eta, args.theta0_norm_sq)
              for beta in betas]
    out = _default_out("norm_sim.csv", args.out)
    cols = {"beta": np.repeat(betas, args.steps),
            "t": np.tile(np.arange(1, args.steps + 1), len(betas))}
    for name in ("norm_sq_gd", "norm_sq_gdm", "ratio"):
        cols[name] = np.concatenate([getattr(trace, name) for trace in traces])
    harness.write_telemetry(cols, out)
    for beta, trace in zip(betas, traces):
        limit = momentum_norm_ratio_limit(beta)
        print(f"beta={beta}: final_ratio={trace[-1].ratio:.6f} "
              f"limit={limit:.6f} "
              f"rel_err={abs(trace[-1].ratio - limit) / limit:.3e}")
    print(f"trace: {out}")
    return 0


def _report(report: DiagnosticsReport, out: Optional[str]) -> int:
    print(report)
    if out:
        report.to_csv(out)
        print(f"report: {out}")
    return 0 if report.all_passed else 1


def _cmd_check(args) -> int:
    if args.steps is not None and args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    cols = harness.read_telemetry(args.csv)
    if args.steps is not None:
        cols = {k: v[:args.steps] for k, v in cols.items()}
    report = harness.check_telemetry(cols)
    return _report(report, args.out)


def _cmd_grad_check(args) -> int:
    _check_seed_and_steps(args)
    params_map = _parse_sets(args.param or [], "--param")
    objective = harness.build_objective(args.objective, params_map, args.seed)
    # The MLP default is looser: centered differences straddling a ReLU kink
    # carry truncation error the analytic subgradient does not have.
    tol = args.tol if args.tol is not None else (
        1e-4 if args.objective == "tiny_mlp" else 1e-6)
    if not 0 < tol < np.inf:
        raise ValueError(f"--tol must be positive and finite, got {tol}")
    rng = np.random.default_rng(args.seed)
    report = DiagnosticsReport()
    for i in range(args.steps):
        params = objective.init_params(rng, scale=0.5)
        analytic = objective.grad(params)
        numeric = finite_difference_grad(objective, params)
        an = np.concatenate([analytic[p.name] for p in params])
        num = np.concatenate([numeric[p.name] for p in params])
        rel = norm(num - an) / max(norm(an), 1e-30)
        report.add(f"point_{i:02d}_rel_error", rel, rel < tol)
    return _report(report, args.out)


def _add_common(sub, steps_help: str, steps_default=None) -> None:
    # No --seed leaves run and sweep with the config's run.seed; norm-sim and
    # grad-check default it to 0.
    sub.add_argument("--seed", type=int, default=None, help="base RNG seed")
    sub.add_argument("--steps", type=int, default=steps_default, help=steps_help)
    sub.add_argument("--out", default=None, help="output path (file or directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padamp",
        description="Partially adaptive momentum optimizer with tangent projection: "
                    "training runs, sweeps, and math diagnostics.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="execute one configured training run")
    p_run.add_argument("--config", help="key=value config file with dotted keys")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    _add_common(p_run, "override the step budget")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = subs.add_parser("sweep", help="run one config across parameter values")
    p_sweep.add_argument("--config", help="key=value config file with dotted keys")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
    p_sweep.add_argument("--axis", required=True,
                         help="swept parameter (e.g. hp.p, schedule.eta0, seed)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the axis")
    _add_common(p_sweep, "override the step budget")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = subs.add_parser("norm-sim",
                            help="simulate plain vs momentum norm growth")
    p_sim.add_argument("--beta", default="0.5,0.9,0.99",
                       help="comma-separated momentum coefficients")
    p_sim.add_argument("--pattern", default="inverse-square",
                       choices=("inverse-square", "step", "random"),
                       help="update-norm sequence shape")
    p_sim.add_argument("--cutoff", type=int, default=200,
                       help="last nonzero step for the step pattern")
    p_sim.add_argument("--eta", type=float, default=1.0, help="step size")
    p_sim.add_argument("--theta0-norm-sq", type=float, default=1.0,
                       help="initial squared parameter norm")
    _add_common(p_sim, "simulated steps", steps_default=10_000)
    p_sim.set_defaults(func=_cmd_norm_sim, seed=0)

    p_check = subs.add_parser("check",
                              help="validate a telemetry CSV against the "
                                   "lemma and schedule invariants")
    p_check.add_argument("--csv", required=True, help="telemetry CSV from a run")
    p_check.add_argument("--steps", type=int, help="check only the first N rows")
    p_check.add_argument("--out", help="report CSV path")
    p_check.set_defaults(func=_cmd_check)

    p_grad = subs.add_parser("grad-check",
                             help="finite-difference audit of an objective")
    p_grad.add_argument("--objective", required=True,
                        help=f"objective name ({', '.join(harness.OBJECTIVES)})")
    p_grad.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="objective parameter (repeatable)")
    p_grad.add_argument("--tol", type=float, default=None,
                        help="per-point relative-error threshold (default "
                             "1e-6, or 1e-4 for tiny_mlp)")
    _add_common(p_grad, "number of random points to audit", steps_default=20)
    p_grad.set_defaults(func=_cmd_grad_check, seed=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # One floating-point state for the command, as harness.run sets for a run.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
