"""Experiment configuration, schedules, the run loop, sweeps, and CSV output.

A run is fully determined by its config and seed: dataset construction,
parameter init, batch order, and evaluation batches draw from four
independent child RNGs spawned from the config seed, and CSV floats are
written with repr() so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import HyperParams, ParamGroup, StepRecord, new_state
from .diagnostics import (
    ConvergenceTrace,
    DiagnosticsReport,
    LemmaMonitor,
    track_convergence,
    validate_schedule,
)
from .objectives import (
    Objective,
    logistic_regression,
    quadratic,
    rosenbrock,
    scale_invariant_objective,
    tiny_mlp,
)
from .optimizers import OptimizerKind, make_step

__all__ = [
    "LRSchedule",
    "PSchedule",
    "ExperimentConfig",
    "RunResult",
    "table1_defaults",
    "build_objective",
    "schedule_lr",
    "schedule_p",
    "run",
    "sweep",
    "telemetry_columns",
    "write_telemetry",
    "read_telemetry",
    "check_telemetry",
    "parse_config_file",
    "build_config",
    "CONFIG_KEYS",
]


# Default hyperparameters per optimizer family. padam is not listed in the
# reference table; it takes the padamp column since it is the same p-power
# family with projection removed.
_TABLE1 = {
    OptimizerKind.PADAMP: dict(eta0=1e-3, beta1=0.9, beta2=0.999, weight_decay=1e-2),
    OptimizerKind.ADAMP: dict(eta0=1e-3, beta1=0.9, beta2=0.999, weight_decay=1e-2),
    OptimizerKind.PADAM: dict(eta0=1e-3, beta1=0.9, beta2=0.999, weight_decay=1e-2),
    OptimizerKind.ADAM: dict(eta0=1e-3, beta1=0.9, beta2=0.99, weight_decay=1e-4),
    OptimizerKind.AMSGRAD: dict(eta0=1e-3, beta1=0.9, beta2=0.99, weight_decay=1e-4),
    OptimizerKind.SGDM: dict(eta0=0.1, momentum=0.9, weight_decay=5e-4),
}


def table1_defaults(kind: OptimizerKind, **overrides) -> HyperParams:
    """HyperParams preloaded with the per-optimizer defaults."""
    base = dict(_TABLE1[OptimizerKind(kind)])
    base.update(overrides)
    return HyperParams(**base)


@dataclass(frozen=True)
class LRSchedule:
    """Learning-rate family. power is step-indexed (eta0 / t^a); piecewise is
    epoch-indexed (multiply by factor at each milestone epoch)."""

    family: str = "constant"
    eta0: float = 1e-3
    a: float = 0.75
    milestones: Tuple[int, ...] = (50, 100, 150)
    factor: float = 0.1

    def __post_init__(self):
        if self.family not in ("constant", "power", "piecewise"):
            raise ValueError(f"unknown schedule family {self.family!r}")
        if not 0 < self.eta0 < math.inf:
            raise ValueError(f"eta0 must be positive and finite, got {self.eta0}")
        if self.family == "power" and not 0 < self.a < math.inf:
            raise ValueError(
                f"power-law exponent a must be positive and finite, got {self.a}")
        if not 0 < self.factor <= 1:
            raise ValueError(f"decay factor must lie in (0, 1], got {self.factor}")
        if any(m <= 0 for m in self.milestones) or list(self.milestones) != sorted(
            set(self.milestones)
        ):
            raise ValueError("milestones must be strictly increasing positive epochs")


def schedule_lr(t: int, schedule: LRSchedule) -> float:
    """Rate at index t (>= 1): the step for constant/power, the epoch for piecewise."""
    if t < 1:
        raise ValueError(f"schedule index must be >= 1, got {t}")
    if schedule.family == "constant":
        return schedule.eta0
    if schedule.family == "power":
        return schedule.eta0 / float(t) ** schedule.a
    n_decays = sum(1 for m in schedule.milestones if t >= m)
    return schedule.eta0 * schedule.factor ** n_decays


@dataclass(frozen=True)
class PSchedule:
    """Single-decay schedule for the adaptivity power p."""

    decay_epoch: int
    new_p: float

    def __post_init__(self):
        if self.decay_epoch < 1:
            raise ValueError(f"decay epoch must be >= 1, got {self.decay_epoch}")
        if not 0 < self.new_p <= 0.5:
            raise ValueError(f"new p must lie in (0, 1/2], got {self.new_p}")


def schedule_p(epoch: int, p_schedule: Optional[PSchedule], base_p: float) -> float:
    """p in effect at the given epoch: base_p before the decay epoch, new_p from it on."""
    if p_schedule is None or epoch < p_schedule.decay_epoch:
        return base_p
    return p_schedule.new_p


_OBJECTIVE_NAMES = ("quadratic", "rosenbrock", "scale_invariant", "logistic", "tiny_mlp")


def build_objective(name: str, params: Dict, data_seed: int) -> Objective:
    """Instantiate an objective by name; dataset objectives get data_seed."""
    p = dict(params)
    p.pop("name", None)
    seed = int(p.pop("data_seed", data_seed))
    if name == "quadratic":
        return quadratic(dim=int(p.pop("dim", 20)),
                         condition=float(p.pop("condition", 1.0)))
    if name == "rosenbrock":
        return rosenbrock(dim=int(p.pop("dim", 2)))
    if name == "scale_invariant":
        return scale_invariant_objective(dim=int(p.pop("dim", 64)))
    if name == "logistic":
        return logistic_regression(d=int(p.pop("d", 10)), n=int(p.pop("n", 512)),
                                   seed=seed, separation=float(p.pop("separation", 4.0)))
    if name == "tiny_mlp":
        return tiny_mlp(d_in=int(p.pop("d_in", 10)), hidden=int(p.pop("hidden", 16)),
                        classes=int(p.pop("classes", 2)), n=int(p.pop("n", 512)),
                        seed=seed, separation=float(p.pop("separation", 4.0)))
    raise ValueError(f"unknown objective {name!r}; known: {_OBJECTIVE_NAMES}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one training run."""

    optimizer: OptimizerKind = OptimizerKind.PADAMP
    hp: HyperParams = field(default_factory=HyperParams)
    objective: str = "quadratic"
    objective_params: Dict = field(default_factory=dict)
    schedule: LRSchedule = field(default_factory=LRSchedule)
    p_schedule: Optional[PSchedule] = None
    steps: Optional[int] = None
    epochs: Optional[int] = None
    batch_size: int = 128
    seed: int = 0
    eval_window: int = 32
    eval_every: int = 50
    steps_per_epoch: int = 100
    init_scale: float = 0.1
    output_path: Optional[str] = None

    def __post_init__(self):
        OptimizerKind(self.optimizer)
        if self.objective not in _OBJECTIVE_NAMES:
            raise ValueError(
                f"unknown objective {self.objective!r}; known: {_OBJECTIVE_NAMES}")
        if (self.steps is None) == (self.epochs is None):
            raise ValueError("exactly one of steps or epochs must set the budget")
        for label, value in (("steps", self.steps), ("epochs", self.epochs)):
            if value is not None and value < 1:
                raise ValueError(f"{label} budget must be >= 1, got {value}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_window < 1 or self.eval_every < 1 or self.steps_per_epoch < 1:
            raise ValueError("eval_window, eval_every, steps_per_epoch must be >= 1")
        if not 0 < self.init_scale < math.inf:
            raise ValueError(f"init_scale must be positive and finite, got {self.init_scale}")
        if self.p_schedule is not None and self.p_schedule.new_p > self.hp.p:
            raise ValueError(f"p_schedule.new_p must not exceed hp.p (the schedule only "
                             f"decays p), got {self.p_schedule.new_p} > {self.hp.p}")


@dataclass
class RunResult:
    config: ExperimentConfig
    records: List[StepRecord]
    report: DiagnosticsReport
    convergence: ConvergenceTrace
    summary: Dict[str, float]
    final_params: List[ParamGroup]


def _grad_norm_sq(grads: Dict[str, np.ndarray]) -> float:
    return float(sum(np.sum(g * g) for g in grads.values()))


def run(config: ExperimentConfig) -> RunResult:
    """Execute one run; returns telemetry, diagnostics, and the convergence trace.

    Writes the telemetry CSV when config.output_path is set. Aborts with the
    step index if the loss goes non-finite.
    """
    started = time.perf_counter()
    data_ss, init_ss, batch_ss, eval_ss = np.random.SeedSequence(config.seed).spawn(4)
    data_seed = int(data_ss.generate_state(1)[0])
    objective = build_objective(config.objective, config.objective_params, data_seed)
    init_rng = np.random.default_rng(init_ss)
    batch_rng = np.random.default_rng(batch_ss)
    eval_rng = np.random.default_rng(eval_ss)

    params = objective.init_params(init_rng, scale=config.init_scale)
    state = new_state(params, config.hp)
    step_fn = make_step(config.optimizer)
    is_adaptive = config.optimizer != OptimizerKind.SGDM

    if objective.dataset is not None:
        epoch_len = math.ceil(objective.dataset.n / config.batch_size)
    else:
        epoch_len = config.steps_per_epoch
    budget = config.steps if config.steps is not None else config.epochs * epoch_len

    monitor = LemmaMonitor() if is_adaptive else None
    records: List[StepRecord] = []
    eval_ts: List[int] = []
    eval_estimates: List[float] = []
    batch_iter = iter(())

    for t in range(1, budget + 1):
        epoch = (t - 1) // epoch_len + 1
        sched_index = epoch if config.schedule.family == "piecewise" else t
        eta_t = schedule_lr(sched_index, config.schedule)
        p_now = schedule_p(epoch, config.p_schedule, config.hp.p)

        if objective.dataset is not None:
            batch = next(batch_iter, None)
            if batch is None:
                batch_iter = objective.dataset.epoch_batches(config.batch_size,
                                                             batch_rng)
                batch = next(batch_iter)
        else:
            batch = None

        # A diverging run overflows here; the finiteness check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            loss = objective.eval(params, batch)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss {loss!r} at step {t}; aborting")
        grads = objective.grad(params, batch)

        if t % config.eval_every == 0 or t == budget:
            # For datasets, square the window's mean gradient: its bias
            # tr(Sigma)/(batch_size * eval_window) shrinks with the window,
            # while a mean of squared norms keeps tr(Sigma)/batch_size.
            if objective.dataset is None:
                estimate = _grad_norm_sq(grads)
            else:
                total = None
                for _ in range(config.eval_window):
                    idx = objective.dataset.sample(config.batch_size, eval_rng)
                    g = objective.grad(params, idx)
                    total = g if total is None else {k: total[k] + g[k]
                                                     for k in total}
                estimate = _grad_norm_sq(total) / config.eval_window ** 2
            eval_ts.append(t)
            eval_estimates.append(estimate)

        out = step_fn(state, params, grads, eta_t, p_now)
        out.record.loss = loss
        out.record.epoch = epoch
        records.append(out.record)

        if monitor is not None:
            monitor.update(state, params, out)
        params = out.new_params

    trace = track_convergence(eval_estimates, eval_ts)
    report = _build_report(config, telemetry_columns(records), monitor, trace)
    final_acc = objective.accuracy(params)
    summary = {
        "final_loss": records[-1].loss,
        "final_accuracy": float("nan") if final_acc is None else final_acc,
        "min_grad_norm_sq": trace.final_min,
        "wall_time_s": time.perf_counter() - started,
    }
    result = RunResult(config, records, report, trace, summary, params)
    if config.output_path is not None:
        write_telemetry(records, config.output_path)
    return result


def _build_report(config: ExperimentConfig, cols: Dict[str, np.ndarray],
                  monitor: Optional[LemmaMonitor],
                  trace: ConvergenceTrace) -> DiagnosticsReport:
    """check_telemetry's rows plus what the telemetry CSV cannot hold."""
    report = check_telemetry(cols)
    verdict = validate_schedule(
        config.schedule.family, config.schedule.eta0,
        config.schedule.a if config.schedule.family == "power" else None)
    # Informational: theorem-mode schedules are flagged, not failed.
    report.add("schedule_theorem_assumptions",
               1.0 if verdict.satisfies_assumptions else 0.0, True)
    _add_max_increase(report, "running_min_max_increase", trace.running_min)
    if monitor is not None:
        for key, slack in monitor.min_slacks.items():
            report.add(f"{key}_min", slack, slack >= 0.0)
    return report


def _with_axis(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """Config copy with one swept parameter replaced."""
    alias = {"p": "hp.p", "lr": "schedule.eta0"}
    axis = alias.get(axis, axis)
    if axis in ("optimizer", "optimizer.kind"):
        kind = OptimizerKind(value)
        hp = table1_defaults(kind, p=config.hp.p,
                             beta1t_mode=config.hp.beta1t_mode, lam=config.hp.lam)
        return replace(config, optimizer=kind, hp=hp,
                       schedule=replace(config.schedule, eta0=hp.eta0))
    if axis.startswith("hp."):
        return replace(config, hp=config.hp.with_(**{axis[3:]: value}))
    if axis.startswith("schedule."):
        return replace(config, schedule=replace(config.schedule,
                                                **{axis[9:]: value}))
    if axis.startswith("objective."):
        new_params = dict(config.objective_params)
        new_params[axis[10:]] = value
        return replace(config, objective_params=new_params)
    if axis in ("seed", "batch_size", "steps", "epochs", "init_scale"):
        return replace(config, **{axis: value})
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep(base_config: ExperimentConfig, axis: str, values: Sequence,
          out_dir: Optional[str] = None) -> List[RunResult]:
    """One run per value. Results are returned in value order; the summary CSV
    is sorted by final loss (stable, so ties keep value order)."""
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    results = []
    for i, value in enumerate(values):
        cfg = _with_axis(base_config, axis, value)
        if out_dir is not None:
            import os

            os.makedirs(out_dir, exist_ok=True)
            cfg = replace(cfg, output_path=os.path.join(out_dir, f"run_{i:03d}.csv"))
        results.append(run(cfg))
    if out_dir is not None:
        import os

        write_sweep_summary(axis, values, results,
                            os.path.join(out_dir, "summary.csv"))
    return results


def write_sweep_summary(axis: str, values: Sequence, results: Sequence[RunResult],
                        path: str) -> None:
    order = sorted(range(len(results)),
                   key=lambda i: (results[i].summary["final_loss"], i))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([axis, "final_loss", "final_accuracy", "min_grad_norm_sq",
                    "diagnostics_passed"])
        for i in order:
            s = results[i].summary
            w.writerow([
                _fmt(values[i]),
                repr(s["final_loss"]),
                repr(s["final_accuracy"]),
                repr(s["min_grad_norm_sq"]),
                int(results[i].report.all_passed),
            ])


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def telemetry_columns(records: Sequence[StepRecord]) -> Dict[str, np.ndarray]:
    """The telemetry table as named columns, in CSV order.

    t, epoch and the projected flags are int64, every other column float64;
    read_telemetry gives the same names and values back, all as float64.
    """
    if not records:
        raise ValueError("no records to tabulate")
    cols = {
        "t": [r.t for r in records],
        "epoch": [r.epoch for r in records],
        "eta_t": [r.eta_t for r in records],
        "p_now": [r.p_t_power for r in records],
        "loss": [r.loss for r in records],
        "grad_norm_sq": [r.grad_norm_sq for r in records],
    }
    for name in records[0].groups:
        grs = [r.groups[name] for r in records]
        cols[f"{name}_param_norm"] = [gr.param_norm for gr in grs]
        cols[f"{name}_cos_sim"] = [gr.cos_sim for gr in grs]
        cols[f"{name}_projected"] = [gr.projected for gr in grs]
        cols[f"{name}_effective_step_norm"] = [gr.effective_step_norm for gr in grs]
    cols["lemma2_residual"] = [r.lemma2_residual for r in records]
    cols["lemma3_margin"] = [r.lemma3_margin for r in records]
    return {k: np.asarray(v, dtype=np.int64 if k in ("t", "epoch") or
                          k.endswith("_projected") else np.float64)
            for k, v in cols.items()}


def write_telemetry(records: Sequence[StepRecord], path: str) -> None:
    """Pinned per-step CSV schema; csv writes floats with repr(), so reruns
    are byte-identical."""
    cols = telemetry_columns(records)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        w.writerows(zip(*(v.tolist() for v in cols.values())))


def read_telemetry(path: str) -> Dict[str, np.ndarray]:
    """Telemetry CSV back as named float columns (projected flags as 0/1)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    data = np.asarray(rows, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"malformed telemetry CSV {path}")
    return {name: data[:, j] for j, name in enumerate(header)}


def _add_max_increase(report: DiagnosticsReport, name: str, x: np.ndarray) -> None:
    """Row passing when x never rises; its value is the largest rise, or 0."""
    rise = float(np.max(np.diff(x))) if x.size > 1 else 0.0
    report.add(name, max(rise, 0.0), rise <= 0.0)


def check_telemetry(cols: Dict[str, np.ndarray]) -> DiagnosticsReport:
    """Every invariant a telemetry table can show, one report row each.

    Takes telemetry_columns of a live run or read_telemetry of its CSV. The
    lemma rows appear only when their column holds a finite value; sgdm
    records nan there.
    """
    report = DiagnosticsReport()
    t = cols["t"]
    report.add("t_strictly_increasing", float(np.min(np.diff(t))) if t.size > 1 else 1.0,
               t.size < 2 or bool(np.all(np.diff(t) > 0)))
    epoch = cols["epoch"]
    report.add("epoch_non_decreasing", 0.0,
               epoch.size < 2 or bool(np.all(np.diff(epoch) >= 0)))
    _add_max_increase(report, "eta_max_increase", cols["eta_t"])
    _add_max_increase(report, "p_max_increase", cols["p_now"][np.isfinite(cols["p_now"])])

    must_be_finite = ["loss", "grad_norm_sq", "eta_t"]
    must_be_finite += [c for c in cols
                       if c.endswith("_param_norm") or c.endswith("_effective_step_norm")]
    n_bad = sum(int(np.sum(~np.isfinite(cols[c]))) for c in must_be_finite)
    report.add("non_finite_values", float(n_bad), n_bad == 0)

    for c in cols:
        if c.endswith("_projected"):
            ok = bool(np.all(np.isin(cols[c], (0.0, 1.0))))
            report.add(f"{c}_is_flag", 0.0 if ok else 1.0, ok)
        if c.endswith("_cos_sim"):
            vals = cols[c][np.isfinite(cols[c])]
            ok = vals.size == 0 or bool(np.all((vals >= 0.0) & (vals <= 1.0)))
            report.add(f"{c}_in_unit_interval", 0.0 if ok else 1.0, ok)

    resid = cols["lemma2_residual"][np.isfinite(cols["lemma2_residual"])]
    if resid.size:
        report.add("lemma2_max_scaled_residual", resid.max(), resid.max() < 1e-10)
    margin = cols["lemma3_margin"][np.isfinite(cols["lemma3_margin"])]
    if margin.size:
        report.add("lemma3_upper_min", margin.min(), margin.min() >= 0.0)
    return report


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


# Every HyperParams field is the config key hp.<field>, parsed by its annotation.
_HP_CAST = {f.name: {"float": float, "str": str, "bool": _parse_bool}[f.type]
            for f in fields(HyperParams)}
_OBJ_INT = ("dim", "d", "n", "d_in", "hidden", "classes", "data_seed")
_OBJ_FLOAT = ("condition", "separation")
_RUN_INT = ("steps", "epochs", "batch_size", "seed", "eval_window", "eval_every",
            "steps_per_epoch")

CONFIG_KEYS = (
    ["optimizer.kind", "objective.name", "schedule.family", "schedule.eta0",
     "schedule.a", "schedule.milestones", "schedule.factor",
     "p_schedule.decay_epoch", "p_schedule.new_p", "run.init_scale", "run.out"]
    + [f"hp.{k}" for k in _HP_CAST]
    + [f"objective.{k}" for k in _OBJ_INT + _OBJ_FLOAT]
    + [f"run.{k}" for k in _RUN_INT]
)


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments ignored."""
    mapping: Dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


def build_config(mapping: Dict[str, str],
                 overrides: Optional[Dict[str, str]] = None) -> ExperimentConfig:
    """ExperimentConfig from dotted string keys; overrides win over mapping."""
    merged = dict(mapping)
    merged.update(overrides or {})
    unknown = sorted(set(merged) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")

    kind = OptimizerKind(merged.pop("optimizer.kind", "padamp"))
    hp_over = {k: cast(merged.pop(f"hp.{k}")) for k, cast in _HP_CAST.items()
               if f"hp.{k}" in merged}
    hp = table1_defaults(kind, **hp_over)

    objective = merged.pop("objective.name", "quadratic")
    obj_params: Dict = {}
    for k in _OBJ_INT:
        if f"objective.{k}" in merged:
            obj_params[k] = int(merged.pop(f"objective.{k}"))
    for k in _OBJ_FLOAT:
        if f"objective.{k}" in merged:
            obj_params[k] = float(merged.pop(f"objective.{k}"))

    sched_kw: Dict = {"eta0": hp.eta0}
    if "schedule.family" in merged:
        sched_kw["family"] = merged.pop("schedule.family")
    for k, cast in (("eta0", float), ("a", float), ("factor", float)):
        if f"schedule.{k}" in merged:
            sched_kw[k] = cast(merged.pop(f"schedule.{k}"))
    if "schedule.milestones" in merged:
        sched_kw["milestones"] = tuple(
            int(x) for x in merged.pop("schedule.milestones").split(",") if x.strip())
    schedule = LRSchedule(**sched_kw)

    p_schedule = None
    if "p_schedule.decay_epoch" in merged or "p_schedule.new_p" in merged:
        if not ("p_schedule.decay_epoch" in merged and "p_schedule.new_p" in merged):
            raise ValueError("p_schedule needs both decay_epoch and new_p")
        p_schedule = PSchedule(int(merged.pop("p_schedule.decay_epoch")),
                               float(merged.pop("p_schedule.new_p")))

    run_kw: Dict = {}
    for k in _RUN_INT:
        if f"run.{k}" in merged:
            run_kw[k] = int(merged.pop(f"run.{k}"))
    if "run.init_scale" in merged:
        run_kw["init_scale"] = float(merged.pop("run.init_scale"))
    if "run.out" in merged:
        run_kw["output_path"] = merged.pop("run.out")
    if "steps" not in run_kw and "epochs" not in run_kw:
        run_kw["steps"] = 1000

    return ExperimentConfig(optimizer=kind, hp=hp, objective=objective,
                            objective_params=obj_params, schedule=schedule,
                            p_schedule=p_schedule, **run_kw)
