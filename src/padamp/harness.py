"""Experiment configuration, schedules, the run loop, sweeps, and CSV output.

A run is fully determined by its config and seed: dataset construction,
parameter init, batch order, and evaluation batches draw from four
independent child RNGs spawned from the config seed, and CSV floats are
written with repr() so reruns are byte-identical; a column whose entries all
have one bit pattern is formatted once.
"""

from __future__ import annotations

import csv
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import HyperParams, ParamGroup, new_state
from .diagnostics import (
    LEMMA_COLUMNS,
    ConvergenceTrace,
    DiagnosticsReport,
    LemmaMonitor,  # noqa: F401  unused; perfbench's layer trace patches it here
    TelemetryTable,
    TABLE_ROWS,
    is_int_column,
    step_columns,
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
    "OBJECTIVES",
    "build_objective",
    "schedule_lr",
    "schedule_p",
    "run",
    "sweep",
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
    """Learning-rate shape around hp.eta0. power is step-indexed (eta0 / t^a);
    piecewise is epoch-indexed (multiply by factor at each milestone epoch)."""

    family: str = "constant"
    a: float = 0.75
    milestones: Tuple[int, ...] = (50, 100, 150)
    factor: float = 0.1

    def __post_init__(self):
        if self.family not in ("constant", "power", "piecewise"):
            raise ValueError(f"unknown schedule family {self.family!r}")
        if not 0 < self.a < math.inf:
            raise ValueError(
                f"power-law exponent a must be positive and finite, got {self.a}")
        if not 0 < self.factor <= 1:
            raise ValueError(f"decay factor must lie in (0, 1], got {self.factor}")
        if any(m <= 0 for m in self.milestones) or list(self.milestones) != sorted(
            set(self.milestones)
        ):
            raise ValueError("milestones must be strictly increasing positive epochs")


def schedule_lr(t: int, schedule: LRSchedule, eta0: float) -> float:
    """Rate at index t (>= 1) from base rate eta0: the step, or for piecewise the epoch."""
    if t < 1:
        raise ValueError(f"schedule index must be >= 1, got {t}")
    if schedule.family == "constant":
        return eta0
    if schedule.family == "power":
        return eta0 / float(t) ** schedule.a
    n_decays = sum(1 for m in schedule.milestones if t >= m)
    return eta0 * schedule.factor ** n_decays


@dataclass(frozen=True)
class PSchedule:
    """Single-decay schedule for the adaptivity power p."""

    decay_epoch: int
    new_p: float

    def __post_init__(self):
        if self.decay_epoch < 1:
            raise ValueError(f"decay_epoch must be >= 1, got {self.decay_epoch}")
        if not 0 < self.new_p <= 0.5:
            raise ValueError(f"new_p must lie in (0, 1/2], got {self.new_p}")


def schedule_p(epoch: int, p_schedule: Optional[PSchedule], base_p: float) -> float:
    """p in effect at the given epoch: base_p before the decay epoch, new_p from it on."""
    if p_schedule is None or epoch < p_schedule.decay_epoch:
        return base_p
    return p_schedule.new_p


# Each objective's factory and its config keys, objective.<key>, with their
# defaults; a key's value is parsed by its default's type. data_seed is the
# factory's seed; its 0 here only gives the type, since it defaults to the
# run's data seed.
OBJECTIVES: Dict[str, Tuple[Callable[..., Objective], Dict[str, object]]] = {
    "quadratic": (quadratic, {"dim": 20, "condition": 1.0}),
    "rosenbrock": (rosenbrock, {}),
    "scale_invariant": (scale_invariant_objective, {"dim": 64}),
    "logistic": (logistic_regression,
                 {"d": 10, "n": 512, "data_seed": 0, "separation": 4.0}),
    "tiny_mlp": (tiny_mlp, {"d_in": 10, "hidden": 16, "classes": 2, "n": 512,
                            "data_seed": 0, "separation": 4.0}),
}


def _objective_defaults(name: str, params: Dict) -> Dict[str, object]:
    """The named objective's key defaults; an unknown name or key is an error."""
    if name not in OBJECTIVES:
        raise ValueError(f"unknown objective name {name!r}; known: {tuple(OBJECTIVES)}")
    defaults = OBJECTIVES[name][1]
    unknown = sorted(set(params) - set(defaults) - {"name"})
    if unknown:
        raise ValueError(f"objective {name!r} takes no parameter {', '.join(unknown)}")
    return defaults


def build_objective(name: str, params: Dict, data_seed: int) -> Objective:
    """The named objective: its key defaults, with data_seed as the dataset
    seed, overridden by params (values are cast to the default's type)."""
    defaults = _objective_defaults(name, params)
    kw = {k: type(d)(params.get(k, data_seed if k == "data_seed" else d))
          for k, d in defaults.items()}
    if "data_seed" in kw:
        kw["seed"] = kw.pop("data_seed")
        if kw["seed"] < 0:
            raise ValueError(f"data_seed must be >= 0, got {kw['seed']}")
    return OBJECTIVES[name][0](**kw)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one training run; hp defaults to table 1's."""

    optimizer: OptimizerKind = OptimizerKind.PADAMP
    hp: Optional[HyperParams] = None
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
        object.__setattr__(self, "hp", self.hp or table1_defaults(self.optimizer))
        defaults = _objective_defaults(self.objective, self.objective_params)
        if (self.steps is None) == (self.epochs is None):
            raise ValueError("exactly one of steps or epochs must set the budget")
        data_seed = int(self.objective_params.get("data_seed", 0))
        for label, value, low in (("steps budget", self.steps, 1),
                                  ("epochs budget", self.epochs, 1),
                                  ("seed", self.seed, 0), ("data_seed", data_seed, 0)):
            if value is not None and value < low:
                raise ValueError(f"{label} must be >= {low}, got {value}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.objective == "tiny_mlp":
            # Batch normalization needs two examples in every batch, the
            # last batch of an epoch included.
            n = int(self.objective_params.get("n", defaults["n"]))
            if self.batch_size < 2 or n % self.batch_size == 1:
                raise ValueError(
                    f"tiny_mlp needs at least 2 examples per batch; run.batch_size="
                    f"{self.batch_size} with objective.n={n} leaves a batch of 1")
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
    records: TelemetryTable
    report: DiagnosticsReport
    convergence: ConvergenceTrace
    summary: Dict[str, float]
    final_params: List[ParamGroup]


def _grad_norm_sq(grads: Dict[str, np.ndarray]) -> float:
    # The eval window's total gradient; an overflow gives inf, which
    # check_telemetry's eval_grad_norm_sq_valid row fails.
    return float(sum(np.sum(g * g) for g in grads.values()))


@np.errstate(over="ignore", invalid="ignore")
def run(config: ExperimentConfig) -> RunResult:
    """Execute one run; returns telemetry, diagnostics, and the convergence trace.

    Writes the telemetry CSV when config.output_path is set. Aborts with the
    step index if the loss goes non-finite or the objective or the step raises
    an ArithmeticError (an overflow either reports); an aborted run writes the CSV
    of the steps it completed (its header alone if none), then re-raises. Overflow is
    silent for the whole run: the loss check, the step and check_telemetry report it.
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

    dataset = objective.dataset
    schedule, eta0 = config.schedule, config.hp.eta0
    piecewise = schedule.family == "piecewise"
    p_schedule, base_p = config.p_schedule, config.hp.p
    epoch_len = (config.steps_per_epoch if dataset is None
                 else math.ceil(dataset.n / config.batch_size))
    budget = config.steps if config.steps is not None else config.epochs * epoch_len
    # sgdm has no lemma quantities.
    table = TelemetryTable(params, None if config.optimizer == OptimizerKind.SGDM
                           else config.hp.epsilon, min(budget, TABLE_ROWS))
    batch_iter = iter(())

    try:
        for t in range(1, budget + 1):
            epoch = (t - 1) // epoch_len + 1
            eta_t = schedule_lr(epoch if piecewise else t, schedule, eta0)
            p_now = schedule_p(epoch, p_schedule, base_p)

            if dataset is not None:
                batch = next(batch_iter, None)
                if batch is None:
                    batch_iter = dataset.epoch_batches(config.batch_size, batch_rng)
                    batch = next(batch_iter)
            else:
                batch = None

            try:
                loss = objective.eval(params, batch)
                if not math.isfinite(loss):
                    raise RuntimeError(f"non-finite loss {loss!r} at step {t}; aborting")
                grads = objective.grad(params, batch)

                estimate = math.nan  # off the eval window
                at_eval = t % config.eval_every == 0 or t == budget
                if at_eval and dataset is not None:
                    # Square the window's mean gradient: its bias
                    # tr(Sigma)/(batch_size * eval_window) shrinks with the
                    # window, while a mean of squared norms keeps
                    # tr(Sigma)/batch_size.
                    total = None
                    for _ in range(config.eval_window):
                        idx = dataset.sample(config.batch_size, eval_rng)
                        g = objective.grad(params, idx)
                        total = g if total is None else {k: total[k] + g[k]
                                                         for k in total}
                    estimate = _grad_norm_sq(total) / config.eval_window ** 2
                params = step_fn(state, params, grads, eta_t, p_now, table=table)
            except ArithmeticError as exc:
                # An objective or a step that overflows says so; this says where.
                raise type(exc)(f"{exc} at step {t}") from exc
            # The step's row: step_columns puts epoch at 1, loss at 4 and
            # grad_norm_sq, the estimate without a dataset, at 5.
            row = table.data[table.n - 1]
            row[1] = epoch
            row[4] = loss
            row[-1] = row[5] if at_eval and dataset is None else estimate
        table.flush()
    except Exception:
        # A diverging run keeps the steps it completed, lemma columns
        # included; one that completed none writes the header alone.
        table.flush()
        if config.output_path is not None:
            write_telemetry(table.columns(), config.output_path)
        raise

    cols = table.columns()
    estimates = cols["eval_grad_norm_sq"]
    trace = track_convergence(estimates[~np.isnan(estimates)])
    report = check_telemetry(cols)
    verdict = validate_schedule(schedule.family, eta0,
                                schedule.a if schedule.family == "power" else None)
    # Informational: theorem-mode schedules are flagged, not failed.
    report.add("schedule_theorem_assumptions", float(verdict), True)
    final_acc = objective.accuracy(params)
    summary = {
        "final_loss": float(cols["loss"][-1]),
        "final_accuracy": float("nan") if final_acc is None else final_acc,
        "min_grad_norm_sq": trace.final_min,
        "wall_time_s": time.perf_counter() - started,
    }
    result = RunResult(config, table, report, trace, summary, params)
    if config.output_path is not None:
        write_telemetry(cols, config.output_path)
    return result


# Sweep-axis shorthands for config keys. A sweep value is one scalar, so the
# output path and the milestone tuple are not axes.
_AXIS_ALIASES = {"p": "hp.p", "lr": "schedule.eta0", "optimizer": "optimizer.kind",
                 "seed": "run.seed", "batch_size": "run.batch_size",
                 "steps": "run.steps", "epochs": "run.epochs",
                 "init_scale": "run.init_scale"}
_NOT_AXES = ("run.out", "schedule.milestones")


def sweep(mapping: Dict[str, str], axis: str, values: Sequence,
          out_dir: Optional[str] = None) -> List[RunResult]:
    """One run per value, each built by build_config(mapping, {axis key: value}),
    which is what `padamp run --set key=value` runs. Configs and objectives
    are all built before the first run. Results are returned in value order;
    the summary CSV is sorted by final loss (stable, so ties keep value order)."""
    key = _AXIS_ALIASES.get(axis, axis)
    if key not in _PARSERS or key in _NOT_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    texts = [str(v) for v in values]
    if not texts:
        raise ValueError("sweep needs at least one value")
    configs = []
    for i, text in enumerate(texts):
        overrides = {key: text}
        if out_dir is not None:
            overrides["run.out"] = os.path.join(out_dir, f"run_{i:03d}.csv")
        configs.append(build_config(mapping, overrides))
    # The factories check objective values (condition=-5) before any run writes.
    for cfg in configs:
        build_objective(cfg.objective, cfg.objective_params, cfg.seed)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    results = [run(cfg) for cfg in configs]
    if out_dir is not None:
        write_sweep_summary(axis, texts, results, os.path.join(out_dir, "summary.csv"))
    return results


def write_sweep_summary(axis: str, values: Sequence[str], results: Sequence[RunResult],
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
                values[i],
                repr(s["final_loss"]),
                repr(s["final_accuracy"]),
                repr(s["min_grad_norm_sq"]),
                int(results[i].report.all_passed),
            ])


def _texts(v: np.ndarray):
    """Each entry's repr; formatted once if all share one 64-bit pattern (0.0 is not -0.0)."""
    if v.size and v.itemsize == 8:
        bits = v.view(np.int64)
        if (bits == bits[0]).all():
            return repeat(repr(v[0].item()), v.size)
    return map(repr, v.tolist())


def write_telemetry(cols: Dict[str, np.ndarray], path: str) -> None:
    """TelemetryTable.columns() as CSV; floats are written with repr(), so
    reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(cols)
        # A number's repr needs no quoting, so this is what csv writes.
        rows = zip(*map(_texts, cols.values()))
        fh.writelines(",".join(row) + "\n" for row in rows)


def _read_float(text: str, name: str, row: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"telemetry column {name!r}, data row {row}: "
                         f"{text!r} is not a number") from None


def read_telemetry(path: str) -> Dict[str, np.ndarray]:
    """Telemetry CSV back as TelemetryTable.columns(). A header naming a column
    twice, a row whose field count differs from the header's, a non-numeric
    value, or a non-whole one in an int64 column is an error naming the column,
    the data row, or both."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"empty telemetry CSV {path}: no header line")
        for j, name in enumerate(header):
            if name in header[:j]:
                raise ValueError(f"telemetry CSV {path}: the header repeats column {name!r}")
        rows = []
        for i, row in enumerate(reader, 1):
            if len(row) != len(header):
                raise ValueError(f"telemetry CSV {path}, data row {i}: {len(row)} "
                                 f"fields, the header has {len(header)}")
            rows.append([_read_float(x, name, i) for name, x in zip(header, row)])
    data = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    cols = {name: data[:, j] for j, name in enumerate(header)}
    for name in filter(is_int_column, cols):
        x = cols[name]
        bad = np.flatnonzero((x != np.trunc(x)) | ~(np.abs(x) < 2.0 ** 63))
        if bad.size:
            raise ValueError(f"telemetry column {name!r}, data row {bad[0] + 1}: "
                             f"{float(x[bad[0]])!r} is not a whole int64 value")
        cols[name] = x.astype(np.int64)
    return cols


def _add_max_increase(report: DiagnosticsReport, name: str, x: np.ndarray) -> None:
    """Row passing when x never rises; its value is the largest rise, or 0.
    A nan or an infinity in x fails the row with value nan."""
    if not np.isfinite(x).all():
        report.add(name, float("nan"), False)
        return
    rise = float(np.max(np.diff(x))) if x.size > 1 else 0.0
    report.add(name, max(rise, 0.0), rise <= 0.0)


# The columns every telemetry table holds besides the per-group ones.
_STEP_COLUMNS = step_columns(()) + ("eval_grad_norm_sq",)


def check_telemetry(cols: Dict[str, np.ndarray]) -> DiagnosticsReport:
    """Every invariant a telemetry table can show, one report row each.

    Takes a run's RunResult.records.columns() or read_telemetry of its CSV. A
    lemma column that is all nan (sgdm) gets no row; in any other, a nan or
    an infinity fails the row.
    """
    if all(v.size == 0 for v in cols.values()):
        raise ValueError("telemetry table has no rows to check")
    missing = [c for c in _STEP_COLUMNS if c not in cols]
    if missing:
        raise ValueError(f"not a telemetry table: missing columns {', '.join(missing)}")
    report = DiagnosticsReport()
    t = cols["t"]
    report.add("t_strictly_increasing", float(np.min(np.diff(t))) if t.size > 1 else 1.0,
               t.size < 2 or bool(np.all(np.diff(t) > 0)))
    epoch = cols["epoch"]
    report.add("epoch_non_decreasing", 0.0,
               epoch.size < 2 or bool(np.all(np.diff(epoch) >= 0)))
    _add_max_increase(report, "eta_max_increase", cols["eta_t"])
    # sgdm writes nan on every row; an adaptive run's p lies in (0, 1/2], so a
    # nan among adaptive entries is out of range too.
    p = cols["p_now"]
    if np.isnan(p).all():
        p = p[:0]
    n_out = int(np.count_nonzero(~((p > 0.0) & (p <= 0.5))))
    report.add("p_now_in_range", float(n_out), n_out == 0)
    _add_max_increase(report, "p_max_increase", p)

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

    # The lemma-2 row bounds its column's max, every other lemma row its min.
    names = ("lemma2_max_scaled_residual", "lemma3_upper_min",
             *(f"{c}_min" for c in LEMMA_COLUMNS[2:]))
    for c, name in zip(LEMMA_COLUMNS, names):
        x = cols[c]
        if np.isnan(x).all():
            continue
        value = float(x.max() if c == "lemma2_residual" else x.min())
        ok = value < 1e-10 if c == "lemma2_residual" else value >= 0.0
        report.add(name, value, ok and bool(np.isfinite(x).all()))
    # nan marks a step off the eval window; every other estimate is a finite
    # squared norm.
    est = cols["eval_grad_norm_sq"]
    n_invalid = int(np.count_nonzero((est < 0.0) | np.isinf(est)))
    report.add("eval_grad_norm_sq_valid", float(n_invalid), n_invalid == 0)
    return report


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_ints(s: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


# Every config key and the parser of its string value. Every HyperParams field
# is the key hp.<field>, parsed by its annotation, but the base rate hp.eta0 is
# schedule.eta0; every objective key is objective.<key>, typed by OBJECTIVES.
_PARSERS = {
    "optimizer.kind": OptimizerKind, "objective.name": str, "schedule.family": str,
    "schedule.eta0": float, "schedule.a": float, "schedule.milestones": _parse_ints,
    "schedule.factor": float, "p_schedule.decay_epoch": int,
    "p_schedule.new_p": float, "run.init_scale": float, "run.out": str,
    **{f"hp.{f.name}": {"float": float, "str": str, "bool": _parse_bool}[f.type]
       for f in fields(HyperParams) if f.name != "eta0"},
    **{f"objective.{k}": type(d)
       for _, defaults in OBJECTIVES.values() for k, d in defaults.items()},
    **{f"run.{k}": int for k in ("steps", "epochs", "batch_size", "seed",
                                 "eval_window", "eval_every", "steps_per_epoch")},
}
CONFIG_KEYS = list(_PARSERS)


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

    sections: Dict[str, Dict] = defaultdict(dict)
    for key, text in merged.items():
        section, _, name = ("hp.eta0" if key == "schedule.eta0" else key).partition(".")
        try:
            sections[section][name] = _PARSERS[key](text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    kind = sections["optimizer"].get("kind", OptimizerKind.PADAMP)
    hp = table1_defaults(kind, **sections["hp"])
    obj_params = sections["objective"]
    objective = obj_params.pop("name", "quadratic")
    schedule = LRSchedule(**sections["schedule"])

    p_kw = sections["p_schedule"]
    p_schedule = None
    if p_kw:
        if len(p_kw) != 2:
            raise ValueError("p_schedule needs both decay_epoch and new_p")
        p_schedule = PSchedule(**p_kw)

    run_kw = sections["run"]
    if "out" in run_kw:
        run_kw["output_path"] = run_kw.pop("out")
    if "steps" not in run_kw and "epochs" not in run_kw:
        run_kw["steps"] = 1000

    return ExperimentConfig(optimizer=kind, hp=hp, objective=objective,
                            objective_params=obj_params, schedule=schedule,
                            p_schedule=p_schedule, **run_kw)
