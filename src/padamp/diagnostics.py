"""Executable checks of the optimizer's supporting math.

Covers: the norm-growth gap between plain and momentum descent, the
first-moment rearrangement identity, the second-moment and denominator
bounds (with the empirical running gradient bound C1), learning-rate
schedule assumptions, the running-min convergence tracker, and the run's
telemetry table.

One adaptive group's LEMMA_COLUMNS for a block of k steps, one row per
step, take two halves: full-size passes over (k, d) arrays (_lemma_passes)
leave nine (k,) reductions, and elementwise arithmetic on those
(_lemma_rows) gives the columns. fold_lemmas folds the groups' rows into
the telemetry values.

A TelemetryTable holds a run's telemetry and writes every lemma column.
Every step writes its row to a table its caller built (harness.run builds
one per run); the caller flushes it and reads it as columns(). An adaptive
table takes the steps' lemma inputs and writes the lemma columns of a block
of rows at once, all of one p. Up to LEMMA_BLOCK_ELEMENTS the block holds
the steps' inputs and makes the passes per block; above, each step makes
the passes on 1-row views and the block keeps their reductions, so only
the arithmetic waits for the flush.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._kernels import norm_growth_arrays
from .geometry import _TINY, norm

__all__ = [
    "NormGrowthTrace",
    "NormGrowthColumns",
    "ConvergenceTrace",
    "DiagnosticsReport",
    "SLACK_COLUMNS",
    "LEMMA_COLUMNS",
    "step_columns",
    "TelemetryTable",
    "simulate_norm_growth",
    "validate_schedule",
    "track_convergence",
    "momentum_norm_ratio_limit",
]


class NormGrowthTrace(NamedTuple):
    """One step of the two squared-norm recursions and their growth ratio."""

    t: int
    norm_sq_gd: float
    norm_sq_gdm: float
    ratio: float


@dataclass(frozen=True, eq=False)
class NormGrowthColumns:
    """The norm-growth trace: three read-only float64 columns of length T.

    len(trace) is T, and trace[i] (negative i too) builds step i + 1's
    NormGrowthTrace, whose values equal the columns' bit for bit.
    """

    norm_sq_gd: np.ndarray
    norm_sq_gdm: np.ndarray
    ratio: np.ndarray

    def __post_init__(self):
        for col in (self.norm_sq_gd, self.norm_sq_gdm, self.ratio):
            col.flags.writeable = False

    def __len__(self) -> int:
        return self.ratio.size

    def __getitem__(self, i: int) -> NormGrowthTrace:
        t = range(1, len(self) + 1)[i]  # IndexError outside [-T, T)
        return NormGrowthTrace(t, float(self.norm_sq_gd[t - 1]),
                               float(self.norm_sq_gdm[t - 1]), float(self.ratio[t - 1]))


def momentum_norm_ratio_limit(beta: float) -> float:
    """Asymptotic (momentum growth) / (plain growth) ratio: 1 + 2 beta / (1 - beta)."""
    return 1.0 + 2.0 * beta / (1.0 - beta)


def simulate_norm_growth(
    update_norms_sq: Sequence[float],
    beta: float,
    eta: float,
    theta0_norm_sq: float,
) -> NormGrowthColumns:
    """Iterate both norm recursions exactly; return them and the growth ratio per step.

    Plain descent adds eta^2 u_t per step; the momentum recursion additionally
    adds 2 eta^2 sum_{k<t} beta^(t-k) u_k. The ratio
    (gdm_t - theta0) / (gd_t - theta0) tends to 1 + 2 beta / (1 - beta) when
    the update norms have finite nonzero sum. Each update norm must be finite
    and non-negative, and one must be positive. beta = 0 is allowed and gives
    ratio exactly 1. eta**2 must be a normal float, and the final ratio must
    be finite: a theta0_norm_sq that the growth rounds away against gives
    nan, and a growth past the largest float gives inf or nan.
    """
    u = np.asarray(update_norms_sq, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("update_norms_sq must be a non-empty 1-d sequence")
    lo, hi = np.minimum.reduce(u), np.maximum.reduce(u)  # nan if any is nan
    if not -np.inf < lo <= hi < np.inf:
        i = int(np.flatnonzero(~np.isfinite(u))[0])
        raise ValueError(
            f"update_norms_sq must be finite, got update_norms_sq[{i}]={u[i]}")
    if lo < 0:
        raise ValueError("update norms must be non-negative")
    if not 0 <= beta < 1:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if not 0 <= theta0_norm_sq < np.inf:
        raise ValueError(
            f"theta0_norm_sq must be non-negative and finite, got {theta0_norm_sq}")
    if not np.finfo(np.float64).tiny <= eta * eta < np.inf:
        raise ValueError(f"eta**2 must be a normal float, got eta={eta}")
    if hi == 0.0:  # u is finite and non-negative, so sum(u) == 0 exactly then
        raise ValueError("total update norm is zero; growth ratio undefined")
    # An overflowing growth gives a non-finite final ratio, reported below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gd, gdm, spare = norm_growth_arrays(u, beta, eta, theta0_norm_sq)
        grown = np.subtract(gd[1:], theta0_norm_sq)
        ratio = np.subtract(gdm[1:], theta0_norm_sq, out=spare[1:])
        ratio /= grown
        # gd is an in-order sum of non-negative terms, so grown never
        # decreases and the steps with no growth yet (no ratio) are a prefix
        ratio[:np.searchsorted(grown, 0.0, side="right")] = np.nan
    if not np.isfinite(ratio[-1]):
        raise ValueError(
            f"final growth ratio is {ratio[-1]}: the growth eta**2 * sum(u) = "
            f"{eta * eta * float(u.sum())!r} is lost against theta0_norm_sq="
            f"{theta0_norm_sq} or overflows")
    return NormGrowthColumns(gd[1:], gdm[1:], ratio)


# The lemma-3/4/5 bound slacks, then all eight lemma columns in telemetry order.
SLACK_COLUMNS = ("lemma3_lower", "lemma4_lower", "lemma4_upper", "lemma5_radial",
                 "lemma5_precond_sq", "lemma5_moment_diff")
LEMMA_COLUMNS = ("lemma2_residual", "lemma3_margin", *SLACK_COLUMNS)


@lru_cache(maxsize=64)
def step_columns(names: Tuple[str, ...]) -> Tuple[str, ...]:
    """A step's telemetry columns for groups of these names, in CSV order."""
    return ("t", "epoch", "eta_t", "p_now", "loss", "grad_norm_sq",
            *(f"{name}_{col}" for name in names for col in (
                "param_norm", "cos_sim", "projected", "effective_step_norm")),
            *LEMMA_COLUMNS)


# The lemma inputs a TelemetryTable's block may hold per input array, over
# all groups: a block is LEMMA_BLOCK_ELEMENTS // (total adaptive dim) steps
# high. Below 2 rows the block holds each step's reductions instead,
# _REDUCED_ROWS steps of them.
LEMMA_BLOCK_ELEMENTS = 16384
_REDUCED_ROWS = 256

# The (k,) reductions _lemma_passes writes, one row of its output each, in order.
_REDUCTIONS = ("resid_sq", "m_norm", "v_max", "v_min", "inv_min", "inv_max", "radial",
               "precond_sq", "moment_diff")


def _row_dots(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a[i] . b[i] for each row i of two (k, d) arrays, into the (k,) out.

    matmul takes a stacked (1, d) @ (d, 1) product as a vector dot, so each
    entry equals a[i].dot(b[i]) bit for bit; einsum rounds differently. Its
    result is copied into out: handed out[:, None, None] as its own out, a
    one-row matmul took about 15 us more per call right after d = 1e5
    passes (60 us a quad_d100k step on a 2-vCPU Xeon).
    """
    out[:] = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    return out


def _row_norms(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """norm(x[i]) for each row i of a (k, d) array, bit for bit, into the (k,) out."""
    sq = _row_dots(x, x, out)
    # Rows whose squared norm leaves the normal range (nan included) take
    # norm()'s rescaling.
    if np.minimum.reduce(sq) >= _TINY and np.maximum.reduce(sq) < math.inf:
        return np.sqrt(sq, out=out)
    rescale = np.flatnonzero(~((sq >= _TINY) & (sq < math.inf)))
    np.sqrt(sq, out=out)
    for i in rescale:
        out[i] = norm(x[i])
    return out


def _lemma_passes(m: np.ndarray, m_prev: np.ndarray, v: np.ndarray, g: np.ndarray,
                  beta1t: np.ndarray, eps: float, p: float, theta: np.ndarray,
                  theta_norm: np.ndarray, out: np.ndarray) -> None:
    """The full-size passes of one adaptive group's lemma quantities over k
    steps: writes their (k,) reductions, the _REDUCTIONS in order, to the
    rows of the (9, k) out. Row i of the (k, d) inputs is step i's; its
    reductions are the same bit for bit whatever the other rows hold.

    resid_sq is the squared difference of the two sides of -m = -g + b/(1-b)
    (m - m_prev), which rearranges m = b m_prev + (1-b) g: pure rounding for
    consistent inputs.

    At p = 1/4 it leaves inv_min and inv_max as they are: _lemma_rows takes
    them from v_max and v_min. radial is theta . pre_m / ||theta||, or
    ||pre_m|| at theta = 0, which has no radial direction (||pre_m||
    dominates the inner product with any unit vector). Two (k, d) buffers
    hold every temporary; the comments give the out-of-place form. m -
    m_prev is computed twice on purpose: a third full-size buffer that kept
    it raised the step's heap peak by one array, and after a quad_d100k run
    that could leave megabytes of free heap pinned under a live block, which
    changed what later allocations in the process cost (perfbench's
    host-speed slice ran without its page faults).

    At p = 1/4 the power is two square roots, as in the moment kernel.
    """
    resid_sq, m_norm, v_max, v_min, inv_min, inv_max, radial, precond_sq, moment_diff = out
    coef = beta1t / (1.0 - beta1t)
    buf = np.subtract(m, m_prev)
    buf *= coef[:, None]  # (b / (1 - b)) * (m - m_prev)
    # Rounding is symmetric in sign, so g - x and m - (g - x) are exactly
    # -rhs and -(-m - rhs) for rhs = -g + x, and the squared norm is the same.
    rhs = np.subtract(g, buf)
    np.subtract(m, rhs, out=rhs)
    _row_dots(rhs, rhs, resid_sq)
    _row_norms(m, m_norm)
    np.maximum.reduce(v, axis=1, out=v_max)
    np.minimum.reduce(v, axis=1, out=v_min)
    denom = np.add(v, eps, out=buf)
    if p == 0.25:
        np.sqrt(denom, out=denom)
        np.sqrt(denom, out=denom)
        inv = np.divide(1.0, denom, out=rhs)
    else:
        denom **= p  # (v + eps) ** p
        inv = np.divide(1.0, denom, out=rhs)
        np.minimum.reduce(inv, axis=1, out=inv_min)
        np.maximum.reduce(inv, axis=1, out=inv_max)
    pre_m = np.divide(m, denom, out=denom)
    _row_dots(theta, pre_m, radial)
    if not np.minimum.reduce(theta_norm) > 0:  # a nan norm counts as 0
        theta_norm = theta_norm.copy()
        for i in np.flatnonzero(~(theta_norm > 0)):
            radial[i], theta_norm[i] = math.sqrt(pre_m[i].dot(pre_m[i])), 1.0
    radial /= theta_norm
    buf = np.multiply(g, inv, out=pre_m)
    buf **= 2  # (g * inv) ** 2
    np.add.reduce(buf, axis=1, out=precond_sq)
    np.subtract(m, m_prev, out=buf)
    buf *= inv  # (m - m_prev) * inv
    _row_dots(g, buf, moment_diff)


def _lemma_rows(found: np.ndarray, c1: np.ndarray, eps: float, p: float) -> np.ndarray:
    """The LEMMA_COLUMNS of k steps as a (k, 8) array, from the (9, k)
    reductions _lemma_passes wrote and the (k,) C1 of each step.

    The margin is C1**2 - max(v), with C1**2 from Python's ** (libm's pow,
    which can differ from C1 * C1 by an ulp). sqrt, + and / are correctly
    rounded, hence monotone, so at p = 1/4 min(inv) and max(inv) equal
    1 / sqrt(sqrt(max(v) + eps)) and 1 / sqrt(sqrt(min(v) + eps)) bit for
    bit, and come from the two reductions of v that the margin and
    lemma3_lower take anyway.
    """
    resid_sq, m_norm, v_max, v_min, inv_min, inv_max, radial, precond_sq, moment_diff = found
    c1_sq = c1 * c1
    if p == 0.25:
        # lo, hi, min(inv), max(inv) as rows of one array: 1 / sqrt(sqrt(x + eps))
        ext = np.array([c1_sq, np.zeros_like(c1), v_max, v_min])
        ext += eps
        np.sqrt(ext, out=ext)
        np.sqrt(ext, out=ext)
        lo, hi, inv_min, inv_max = np.divide(1.0, ext, out=ext)
    else:
        # The same array power as inv's: once v + eps rounds to eps, max(inv)
        # equals hi exactly, where a scalar power can differ from it by an ulp.
        ext = np.append(c1_sq + eps, np.full_like(c1, eps))
        ext **= p
        lo, hi = np.divide(1.0, ext, out=ext).reshape(2, -1)
    # Column j is bound[j] - took[j]: a bound less what the rows measured
    # against it, or (the residual, lemma3_lower) a quantity less 0, which
    # keeps its bits.
    zero = np.zeros_like(c1)
    bound = np.array([np.sqrt(resid_sq) / (1.0 + m_norm), [c ** 2 for c in c1.tolist()],
                      v_min, inv_min, hi, c1, c1_sq, 2.0 * c1 * c1])
    took = np.array([zero, v_max, zero, lo, inv_max, radial, precond_sq, moment_diff])
    # The lemma-5 bounds C1 / eps^p, C1^2 / eps^(2p) and 2 C1^2 / eps^p.
    eps_p = eps ** p
    bound[5:] /= [[eps_p], [eps ** (2 * p)], [eps_p]]
    return np.subtract(bound, took, out=bound).T


def fold_lemmas(acc: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Fold one group's (k, 8) lemma rows into acc's, in place; returns acc.

    Each lemma-2 residual becomes max(acc, found) and every other entry
    min(acc, found), as Python's max and min pick them: found replaces acc
    only where it is larger (smaller), so a nan in acc stays and one in
    found does not.
    """
    np.copyto(acc[:, :1], found[:, :1], where=found[:, :1] > acc[:, :1])
    np.copyto(acc[:, 1:], found[:, 1:], where=found[:, 1:] < acc[:, 1:])
    return acc


# A new TelemetryTable's rows; it doubles them whenever they fill.
TABLE_ROWS = 256


def is_int_column(name: str) -> bool:
    """t, epoch and the projected flags are int64; every other column is float64."""
    return name in ("t", "epoch") or name.endswith("_projected")


class TelemetryTable:
    """A run's telemetry: a float64 row per step in step_columns and then
    eval_grad_norm_sq (CSV order), `rows` high and doubling when full, nan
    where nothing wrote. len() counts the completed rows and columns() reads
    them. groups lists the (name, dim) pairs, in order, of the steps that
    may write here.

    Given eps (an adaptive run's hp.epsilon; None for sgdm), the table
    writes the lemma columns of its last pending rows a block at a time: when
    the block fills (in add_row), when a step's p differs from the block's
    (in add_lemmas) and at flush(), so the block holds one p. Before it
    writes its row, an adaptive step hands over each group's lemma inputs
    (add_lemmas). Up to LEMMA_BLOCK_ELEMENTS the block copies the inputs and
    makes the full-size passes at the flush; above, add_lemmas makes them at
    once on 1-row views and the block keeps their nine reductions, for
    _REDUCED_ROWS steps.
    """

    def __init__(self, groups: Sequence, eps: Optional[float] = None, rows: int = TABLE_ROWS):
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self.groups = [(g.name, g.dim) for g in groups]
        self.names = step_columns(tuple(g.name for g in groups)) + ("eval_grad_norm_sq",)
        self.data = np.full((rows, len(self.names)), math.nan)
        self.n = 0
        # The rows before `done` have their lemma columns; sgdm's block is 0 rows.
        self.done = self.height = 0
        self.eps = eps
        # The p of the pending rows' steps.
        self.p = None
        if eps is not None:
            height = LEMMA_BLOCK_ELEMENTS // sum(g.dim for g in groups)
            hold_inputs = height >= 2
            if not hold_inputs:
                height = _REDUCED_ROWS
            self.height = height
            # Per group: the rows of m, m_prev, v, g and theta (None when the
            # block holds reductions); of beta1_t, C1 and ||theta||; and of
            # the reductions.
            self.blocks = {g.name: (np.empty((5, height, g.dim)) if hold_inputs else None,
                                    np.empty((3, height)), np.empty((len(_REDUCTIONS), height)))
                           for g in groups}

    def add_lemmas(self, name: str, p: float, m: np.ndarray, m_prev: np.ndarray,
                   v: np.ndarray, g: np.ndarray, theta: np.ndarray, beta1t: float,
                   c1: float, theta_norm: float) -> None:
        """Take one group's lemma inputs for the row add_row writes next: the
        step's p, the post-step moments, the gradient they saw (after coupled
        decay), the pre-step weights, beta1_t, C1 and ||theta||."""
        if p != self.p:
            # A p_schedule decay: the pending rows keep the p they were taken under.
            self._flush()
            self.p = p
        inputs, scalars, found = self.blocks[name]
        i = self.n - self.done
        scalars[0, i] = beta1t
        scalars[1, i] = c1
        scalars[2, i] = theta_norm
        if inputs is None:
            row = slice(i, i + 1)
            _lemma_passes(m[None], m_prev[None], v[None], g[None], scalars[0, row],
                          self.eps, p, theta[None], scalars[2, row], found[:, row])
        else:
            inputs[0, i] = m
            inputs[1, i] = m_prev
            inputs[2, i] = v
            inputs[3, i] = g
            inputs[4, i] = theta

    def add_row(self, values: Sequence) -> None:
        """Fill the next row's first columns; a full lemma block flushes here."""
        n = self.n
        if n == len(self.data):
            self.data = np.concatenate([self.data, np.full_like(self.data, math.nan)])
        self.data[n, :len(values)] = values
        self.n = n = n + 1
        if n - self.done == self.height:
            self._flush()

    def flush(self) -> None:
        """_flush under over="ignore", invalid="ignore", whatever numpy's state."""
        with np.errstate(over="ignore", invalid="ignore"):
            self._flush()

    def _flush(self) -> None:
        """Fold the pending rows' lemma columns over groups, under the block's p."""
        a, n = self.done, self.n
        if self.eps is None or a == n:
            return
        self.done = n
        k, folded = n - a, None
        for inputs, scalars, found in self.blocks.values():
            beta1t, c1, theta_norm = scalars[:, :k]
            if inputs is not None:
                m, m_prev, v, g, theta = inputs[:, :k]
                _lemma_passes(m, m_prev, v, g, beta1t, self.eps, self.p, theta,
                              theta_norm, found[:, :k])
            lemmas = _lemma_rows(found[:, :k], c1, self.eps, self.p)
            # The largest residual over groups, and the smallest of the rest.
            folded = lemmas if folded is None else fold_lemmas(folded, lemmas)
        # The lemma columns come last but one.
        self.data[a:n, -1 - len(LEMMA_COLUMNS):-1] = folded

    def __len__(self) -> int:
        return self.n

    def columns(self) -> Dict[str, np.ndarray]:
        """Read-only float64 views of the rows' columns; int64 copies where is_int_column."""
        data = self.data[:self.n]
        data.flags.writeable = False
        return {name: col.astype(np.int64) if is_int_column(name) else col
                for name, col in zip(self.names, data.T)}


class LemmaMonitor:
    """A name only: the telemetry table writes the lemma columns. perfbench's
    layer trace still patches harness.LemmaMonitor, so the name stays."""


def validate_schedule(family: str, c: float, a: Optional[float] = None) -> bool:
    """Whether a learning-rate family meets the step-size series assumptions.

    Power law c/t^a needs 1/2 < a <= 1 so the series diverges while the
    squared series converges. Constant and piecewise-constant-decay rates
    keep eta bounded away from zero, so the squared series diverges; they
    give False but remain runnable.
    """
    if c <= 0:
        raise ValueError(f"schedule coefficient must be positive, got {c}")
    if family == "power":
        if a is None or a <= 0:
            raise ValueError("power-law schedule needs a positive exponent")
        return 0.5 < a <= 1.0
    if family in ("constant", "piecewise"):
        return False
    raise ValueError(f"unknown schedule family {family!r}")


@dataclass
class ConvergenceTrace:
    """Running minimum of the checkpoint estimates of ``||grad f||^2`` (run
    documents their bias for dataset objectives)."""

    running_min: np.ndarray

    @property
    def final_min(self) -> float:
        return float(self.running_min[-1]) if len(self.running_min) else float("nan")


def track_convergence(estimates: Sequence[float]) -> ConvergenceTrace:
    """Running minimum over a sequence of checkpoint estimates."""
    return ConvergenceTrace(np.minimum.accumulate(np.asarray(estimates, dtype=np.float64)))


@dataclass
class DiagnosticsReport:
    """One row per check: name, measured value, pass flag."""

    rows: List[tuple] = field(default_factory=list)

    def add(self, name: str, value: float, passed: bool) -> None:
        self.rows.append((name, float(value), bool(passed)))

    @property
    def all_passed(self) -> bool:
        return all(p for _, _, p in self.rows)

    def to_csv(self, path) -> None:
        import csv as _csv

        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh, lineterminator="\n")
            w.writerow(["check", "value", "passed"])
            for name, value, passed in self.rows:
                w.writerow([name, repr(value), int(passed)])

    def __str__(self) -> str:
        lines = []
        for name, value, passed in self.rows:
            lines.append(f"{'PASS' if passed else 'FAIL'}  {name} = {value:.6g}")
        return "\n".join(lines)
