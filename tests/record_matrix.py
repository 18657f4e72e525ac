"""Record the behaviour matrix: what 120 runs give, pinned in matrix_reference.json.

The matrix is the six optimizers, times four objectives (the quadratic at
dim 20 and condition 100, logistic, tiny_mlp, scale_invariant), times five
hyperparameter variants, each run for 200 steps at seed 3. Each entry, keyed
by its dotted config keys, holds the abort message of a run that aborts, or
the telemetry CSV's SHA-256, the SHA-256 of repr(report.rows), and the bits
of final_loss, final_accuracy and min_grad_norm_sq. test_matrix.py re-runs
the matrix and compares. Both run under numeric_pin, which this script
imports before numpy.

    PYTHONPATH=src python tests/record_matrix.py [--csv-dir DIR] [--before DIR] [--dry-run]

rewrites the file and prints every entry field that moved. --csv-dir keeps
the CSVs; --before names a directory of CSVs kept from an earlier recording
(for instance one made with the parent commit's src on PYTHONPATH and
--dry-run), and then each moved CSV column is printed with its largest
absolute and relative change over the matrix. Entries that went between 0
and nonzero, or between finite and non-finite, have no relative change and
are counted apart. A moved *_projected column is a projection decision that
changed, not rounding: it prints as FLIP, the file is left as it was, and
the exit status is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

import numeric_pin  # noqa: F401  (sets the environment before numpy loads)
import numpy as np

from padamp.harness import build_config, read_telemetry, run

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "matrix_reference.json")

OPTIMIZERS = ("padamp", "adamp", "padam", "adam", "amsgrad", "sgdm")
OBJECTIVES = (
    {"objective.name": "quadratic", "objective.dim": "20", "objective.condition": "100"},
    {"objective.name": "logistic"},
    {"objective.name": "tiny_mlp"},
    {"objective.name": "scale_invariant"},
)
VARIANTS = (
    {},
    {"hp.wd_mode": "coupled"},
    {"hp.delta": "0"},
    {"hp.trigger_lr_mode": "base", "hp.eps_mode": "post"},
    {"hp.lam": "0.99", "hp.wd_skip_projected": "false"},
)
RUN = {"run.steps": "200", "run.seed": "3"}
SCALARS = ("final_loss", "final_accuracy", "min_grad_norm_sq")


def configs() -> List[Tuple[str, Dict[str, str]]]:
    """(key, build_config mapping) per matrix entry; the key is the mapping's
    `key=value` pairs, space-separated, without the run keys."""
    out = []
    for kind in OPTIMIZERS:
        for objective in OBJECTIVES:
            for variant in VARIANTS:
                mapping = {"optimizer.kind": kind, **objective, **variant}
                key = " ".join(f"{k}={v}" for k, v in mapping.items())
                out.append((key, {**mapping, **RUN}))
    return out


def _bits(x: float) -> str:
    return np.float64(x).tobytes().hex()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_name(key: str) -> str:
    return key.replace(" ", "__") + ".csv"


def run_entry(mapping: Dict[str, str], csv_path: str) -> Dict[str, str]:
    """One matrix entry; the run writes its telemetry to csv_path."""
    try:
        result = run(build_config(mapping, {"run.out": csv_path}))
    except (ArithmeticError, RuntimeError) as exc:
        return {"abort": str(exc)}
    with open(csv_path, "rb") as fh:
        entry = {"csv_sha256": _sha256(fh.read()),
                 "rows_sha256": _sha256(repr(result.report.rows).encode())}
    entry.update((k, _bits(result.summary[k])) for k in SCALARS)
    return entry


def run_matrix(csv_dir: str) -> Dict[str, Dict[str, str]]:
    return {key: run_entry(mapping, os.path.join(csv_dir, csv_name(key)))
            for key, mapping in configs()}


class Change:
    """How one column (or scalar) moved between two recordings, over every
    entry: the largest absolute change where both sides are finite, the
    largest relative change where both are also nonzero, the number of
    entries that went between 0 and nonzero, and the number that went
    between finite and non-finite. Entries whose bits differ only as nan
    payloads or signed zeros have not moved."""

    def __init__(self):
        self.abs = self.rel = 0.0
        self.zero_flips = self.finite_flips = 0

    def add(self, old: np.ndarray, new: np.ndarray) -> None:
        old, new = old.astype(np.float64), new.astype(np.float64)
        moved = (old != new) & ~(np.isnan(old) & np.isnan(new))
        finite = np.isfinite(old) & np.isfinite(new)
        self.finite_flips += int(np.count_nonzero(moved & ~finite))
        moved &= finite
        zero = (old == 0) | (new == 0)
        self.zero_flips += int(np.count_nonzero(moved & zero))
        if moved.any():
            delta = np.abs(new[moved] - old[moved])
            self.abs = max(self.abs, float(delta.max()))
        moved &= ~zero
        if moved.any():
            rel = np.abs(new[moved] - old[moved]) / np.abs(old[moved])
            self.rel = max(self.rel, float(rel.max()))

    def __str__(self) -> str:
        text = f"largest absolute change {self.abs:.3g}, relative {self.rel:.3g}"
        if self.zero_flips:
            text += f"; {self.zero_flips} between 0 and nonzero"
        if self.finite_flips:
            text += f"; {self.finite_flips} between finite and non-finite"
        return text


def _scalar(entry: Dict[str, str], field: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(entry[field]), np.float64)


def report_moves(old: Dict[str, Dict[str, str]], new: Dict[str, Dict[str, str]],
                 csv_dir: str, before_dir: Optional[str] = None) -> Tuple[List[str], int]:
    """One line per moved entry field, then one per moved CSV column with its
    Change over the matrix (with before_dir); and the number of FLIP lines,
    one per entry whose *_projected column moved."""
    lines, flips = [], []
    columns: Dict[str, Change] = {}
    reshaped = set()
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{'added' if a is None else 'removed'}: {key}")
            continue
        for field in sorted(set(a) | set(b)):
            if a.get(field) == b.get(field):
                continue
            line = f"moved: {key}: {field}"
            if field in SCALARS and field in a and field in b:
                change = Change()
                change.add(_scalar(a, field), _scalar(b, field))
                line += f" ({change})"
            lines.append(line)
        if before_dir is not None and a.get("csv_sha256") != b.get("csv_sha256") \
                and "abort" not in a and "abort" not in b:
            was = read_telemetry(os.path.join(before_dir, csv_name(key)))
            now = read_telemetry(os.path.join(csv_dir, csv_name(key)))
            for name in sorted(set(was) | set(now)):
                if name not in was or name not in now or was[name].size != now[name].size:
                    reshaped.add(name)
                elif was[name].tobytes() != now[name].tobytes():
                    if name.endswith("_projected"):
                        flips.append(f"FLIP: {key}: {name}")
                    columns.setdefault(name, Change()).add(was[name], now[name])
    lines += [f"column {name}: added, removed or resized" for name in sorted(reshaped)]
    lines += [f"column {name}: {change}" for name, change in sorted(columns.items())]
    return lines + flips, len(flips)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--csv-dir", help="keep each run's CSV in this directory")
    parser.add_argument("--before", help="CSV directory of an earlier recording")
    parser.add_argument("--dry-run", action="store_true",
                        help="print what moved without rewriting the file")
    args = parser.parse_args(argv)
    old = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            old = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        csv_dir = args.csv_dir or tmp
        os.makedirs(csv_dir, exist_ok=True)
        new = run_matrix(csv_dir)
        lines, n_flips = report_moves(old, new, csv_dir, args.before)
    print("\n".join(lines) if lines else "no entry moved")
    n_abort = sum("abort" in e for e in new.values())
    print(f"{len(new)} entries, {n_abort} aborted")
    if n_flips:
        print(f"{n_flips} projection decisions flipped; {REFERENCE} left as it was")
        return 1
    if not args.dry_run:
        with open(REFERENCE, "w") as fh:
            json.dump(new, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
