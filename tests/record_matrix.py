"""Record the behaviour matrix: what 120 runs give, pinned in matrix_reference.json.

The matrix is the six optimizers, times four objectives (the quadratic at
dim 20 and condition 100, logistic, tiny_mlp, scale_invariant), times five
hyperparameter variants, each run for 200 steps at seed 3. Each entry, keyed
by its dotted config keys, holds the abort message of a run that aborts, or
the telemetry CSV's SHA-256, the SHA-256 of repr(report.rows), and the bits
of final_loss, final_accuracy and min_grad_norm_sq. test_matrix.py re-runs
the matrix and compares.

    PYTHONPATH=src python tests/record_matrix.py [--csv-dir DIR] [--before DIR] [--dry-run]

rewrites the file and prints every entry field that moved. --csv-dir keeps
the CSVs; --before names a directory of CSVs kept from an earlier recording
(for instance one made with the parent commit's src on PYTHONPATH and
--dry-run), and then each moved CSV column is printed with its largest
relative change over the matrix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

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


def _rel_change(old: np.ndarray, new: np.ndarray) -> float:
    """Largest |new - old| / |old| over entries whose bits differ; inf where
    only one side is finite or nan, or old is 0."""
    if old.tobytes() == new.tobytes():
        return 0.0
    old, new = old.astype(np.float64), new.astype(np.float64)
    moved = (old != new) & ~(np.isnan(old) & np.isnan(new))
    if not moved.any():  # only nan payloads or signed zeros differ
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(new[moved] - old[moved]) / np.abs(old[moved])
    return float(np.max(np.where(np.isnan(rel), np.inf, rel)))


def report_moves(old: Dict[str, Dict[str, str]], new: Dict[str, Dict[str, str]],
                 csv_dir: str, before_dir: Optional[str] = None) -> List[str]:
    """One line per moved entry field, then one per moved CSV column with its
    largest relative change (with before_dir)."""
    lines = []
    columns: Dict[str, float] = {}
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
                x, y = (np.frombuffer(bytes.fromhex(e[field]), np.float64) for e in (a, b))
                line += f" (relative change {_rel_change(x, y):.3g})"
            lines.append(line)
        if before_dir is not None and a.get("csv_sha256") != b.get("csv_sha256") \
                and "abort" not in a and "abort" not in b:
            was = read_telemetry(os.path.join(before_dir, csv_name(key)))
            now = read_telemetry(os.path.join(csv_dir, csv_name(key)))
            for name in sorted(set(was) | set(now)):
                if name not in was or name not in now or was[name].size != now[name].size:
                    columns[name] = float("inf")
                elif was[name].tobytes() != now[name].tobytes():
                    change = _rel_change(was[name], now[name])
                    columns[name] = max(columns.get(name, 0.0), change)
    lines += [f"column {name}: largest relative change {change:.3g}"
              for name, change in sorted(columns.items())]
    return lines


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
        lines = report_moves(old, new, csv_dir, args.before)
    print("\n".join(lines) if lines else "no entry moved")
    n_abort = sum("abort" in e for e in new.values())
    print(f"{len(new)} entries, {n_abort} aborted")
    if not args.dry_run:
        with open(REFERENCE, "w") as fh:
            json.dump(new, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
