#!/usr/bin/env python3
"""Record each harness workload's final_loss and final_accuracy per seed.

The benchmark checks every run against these values. Re-record only when a
workload definition in workloads.py changes, never to make a run pass.

Usage: python3 perfbench/record_reference.py [--seeds 256]
"""

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from padamp.harness import build_config, run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=256, help="record seeds 0..N-1")
    args = ap.parse_args()
    table = {}
    for name in workloads.HARNESS:
        table[name] = {}
        for seed in range(args.seeds):
            summary = run(build_config({}, workloads.overrides(name, seed))).summary
            acc = summary["final_accuracy"]
            table[name][str(seed)] = [summary["final_loss"], None if acc != acc else acc]
        print(f"{name}: {args.seeds} seeds", file=sys.stderr)
    ref = {
        "tolerance": {"final_loss_rel": 1e-9, "final_accuracy_abs": 1e-12},
        "workloads": table,
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
