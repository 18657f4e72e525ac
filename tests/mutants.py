"""Committed mutants: faults in src/padamp that named tests must catch.

Each entry of MUTANTS names a file under src/padamp, an exact source text
that occurs there once, its replacement, and the test ids that must fail
with the replacement in place. tests/test_mutants.py checks, within tier-1,
that every text still matches once; a refactor that moves one re-anchors or
retires that mutant.

    PYTHONPATH=src python tests/mutants.py [NAME ...]

copies src/ into a temporary directory for each mutant (every one, or those
named), applies it, and runs its tests in a subprocess with the tier-1
command's environment, the copy first on PYTHONPATH. It prints one line per
mutant and exits 1 if any mutant survives: a listed test id with no failing
case. A pytest run that ends in anything but failed tests (a collection or
usage error) is an error, exit 2.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/padamp
    text: str
    replacement: str
    tests: Tuple[str, ...]


MUTANTS = (
    # The lemma-2 residual fold takes found on a tie: -0.0 then replaces 0.0.
    Mutant("fold_ge", "diagnostics.py",
           "where=found[:, :1] > acc[:, :1]", "where=found[:, :1] >= acc[:, :1]",
           ("tests/test_diagnostics.py::test_fold_lemmas_on_every_pair_of_special_values",)),
    # The no-growth prefix stops before the steps whose growth is exactly 0.
    Mutant("no_growth_side_left", "diagnostics.py",
           'np.searchsorted(grown, 0.0, side="right")', 'np.searchsorted(grown, 0.0, side="left")',
           ("tests/test_diagnostics.py::test_norm_growth_no_growth_prefix_is_the_compare_mask",)),
    # The lane scan weighs each block by beta^8 where a block is 16 steps.
    Mutant("scan_weight_beta8", "_kernels.py",
           "for _ in range(LANES.bit_length() - 1):", "for _ in range(LANES.bit_length() - 2):",
           ("tests/test_kernels.py::"
            "test_norm_growth_lanes_match_step_loops_at_every_block_boundary",)),
    # The quadratic's zero test by value: a b of -0.0 drops its linear term.
    Mutant("linear_by_value", "objectives.py",
           "self._linear = bool(b.view(np.int64).any())", "self._linear = bool(b.any())",
           ("tests/test_objectives.py::test_quadratic_matches_its_explicit_expressions_bitwise",)),
    # An error the step raises no longer says at which step the run stopped.
    Mutant("step_outside_try", "harness.py",
           "                params = step_fn(state, params, grads, eta_t, p_now, "
           "table=table).new_params\n"
           "            except ArithmeticError as exc:\n"
           "                # An objective or a step that overflows says so; this says where.\n"
           '                raise type(exc)(f"{exc} at step {t}") from exc\n',
           "            except ArithmeticError as exc:\n"
           "                # An objective or a step that overflows says so; this says where.\n"
           '                raise type(exc)(f"{exc} at step {t}") from exc\n'
           "            params = step_fn(state, params, grads, eta_t, p_now, "
           "table=table).new_params\n",
           ("tests/test_harness.py::test_step_failure_names_the_step",)),
    # Constant CSV columns by value: a column of 0.0 and -0.0 writes 0.0 throughout.
    Mutant("texts_by_value", "harness.py",
           "bits = v.view(np.int64)", "bits = v",
           ("tests/test_harness.py::test_write_telemetry_writes_each_entrys_repr",)),
    # The step leaves numpy's error state to its caller.
    Mutant("step_without_errstate", "optimizers.py",
           '@np.errstate(over="ignore", invalid="ignore")\ndef _step(', "def _step(",
           ("tests/test_optimizers.py::"
            "test_direct_caller_batch_fills_lemmas_under_any_error_state",
            "tests/test_optimizers.py::"
            "test_overflowing_lemma_slack_is_non_finite_without_a_warning")),
    # A lemma flush folds a block under its first row's p across a p_schedule decay.
    Mutant("flush_ignores_p_cut", "diagnostics.py",
           "cuts = [0, *(np.flatnonzero(p[1:] != p[:-1]) + 1).tolist(), n - a]",
           "cuts = [0, n - a]",
           ("tests/test_harness.py::test_batched_run_writes_what_unbatched_steps_write",)),
    # Under coupled decay C1 bounds the raw gradient, not the one the moments see.
    Mutant("c1_raw_gradient", "optimizers.py",
           "state.c1[name] = max(state.c1[name], c1)",
           "state.c1[name] = max(state.c1[name], gnorm)",
           ("tests/test_harness.py::test_coupled_decay_c1_bounds_the_decayed_gradient",
            "tests/test_optimizers.py::test_coupled_decay_c1_is_the_decayed_gradient_norm")),
    # Small groups get the reductions block and large ones the inputs block.
    Mutant("hold_mode_inverted", "diagnostics.py",
           "hold_inputs = reduced_rows is None and height >= 2",
           "hold_inputs = reduced_rows is None and height < 2",
           ("tests/test_harness.py::test_lemma_batch_holds_inputs_up_to_the_element_budget",)),
)


def source(mutant: Mutant, src: Path = SRC) -> str:
    return (src / "padamp" / mutant.file).read_text()


def apply(mutant: Mutant, src: Path) -> None:
    """Write the mutant into the padamp package under src; its text must occur once."""
    path = src / "padamp" / mutant.file
    text = path.read_text()
    count = text.count(mutant.text)
    if count != 1:
        raise ValueError(f"mutant {mutant.name}: its text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.text, mutant.replacement))


def run_mutant(mutant: Mutant) -> Tuple[str, str]:
    """('killed' | 'survived' | 'error', detail) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="padamp-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return "error", f"pytest exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    failed = re.findall(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.M)
    spared = [t for t in mutant.tests
              if not any(f == t or f.startswith((t + "[", t + "::")) for f in failed)]
    if spared:
        return "survived", "no failing case in " + ", ".join(spared)
    return "killed", f"{len(failed)} failed"


def main(argv) -> int:
    names = set(argv)
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    worst = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        verdict, detail = run_mutant(mutant)
        print(f"{verdict:8s} {mutant.name}: {detail}", flush=True)
        worst = max(worst, {"killed": 0, "survived": 1, "error": 2}[verdict])
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
