"""The behaviour matrix gives the entries pinned in matrix_reference.json.

tests/record_matrix.py defines the matrix and rewrites the file; a change
that moves an entry re-records it and names what moved.
"""

import os

import numpy as np
import pytest

from record_matrix import (
    configs,
    fingerprint_moves,
    load_reference,
    numeric_fingerprint,
    run_entry,
)


def test_behaviour_matrix_matches_its_recording(tmp_path):
    fingerprint, pinned = load_reference()
    now = numeric_fingerprint()
    assert sorted(fingerprint) == sorted(now)
    got = {key: run_entry(mapping, str(tmp_path / "run.csv")) for key, mapping in configs()}
    assert sorted(got) == sorted(pinned)
    moved = [f"{key}: {field}" for key in pinned for field in pinned[key]
             if got[key].get(field) != pinned[key][field]]
    # Another numpy, BLAS kernel or SIMD target can round other bits: say so
    # in one line. A differing fingerprint under which no entry moved (say
    # OPENBLAS_CORETYPE=Zen, whose kernels round as Haswell's) passes.
    differs = fingerprint_moves(fingerprint, now)
    if moved and differs:
        pytest.fail(f"{len(moved)} entry fields moved under another numeric fingerprint: "
                    + "; ".join(differs), pytrace=False)
    assert not moved, "\n".join(moved)
    assert sum("abort" in e for e in pinned.values()) == 5


def test_the_numeric_pin_is_in_force():
    # conftest.py imports numeric_pin before numpy loads, so numpy runs none
    # of the SIMD targets NPY_DISABLE_CPU_FEATURES names.
    umath = getattr(np, "_core", None) or np.core
    features = umath._multiarray_umath.__cpu_features__
    disabled = [f for f in os.environ["NPY_DISABLE_CPU_FEATURES"].split(",") if f]
    assert disabled and not any(features.get(f) for f in disabled)
