"""The behaviour matrix gives the entries pinned in matrix_reference.json.

tests/record_matrix.py defines the matrix and rewrites the file; a change
that moves an entry re-records it and names what moved.
"""

import json

from record_matrix import REFERENCE, configs, run_entry


def test_behaviour_matrix_matches_its_recording(tmp_path):
    with open(REFERENCE) as fh:
        pinned = json.load(fh)
    got = {key: run_entry(mapping, str(tmp_path / "run.csv")) for key, mapping in configs()}
    assert sorted(got) == sorted(pinned)
    moved = [f"{key}: {field}" for key in pinned for field in pinned[key]
             if got[key].get(field) != pinned[key][field]]
    assert not moved, "\n".join(moved)
    assert sum("abort" in e for e in pinned.values()) == 5
