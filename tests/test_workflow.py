"""The CI workflow names tests by id; each id must still collect.

The workflow's OPENBLAS_CORETYPE=Zen step runs a list of test ids. A test
renamed or deleted without its id would fail only on the CI runner, so this
collects every id the workflow names, as that step would.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_every_test_id_in_the_workflow_collects():
    ids = re.findall(r"tests/[\w/]+\.py(?:::\w+)?", WORKFLOW.read_text())
    assert len(ids) >= 6
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *ids],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = proc.stdout.splitlines()
    for test_id in ids:
        assert any(line == test_id or line.startswith((test_id + "[", test_id + "::"))
                   for line in collected), test_id
