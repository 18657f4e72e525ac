"""The CI workflow names tests by id; each id must still collect.

The workflow's OPENBLAS_CORETYPE=Zen step runs a list of test ids. A test
renamed or deleted without its id would fail only on the CI runner, so this
collects every id the workflow's pytest commands name, as that step would.
The workflow is read as text: the CI job installs no YAML parser.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

_RUN_KEY = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")


def run_commands(workflow: str):
    """The shell commands of the workflow's run keys, shell comments dropped:
    an inline value or a folded (>) block is one command, a literal (|)
    block one per line."""
    commands, lines = [], workflow.splitlines()
    for i, line in enumerate(lines):
        match = _RUN_KEY.match(line)
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if value[:1] not in (">", "|"):
            commands.append(value)
            continue
        body = []
        for text in lines[i + 1:]:
            if text.strip() and len(text) - len(text.lstrip()) <= indent:
                break
            if text.strip() and not text.strip().startswith("#"):
                body.append(text.strip())
        commands += [" ".join(body)] if value[0] == ">" else body
    return commands


def pytest_ids(workflow: str):
    """The test files and ids that the workflow's `python -m pytest` commands name."""
    ids = []
    for command in run_commands(workflow):
        _, pytest, args = command.partition("python -m pytest")
        if pytest:
            ids += re.findall(r"tests/[\w/]+\.py(?:::\w+)?", args)
    return ids


def test_every_test_id_in_the_workflow_collects():
    ids = pytest_ids(WORKFLOW.read_text())
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


def test_ids_come_only_from_pytest_commands():
    # A comment, a shell comment or a step that is not pytest may name a
    # file under tests/ that is no test module.
    text = WORKFLOW.read_text()
    extra = ("      # tests/mutants.py holds the committed mutants.\n"
             "      - run: python tests/mutants.py fold_ge\n"
             "      - run: |\n"
             "          # python -m pytest tests/mutants.py\n"
             "          python tests/mutants.py\n")
    assert pytest_ids(text + extra) == pytest_ids(text)
    assert "tests/mutants.py" in re.findall(r"tests/[\w/]+\.py", text + extra)
    # The byte-gate step's ids, as a folded block over several lines.
    assert {"tests/test_matrix.py",
            "tests/test_harness.py::test_batched_run_writes_what_unbatched_steps_write",
            "tests/test_harness.py::test_aborted_batched_run_writes_what_unbatched_steps_write",
            "tests/test_diagnostics.py::test_group_lemmas_rows_match_one_row_calls_bitwise",
            } <= set(pytest_ids(text))
