"""The committed mutants (tests/mutants.py) still fit the source and the tests.

Running them takes minutes and is its own CI step; this checks only that
every mutant's text occurs once in its file and that every test it names is
still defined, so a refactor that moves either is seen in tier-1.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, source


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_mutant_matches_its_source_once(mutant):
    assert mutant.text != mutant.replacement
    assert source(mutant).count(mutant.text) == 1
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test_id
