"""Every mutant of ``tools/mutants.py`` still applies to ``src/``: its old
text occurs exactly once in its file. Whether the mutants are caught is
checked by running the tool, ``python3 tools/mutants.py``, which runs each
mutant's tests on a mutated copy."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import mutants  # noqa: E402


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_old_text_occurs_once_in_src(name):
    mutant = mutants.MUTANTS[name]
    assert mutant.file.startswith("src/")
    assert mutants.occurrences(mutant) == 1, f"{name}: update its old text in tools/mutants.py"
