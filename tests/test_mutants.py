"""The mutant lists of tools/mutants.py, MUTANTS and EQUIVALENT, stay
applicable: each edit's old text occurs exactly once in its file, as
`apply` requires.  The lists are imported and no mutant is run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_distinct():
    names = [name for name, *_ in mutants.MUTANTS + mutants.EQUIVALENT]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name, file, old, new", [m[:4] for m in mutants.MUTANTS + mutants.EQUIVALENT],
                         ids=[m[0] for m in mutants.MUTANTS + mutants.EQUIVALENT])
def test_mutant_old_text_occurs_once(name, file, old, new):
    assert old != new
    assert (ROOT / file).read_text().count(old) == 1
