"""The kept mutant list (``tests/mutants.py``) still applies to the source:
every mutant's old text occurs exactly once in its module and the mutated
module compiles, names are unique, every reason is stated, and every
module of the package has a mutant."""

from collections import Counter
from pathlib import Path

import pytest

from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treeradon"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_applies_once_and_compiles(mutant):
    source = (PACKAGE / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
    compile(mutant.apply(source), mutant.file, "exec")


def test_names_are_unique_and_reasons_stated():
    assert [name for name, n in Counter(m.name for m in MUTANTS).items() if n > 1] == []
    assert all(mutant.reason.strip() for mutant in MUTANTS)


def test_every_module_has_a_mutant():
    assert {path.name for path in PACKAGE.glob("*.py")} == {mutant.file for mutant in MUTANTS}
