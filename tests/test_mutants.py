"""The mutant table stays in step with the code and the tests.

Running the mutants takes a subprocess per row (``python
tests/mutants.py``, its own CI step); this only checks that every row
still applies and names tests that exist.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_to_the_code_and_names_tests(mutant):
    source = (ROOT / "src" / "lambek" / f"{mutant.module}.py").read_text()
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text(), test
