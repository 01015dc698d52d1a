"""The mutant catalog (`tests/mutants.py`) stays appliable: each mutant's
text occurs exactly once in its file, and the tests it names exist; and its
runner counts only a failing test as a kill. The catalog itself runs in its
own CI job."""

import pytest

from mutants import CATALOG, CREDIT, ROOT, Mutant, mutated, outcome


@pytest.mark.parametrize("mutant", CATALOG, ids=[m.name for m in CATALOG])
def test_mutant_applies(mutant):
    assert mutated(mutant) != (ROOT / mutant.path).read_text()
    assert all((ROOT / path).is_file() for path in mutant.tests)


@pytest.mark.parametrize(
    "mutant",
    [
        # the mutated module no longer imports: pytest exits 2
        Mutant("syntax-error", CREDIT, "def majority(", "def majority((", ("tests/test_credit.py",)),
        # the tests collect nothing: pytest exits 5
        Mutant("no-tests", CREDIT, "def majority(", "def majority(", ("tests/scenarios",)),
    ],
    ids=["breaks-the-import", "collects-nothing"],
)
def test_a_mutant_no_test_fails_on_is_not_killed(mutant):
    assert outcome(mutant) == "error"
