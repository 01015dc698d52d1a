"""The mutant catalog (`tests/mutants.py`) stays appliable: each mutant's
text occurs exactly once in its file, and the tests it names exist. The
catalog itself runs in its own CI job."""

import pytest

from mutants import CATALOG, ROOT, mutated


@pytest.mark.parametrize("mutant", CATALOG, ids=[m.name for m in CATALOG])
def test_mutant_applies(mutant):
    assert mutated(mutant) != (ROOT / mutant.path).read_text()
    assert all((ROOT / path).is_file() for path in mutant.tests)
