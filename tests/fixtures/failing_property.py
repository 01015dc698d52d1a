"""A property that fails, run by `tests/test_failure_report.py` in its own
pytest: its failure must be reported as a test failure, not an internal
error. The suite itself does not collect it: its name does not start
with ``test_``."""

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_every_integer_is_small(n):
    assert n < 10
