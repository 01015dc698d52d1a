"""A failing Hypothesis test reads as a failure: pytest, under this
project's configuration (pyproject.toml), exits 1 and prints the
falsifying example. Hypothesis's report hook imports libcst, if it is
installed, to suggest an ``@example``; a warning filter that turns libcst's
deprecation warning into an error would end the run with an internal error
(exit 3) and no example."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_failing_property_exits_one_with_its_falsifying_example():
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "tests/fixtures/failing_property.py"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout[-2000:]
    assert "Falsifying example: test_every_integer_is_small(" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
