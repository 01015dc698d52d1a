"""Each `gridledger` module imports on its own, as a program that names
only that module would import it: an import cycle between two modules
breaks only the import that enters it from one side."""

import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridledger"

# imports each module named on the command line with no `gridledger` module loaded
PROBE = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "gridledger"]:
        del sys.modules[loaded]
    importlib.import_module(name)
    print(name)
"""


def test_each_module_imports_on_its_own():
    modules = sorted(f"gridledger.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert len(modules) > 10
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *modules],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == modules
