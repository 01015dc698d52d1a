"""The mutant catalog: hand-written faults that the test suite must catch.

Each mutant replaces one exact piece of text in one source file, and names
the test files expected to kill it. The runner copies the tree to a
temporary directory, applies one mutant there, and runs the named test
files with ``-x``; a mutant whose tests still pass has survived.

    PYTHONPATH=src python tests/mutants.py            # every mutant
    PYTHONPATH=src python tests/mutants.py u64-bound  # the named ones

It prints one line per mutant and exits 1 if any survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in ``path``
    new: str
    tests: tuple[str, ...]


CODEC = "src/gridledger/codec.py"
CHAIN = "src/gridledger/chain.py"
CREDIT = "src/gridledger/credit.py"

CATALOG = (
    # the declared layouts' field kinds and their reader
    Mutant("u64-bound", CODEC, "if not 0 <= value < 1 << self.bits:", "if not 0 <= value <= 1 << self.bits:",
           ("tests/test_chain.py",)),
    Mutant("text-accepts-empty", CODEC, "if not 0 < n <= self.max_len:", "if not 0 <= n <= self.max_len:",
           ("tests/test_layouts.py", "tests/test_chain.py")),
    Mutant("fixed-width-unchecked", CODEC, "if len(value) != self.size:", "if len(value) > self.size:",
           ("tests/test_layouts.py", "tests/test_chain.py")),
    Mutant("trailing-bytes-dropped", CODEC, "if self._pos != len(self._data):", "if self._pos > len(self._data):",
           ("tests/test_chain.py",)),
    Mutant("utf8-check-dropped", CODEC, 'return data.decode("utf-8")', 'return data.decode("utf-8", "replace")',
           ("tests/test_layouts.py", "tests/test_chain.py")),
    # the chain's and the credit rules' checks
    Mutant("timestamp-regression", CHAIN, "header.timestamp_tick < prev_block.header.timestamp_tick",
           "header.timestamp_tick <= prev_block.header.timestamp_tick", ("tests/test_chain.py",)),
    Mutant("majority-rule", CREDIT, "majority_ok = ok_count * 2 > len(votes)", "majority_ok = ok_count > 0",
           ("tests/test_credit.py",)),
    Mutant("epoch-increment", CREDIT, "epoch=assignment.epoch + 1", "epoch=assignment.epoch",
           ("tests/test_credit.py",)),
    Mutant("dissent-penalty", CREDIT, "1 if agreed else -1", "1 if agreed else 0", ("tests/test_credit.py",)),
    Mutant("assessment-tie-break", CREDIT, "key=lambda p: (-p.assessment, p.node_id)",
           "key=lambda p: (-p.assessment, -p.node_id)", ("tests/test_credit.py",)),
    Mutant("duty-round-robin", CREDIT, "assignment.recorders[round_index % len(assignment.recorders)]",
           "assignment.recorders[0]", ("tests/test_credit.py",)),
)


def mutated(mutant: Mutant, root: Path = ROOT) -> str:
    """The text of ``mutant.path`` with the mutant applied."""
    text = (root / mutant.path).read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def survives(mutant: Mutant) -> bool:
    """Whether ``mutant``'s tests pass on a copy of the tree that holds it."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_results")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=ignore)
        (copy / mutant.path).write_text(mutated(mutant, copy))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode == 0


def main(names: list[str]) -> int:
    chosen = [m for m in CATALOG if not names or m.name in names]
    survivors = []
    for mutant in chosen:
        alive = survives(mutant)
        if alive:
            survivors.append(mutant.name)
        print(f"{'SURVIVED' if alive else 'killed  '}    {mutant.name} ({', '.join(mutant.tests)})", flush=True)
    print(f"{len(survivors)} of {len(chosen)} mutants survived", *survivors)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
