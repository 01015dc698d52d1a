"""The mutant catalog: hand-written faults that the test suite must catch.

Each mutant replaces one exact piece of text in one source file, and names
the test files expected to kill it. The runner copies the tree to a
temporary directory, applies one mutant there, and runs the named test
files with ``-x``. Only a test that fails kills a mutant (pytest exits 1);
a mutant whose tests still pass has survived (0), and any other exit, such
as a mutant that breaks the import (2) or tests that collect nothing (5),
is an error: it shows nothing about the tests.

    PYTHONPATH=src python tests/mutants.py            # every mutant
    PYTHONPATH=src python tests/mutants.py u64-bound  # the named ones

It prints one line per mutant and exits 1 unless every one was killed.
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
RECORD = "src/gridledger/record_protocol.py"
CLI = "src/gridledger/cli.py"
SIGPASS = "src/gridledger/sigpass.py"
SIMNET = "src/gridledger/simnet.py"

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
    Mutant("tuple-from-generator", CODEC, "return tuple([self.item.read(reader) for _ in range(n)])",
           "return tuple(self.item.read(reader) for _ in range(n))", ("tests/test_readers.py",)),
    # the chain's and the credit rules' checks
    Mutant("timestamp-regression", CHAIN, "header.timestamp_tick < prev_block.header.timestamp_tick",
           "header.timestamp_tick <= prev_block.header.timestamp_tick", ("tests/test_chain.py",)),
    # what a signature covers: each layout's one declaration, and the vote
    # triple that reads a vote's bytes as a verdict on the block it judges
    Mutant("signed-field-dropped", CHAIN,
           'covers=("prev_block_digest", "timestamp_tick", "merkle_root", "recorder_public_key")',
           'covers=("prev_block_digest", "merkle_root", "recorder_public_key")', ("tests/test_chain.py",)),
    Mutant("majority-rule", CREDIT, "return sum(verdicts) >= QUORUM", "return sum(verdicts) > 0",
           ("tests/test_credit.py",)),
    Mutant("epoch-increment", CREDIT, "epoch=assignment.epoch + 1", "epoch=assignment.epoch",
           ("tests/test_credit.py",)),
    Mutant("dissent-penalty", CREDIT, "1 if agreed else -1", "1 if agreed else 0", ("tests/test_credit.py",)),
    Mutant("assessment-tie-break", CREDIT, "key=lambda nid: (-scores[nid], nid)",
           "key=lambda nid: (-scores[nid], -nid)", ("tests/test_credit.py",)),
    Mutant("duty-round-robin", CREDIT, "assignment.recorders[round_index % len(assignment.recorders)]",
           "assignment.recorders[0]", ("tests/test_credit.py",)),
    # the round and intake rules of `credit.apply_round` and `credit.apply_intake`
    Mutant("rejected-block-penalty", CREDIT, "-1 if erroneous else 1", "0 if erroneous else 1",
           ("tests/test_credit.py", "tests/test_record_protocol.py")),
    Mutant("quarantine-penalty", CREDIT, "1 if correct else -1", "1 if correct else 0",
           ("tests/test_credit.py", "tests/test_record_protocol.py")),
    Mutant("intake-blame", CREDIT, '_BLAMED_AT_INTAKE = frozenset({"signature-invalid", "digest-mismatch"})',
           '_BLAMED_AT_INTAKE = frozenset({"signature-invalid", "digest-mismatch", "decryption-failure"})',
           ("tests/test_credit.py",)),
    Mutant("skipped-round-uncounted", CREDIT, "rounds = state.rounds + 1",
           "rounds = state.rounds + bool(outcome.votes)", ("tests/test_credit.py",)),
    # the round's committee and its tally
    Mutant("committee-one-short", RECORD, "rng.sample(pool, VALIDATOR_COUNT - 1)",
           "rng.sample(pool, VALIDATOR_COUNT - 2)", ("tests/test_record_protocol.py",)),
    Mutant("one-flag-quarantines", RECORD, "flags[i] >= QUORUM", "flags[i] >= 1", ("tests/test_record_protocol.py",)),
    Mutant("vote-on-another-block", RECORD,
           "    if not signed.startswith(block_digest):\n        signed = block_digest + signed[len(block_digest):]\n", "",
           ("tests/test_record_protocol.py",)),
    # the one opener of a signed, sealed payload, for upload and share intake alike
    Mutant("opener-skips-digest", RECORD,
           "if crypto.digest(payload) != payload_digest:\n        raise Rejected(RejectReason.DIGEST_MISMATCH)\n", "",
           ("tests/test_record_protocol.py", "tests/test_share_protocol.py")),
    # how a CLI command stops, and what it reads before it answers
    Mutant("error-line-on-stdout", CLI, 'print(f"error: {line}", file=sys.stderr)', 'print(f"error: {line}")',
           ("tests/test_cli.py",)),
    Mutant("export-drain-dropped", CLI, "deque(blocks, maxlen=0)", "pass", ("tests/test_readers.py",)),
    # the signature pass: where a failure lies in the stream, which failure
    # names the verdict, the batches a lost worker leaves, and the tag that
    # would read as clean
    Mutant("stream-failing-offset", SIGPASS,
           "len(batch))\n        self._failing = min(self._failing, (lo + found,",
           "len(batch))\n        self._failing = min(self._failing, (found,", ("tests/test_sigpass.py",)),
    Mutant("first-answered-tag", SIGPASS, "popleft()\n            self._failing = min(self._failing, ",
           "popleft()\n            self._failing = self._failing if self.failed else (", ("tests/test_sigpass.py",)),
    Mutant("lost-batch-dropped", SIGPASS, "self._verify(lo, triples)", "pass", ("tests/test_sigpass.py",)),
    Mutant("none-tag-accepted", SIGPASS, "if tag is None:\n            raise", "if False:\n            raise",
           ("tests/test_sigpass.py",)),
    # the simulated wire: what a delivery hands the receiver's handler
    Mutant("tamper-not-handed-on", SIMNET, "msg, value = msg._replace(tampered_by=fault), _tampered(value, pos)",
           "msg = msg._replace(tampered_by=fault)", ("tests/test_simnet.py", "tests/test_simnet_properties.py")),
    Mutant("crashed-receiver-handles", SIMNET, '"dropped=crashed")\n            return\n', '"dropped=crashed")\n',
           ("tests/test_simnet.py", "tests/test_simnet_properties.py")),
)


def mutated(mutant: Mutant, root: Path = ROOT) -> str:
    """The text of ``mutant.path`` with the mutant applied."""
    text = (root / mutant.path).read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def outcome(mutant: Mutant) -> str:
    """``killed`` if one of ``mutant``'s tests fails on a copy of the tree
    that holds it, ``survived`` if they all pass, and ``error`` if pytest
    exits any other way."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_results")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=ignore)
        (copy / mutant.path).write_text(mutated(mutant, copy))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        # Only the exit status is read, so no terminal report is made: a
        # warning raised while reporting a failing example (Hypothesis
        # imports libcst for one, if it is installed) cannot turn a kill
        # into an internal error (exit 3) under filterwarnings=error.
        command = [sys.executable, "-m", "pytest", "-x", "-p", "no:terminal", "-p", "no:cacheprovider", *mutant.tests]
        status = subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode
    return {0: "survived", 1: "killed"}.get(status, "error")


def main(names: list[str]) -> int:
    chosen = [m for m in CATALOG if not names or m.name in names]
    unkilled = []
    for mutant in chosen:
        verdict = outcome(mutant)
        if verdict != "killed":
            unkilled.append(mutant.name)
        print(f"{verdict:<8}    {mutant.name} ({', '.join(mutant.tests)})", flush=True)
    print(f"{len(unkilled)} of {len(chosen)} mutants survived or could not be run", *unkilled)
    return 1 if unkilled else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
