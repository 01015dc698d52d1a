"""One untraced audit batch of the benchmark (bench/child.py) in a fresh
interpreter: the CLI `verify` of a 300-block export, clean and with one bit
flipped, and `trace` lineage queries, all under the harness's reference
slices (a SIGALRM timer in the process that forks the signature pass). The
batch checks every verdict and lineage row itself; none may be wrong."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_audit_batch_has_no_wrong_output(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--root", str(ROOT), "--workload", "audit",
         "--seed", "3", "--index", "0", "--trace", "0", "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    assert lines[-1].startswith("result ")
    result = json.loads(lines[-1].removeprefix("result "))
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["errors"] == []
    assert result["blocks"] == 301
