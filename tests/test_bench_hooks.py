"""The benchmark's traced run wraps gridledger functions by name and reads
their positional arguments (bench/tracer.py). This runs the golden scenario
under those wrappers in a fresh interpreter, so nothing stays patched here,
and checks that the artifacts are unchanged and the hooks saw the calls."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import hashlib, json, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [root + "/src", root + "/bench"]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from gridledger import cli
code = cli.main(["run", root + "/tests/scenarios/sharing.txt", "--seed", "7", "--out", out,
                 "--recorders", "3", "--supervisors", "1"])
hashes = {}
for name in ("chain.txt", "credits.txt", "trace.txt", "metrics.txt"):
    with open(out + "/" + name, "rb") as fh:
        hashes[name] = hashlib.sha256(fh.read()).hexdigest()
calls = {name: f["calls"] for name, f in tracer.summary()["functions"].items()}
print(json.dumps({"code": code, "hashes": hashes, "calls": calls}))
"""


def test_traced_golden_run(tmp_path):
    golden = json.loads((ROOT / "tests" / "fixtures" / "cli_golden.json").read_text())
    assert (golden["scenario"], golden["seed"]) == ("sharing.txt", 7)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["hashes"] == golden["sha256"]
    assert result["calls"]["chain.validate_block"] > 0
