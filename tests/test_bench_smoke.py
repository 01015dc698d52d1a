"""Untraced batches of the benchmark (bench/child.py), each in a fresh
interpreter, under the harness's reference slices (a SIGALRM timer in the
process that runs the batch). Each batch checks its own outputs; none may be
wrong.

- audit: the CLI `verify` of a 300-block export, clean and with one bit
  flipped (the process forks the signature pass), and `trace` lineage
  queries.
- ingest: the 150-node network under a skewed upload stream with shares and
  detectable faults; the batch checks each upload, share and fault.
- idle: the 150-node network over 200 empty block intervals. After the timed
  run the batch reads the report's trace, with one commit-notice line per
  committed block, and its tap, which the report expands from its commit
  notices to one entry per live node when it is read.

The last test runs bench/bench.py itself once, from the root of the
checkout: its golden gate against tests/fixtures/cli_golden.json, a short
idle run, and its final JSON line."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_batch(workload: str, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--root", str(ROOT), "--workload", workload,
         "--seed", "3", "--index", "0", "--trace", "0", "--work", str(work)],
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
    return result


def test_audit_batch_has_no_wrong_output(tmp_path):
    assert run_batch("audit", tmp_path)["blocks"] == 301


def write_scenario(workload: str, work: Path) -> None:
    """Write the scenario a simulator batch reads, as bench.py does, from a
    fresh interpreter, so no bench module is imported here."""
    code = f"import sys, workloads; sys.stdout.write(workloads.{workload}_inputs(3).scenario)"
    scenario = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "bench", capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    (work / "scenario.txt").write_text(scenario, encoding="utf-8")


def test_ingest_batch_has_no_wrong_output(tmp_path):
    write_scenario("ingest", tmp_path)
    result = run_batch("ingest", tmp_path)
    assert result["blocks"] == 7
    assert result["records"] == 109


def test_idle_batch_has_no_wrong_output(tmp_path):
    write_scenario("idle", tmp_path)
    result = run_batch("idle", tmp_path)
    assert result["blocks"] == 200
    assert result["sim_counts"]["trace_lines"] == 1_820
    assert result["sim_counts"]["tap_entries"] == 31_200


def test_bench_entry_point_reports_end_to_end_metrics():
    # writes only to the checkout's .bench_results/, the default --results
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", "idle", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {"blocks_per_s", "peak_rss_mb", "setup_s"} <= result["metrics"].keys()
