"""gridledger benchmark: one workload, one seed, one run.

    python3 bench/bench.py --workload ingest --seed 3 --seconds 40 --trace 0

Run from the root of a checkout. The workloads (see bench/README.md):

- ingest: a 150-node, 101/20 network taking a steady, skewed upload stream
  with shares and a light fault schedule; `simnet.run` plus rendering.
- idle: the same network with no uploads for 200 block intervals.
- audit: `gridledger verify` and `gridledger trace` in a closed loop over a
  generated 300-block export.

Before measuring, the correctness gate reruns tests/scenarios/sharing.txt at
seed 7 and compares the four artifacts with tests/fixtures/cli_golden.json.
Each batch then runs in a fresh interpreter (bench/child.py) until
``--seconds`` have passed, and the run reports medians over batches. With
``--trace 1`` untraced and traced batches alternate: the traced ones give
the per-layer metrics, the pair gives the tracing overhead, and their
artifacts must be byte-identical.

Every batch interleaves short reference slices with its work
(calibrate.py), and every time the run reports is program time scaled to
the reference speed, so that the host's speed phases cancel out. The
unscaled values are printed beside them and kept in the result file.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (`end_to_end` untraced, `per_layer`
traced). The full record, with the environment, input sizes and artifact
hashes, goes to .bench_results/<workload>-seed<seed>-trace<t>.json. Any
failed check exits 1 without printing metrics; a checkout without the
gridledger sources exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("ingest", "idle", "audit")
MIN_BATCHES = {0: 3, 1: 2}
RUN_LIMIT_S = 150  # stop starting batches here, so a run ends well inside 180 s
# units of the printed metrics that BENCHMARK.json does not list
EXTRA_UNITS = {
    "records_per_s": "1/s", "verify_blocks_per_s": "1/s", "lineage_ms.p50": "ms", "lineage_ms.p90": "ms",
    "ops_failed_frac": "frac",
    "ops_attempted": "count", "ops_failed": "count", "lineage_samples": "count", "verify_samples": "count",
}


class BenchError(Exception):
    """A check failed; the run prints no metrics."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- environment and gate ------------------------------------------------------

def environment(root: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    import cryptography

    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def golden_gate(root: Path, work: Path) -> dict:
    """Rerun the pinned desk scenario and compare with the golden hashes."""
    from gridledger import cli

    golden = json.loads((root / "tests" / "fixtures" / "cli_golden.json").read_text())
    out_dir = work / "golden"
    argv = [
        "run", str(root / "tests" / "scenarios" / golden["scenario"]), "--seed", str(golden["seed"]),
        "--out", str(out_dir), "--recorders", "3", "--supervisors", "1",
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise BenchError(f"golden gate: gridledger run exited {code}")
    hashes = {name: _sha256((out_dir / name).read_bytes()) for name in golden["sha256"]}
    if hashes != golden["sha256"]:
        bad = sorted(n for n in hashes if hashes[n] != golden["sha256"][n])
        raise BenchError(f"golden gate: {', '.join(bad)} differ from tests/fixtures/cli_golden.json")
    return hashes


def tamper_upload_probe() -> dict:
    """Untimed probe of a known defect, reported beside every ingest result
    (not as an operation: the timed workloads are ones on which no
    operation fails): `fault tamper-in-flight` at the recorder that
    receives an upload envelope should end with the envelope rejected.
    `Sim._tamper_message` raises AttributeError here instead (an upload
    message carries a (flow, envelope) tuple)."""
    from gridledger import simnet

    sim = simnet.new_sim(simnet.SimConfig(seed=7, r_max=3, s_max=1), workloads.TAMPER_UPLOAD_PROBE)
    try:
        report = simnet.run(sim)
    except Exception as exc:  # noqa: BLE001  (any crash is the failure being counted)
        return {"ok": False, "outcome": f"{type(exc).__name__}: {exc}"}
    outcome = report.fault_outcomes[0].outcome
    return {"ok": "rejected=" in outcome, "outcome": outcome}


# --- batches -----------------------------------------------------------------

def run_batch(root: Path, work: Path, workload: str, seed: int, index: int, traced: bool, budget: float) -> dict:
    """One child process; returns its result plus the set-up time measured
    from process start to its ``ready`` line."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--root", str(root), "--workload", workload,
        "--seed", str(seed), "--index", str(index), "--trace", str(int(traced)), "--work", str(work),
    ]
    err_path = work / f"child-{index}.err"
    with open(err_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=root)
        deadline = threading.Timer(max(1.0, budget), proc.kill)
        deadline.start()
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            out, _ = proc.communicate()
        finally:
            deadline.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode < 0:
        raise BenchError(f"batch {index} killed at the run's time limit")
    lines = out.splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines or not lines[-1].startswith("result "):
        raise BenchError(f"batch {index} failed (exit {proc.returncode}): {err_path.read_text()[-2000:]}")
    result = json.loads(lines[-1][len("result "):])
    result["setup_wall_s"] = setup
    # The child's slices during set-up give set-up's program time and the
    # machine's speed; interpreter start-up before its first line is scaled
    # by the same factor.
    mean = result["setup_slice_mean_s"] if result["setup_slices"] else result["slice_mean_s"]
    result["setup_program_s"] = setup - result["setup_slices_s"]
    result["setup_s"] = result["setup_program_s"] * calibrate.REF_SLICE_S / mean
    result["traced"] = traced
    result["batch_s"] = perf_counter() - start
    if result["errors"]:
        raise BenchError(f"batch {index}: wrong output: {'; '.join(result['errors'][:5])}")
    return result


def run_batches(root: Path, work: Path, workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    batches = []
    start = perf_counter()
    while True:
        traced = bool(trace) and len(batches) % 2 == 1
        elapsed = perf_counter() - start
        batches.append(run_batch(root, work, workload, seed, len(batches), traced, RUN_LIMIT_S + 20 - elapsed))
        elapsed = perf_counter() - start
        estimate = _median([b["batch_s"] for b in batches])
        if len(batches) >= MIN_BATCHES[trace] and (elapsed + estimate > seconds or elapsed > RUN_LIMIT_S):
            return batches


# --- metrics -----------------------------------------------------------------

def end_to_end(workload: str, batches: list[dict], scaled: bool = True) -> dict:
    """Every end-to-end metric of this workload, gated or only printed, from the
    untraced batches. Times are scaled to the reference speed (calibrate.py),
    or with ``scaled=False`` are program time as measured on this machine.
    Set-up and memory are medians over batches; lineage percentiles pool
    every query of the run."""
    plain = [b for b in batches if not b["traced"]]
    suffix = "scaled_s" if scaled else "s"
    metrics = {
        "setup_s": _median([b["setup_s" if scaled else "setup_program_s"] for b in plain]),
        "peak_rss_mb": _median([b["rss_mb"] for b in plain]),
    }
    # Throughput is total work over total measured time, so every second of
    # the run weighs the same.
    if workload == "audit":
        lineage = [s * 1e3 for b in plain for s in b[f"lineage_{suffix}"]]
        metrics["lineage_ms.p50"] = _percentile(lineage, 50)
        metrics["lineage_ms.p90"] = _percentile(lineage, 90)
        metrics["lineage_samples"] = len(lineage)
        verify_s = [s for b in plain for s in b[f"verify_{suffix}"]]
        metrics["blocks_per_s"] = sum(b["blocks"] * len(b["verify_s"]) for b in plain) / sum(verify_s)
        metrics["verify_blocks_per_s"] = _median([b["blocks"] / s for b in plain for s in b[f"verify_{suffix}"]])
        metrics["verify_samples"] = len(verify_s)
    else:
        seconds = sum(b["scaled_s" if scaled else "program_s"] for b in plain)
        metrics["blocks_per_s"] = sum(b["blocks"] for b in plain) / seconds
        if workload == "ingest":
            metrics["records_per_s"] = sum(b["records"] for b in plain) / seconds
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    metrics["ops_failed_frac"] = failed / attempted
    metrics["ops_attempted"] = attempted
    metrics["ops_failed"] = failed
    return metrics


def per_layer(batches: list[dict]) -> dict:
    """Per-layer metrics from the traced batches (medians over them), plus
    the tracing overhead against the untraced batches of the same run.
    Times are at the reference speed, like the end-to-end ones."""
    traced = [b for b in batches if b["traced"]]
    plain = [b for b in batches if not b["traced"]]
    rows = []
    for b in traced:
        t = b["trace"]
        row = {}
        for name, f in t["functions"].items():
            row[f"{name}.calls"] = f["calls"]
            row[f"{name}.self_s"] = f["self_s"]
            row[f"{name}.total_s"] = f["total_s"]
        for layer, frac in t["layer_self_frac"].items():
            row[f"{layer}.self_frac"] = frac
        counts = b.get("sim_counts", {})
        row.update({
            "crypto.digest.bytes": t["digest_bytes"],
            "crypto.verify.per_signature": t["verify_per_signature"],
            "merkle.build_tree.leaves": t["build_tree_leaves"],
            "merkle.build_tree.per_block": t["build_tree_per_block"],
            "chain.distinct_blocks": t["distinct_blocks"],
            "chain.verify_chain.blocks": t["verify_chain_blocks"],
            "chain.verify_chain.total_frac": t["verify_chain_total_frac"],
            "chain.validate_block.per_block": t["validate_block_per_block"],
            "chain.trace.records_scanned": t["trace_records_scanned"],
            "simnet.step.idle_frac": t["step_idle_frac"],
            "simnet.rounds": len(t["round_s"]),
            "simnet.report_s": t["report_s"],
            "simnet.trace_lines": counts.get("trace_lines", 0),
            "simnet.tap_entries": counts.get("tap_entries", 0),
            "simnet.tap_bytes": counts.get("tap_bytes", 0),
            "trace.wall_s": t["wall_s"],
            "trace.unattributed_frac": t["unattributed_frac"],
        })
        rows.append(row)
    metrics = {name: _median([r[name] for r in rows]) for name in rows[0]}
    rounds_ms = [s * 1e3 for b in traced for s in b["trace"]["round_s"]]
    metrics["simnet.round_ms.p50"] = _percentile(rounds_ms, 50)
    metrics["simnet.round_ms.p90"] = _percentile(rounds_ms, 90)
    traced_wall = _median([b["scaled_s"] for b in traced])
    plain_wall = _median([b["scaled_s"] for b in plain])
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return metrics


def check_identical(batches: list[dict]) -> dict:
    """Same seed, same artifacts: every batch, traced or not, must produce
    byte-identical outputs."""
    first = batches[0]["hashes"]
    for b in batches[1:]:
        if b["hashes"] != first:
            kind = "traced" if b["traced"] else "untraced"
            raise BenchError(f"{kind} batch artifacts differ from batch 0: {b['hashes']} vs {first}")
    return first


# --- main --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=".bench_results", help="result directory, relative to the checkout")
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "BENCHMARK.json", root / "src" / "gridledger" / "__init__.py",
              root / "tests" / "fixtures" / "cli_golden.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from a gridledger checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    contract = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = root / args.results
    work = results / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, root, contract, results, work)
    except BenchError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, contract: dict, results: Path, work: Path) -> int:
    golden = golden_gate(root, work)
    defects = [tamper_upload_probe()] if args.workload == "ingest" else []
    env = environment(root, args.seed)
    make_inputs = {"ingest": workloads.ingest_inputs, "idle": workloads.idle_inputs}.get(args.workload)
    if make_inputs is not None:
        (work / "scenario.txt").write_text(make_inputs(args.seed).scenario, encoding="utf-8")

    batches = run_batches(root, work, args.workload, args.seed, args.seconds, args.trace)
    hashes = check_identical(batches)
    e2e = end_to_end(args.workload, batches)
    e2e_raw = end_to_end(args.workload, batches, scaled=False)
    layers = per_layer(batches) if args.trace else {}
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    source = layers if args.trace else e2e
    absent = [m["name"] for m in wanted if m["name"] not in source]
    if absent:
        raise BenchError(f"metrics missing from the run: {', '.join(absent)}")
    attempted = e2e["ops_attempted"]
    failed = e2e["ops_failed"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "inputs": batches[0]["sizes"],
        "golden_sha256": golden,
        "artifact_sha256": hashes,
        "batches": len(batches),
        "traced_batches": sum(b["traced"] for b in batches),
        "attempted": attempted,
        "failed": failed,
        "known_defects": defects,
        "end_to_end": e2e,
        "end_to_end_unscaled": e2e_raw,
        "per_layer": layers,
        "batch_detail": [
            {k: v for k, v in b.items() if k not in ("trace", "hashes", "sizes", "errors", "sim_counts")}
            for b in batches
        ],
    }
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    units = {m["name"]: m["unit"] for m in contract["end_to_end"]} | EXTRA_UNITS
    print(f"gridledger bench: workload={args.workload} seed={args.seed} trace={args.trace}"
          f" batches={len(batches)} ({record['traced_batches']} traced)")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs: " + " ".join(f"{k}={v}" for k, v in record["inputs"].items()))
    print("gate: golden sharing.txt@7 ok; artifacts identical across batches"
          + (" (traced and untraced)" if args.trace else ""))
    for probe in defects:
        print(f"known defect: tamper-in-flight at the upload recorder: {'fixed' if probe['ok'] else 'present'}"
              f" ({probe['outcome']})")
    print(f"  {'metric':24s} {'reference speed':>15s} {'this machine':>14s}")
    for name, value in e2e.items():
        print(f"  {name:24s} {value:>15.6g} {e2e_raw[name]:>14.6g} {units[name]}")
    if args.trace:
        _print_layers(layers)
    print(f"result file: {out_path.relative_to(root)}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _print_layers(layers: dict) -> None:
    print(f"  {'function':44s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s}")
    for name in tracer_mod.span_names():
        calls = layers[f"{name}.calls"]
        if calls:
            print(f"  {name:44s} {calls:9.0f} {layers[name + '.self_s']:10.4f} {layers[name + '.total_s']:10.4f}")
    for name, value in layers.items():
        if not name.endswith((".calls", ".self_s", ".total_s")):
            print(f"  {name:44s} {value:>14.6g}")


if __name__ == "__main__":
    sys.exit(main())
