"""One measured batch of one workload, in a fresh interpreter.

Started by bench.py. It sets up (imports gridledger, then builds the
simulator or generates the audit export), prints ``ready`` so the parent
can time set-up from process start, runs the measured phase, checks the
outputs and prints one ``result <json>`` line.

Every batch runs reference slices (calibrate.py) from its first line to
the end of the measured phase and reports each time it measures twice: as
program time (wall time less the slices inside it) and scaled to the
reference speed. A traced batch times its spans with a clock that leaves
the slices out, and scales them by the batch's mean slice.

    python3 bench/child.py --root ROOT --workload ingest --seed 3 --index 0 --trace 0 --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
from time import perf_counter

import calibrate  # this file's directory is on sys.path

ARTIFACTS = ("chain.txt", "credits.txt", "trace.txt", "metrics.txt")
AUDIT_VERIFY_CLEAN = 3  # per audit batch
AUDIT_VERIFY_TAMPERED = 1
AUDIT_QUERIES = 30


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli(cli, argv: list[str]) -> tuple[int, str, float, float]:
    """Run one CLI command with stdout captured; returns code, output and
    the perf_counter interval it took."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), start, perf_counter()


def _parse_rows(output: str) -> list[tuple]:
    lines = output.splitlines()
    if lines == ["no records"]:
        return []
    rows = []
    for line in lines[1:]:
        bi, ri, tick, kind, uploader, data_class = line.split("\t")
        rows.append((int(bi), int(ri), int(tick), kind, uploader, data_class))
    return rows


class Batch:
    """Operation counts, wrong outputs and measurements of one batch."""

    def __init__(self, calibrator):
        self.calibrator = calibrator
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.lineage: list[tuple[float, float]] = []  # perf_counter start, end
        self.ready_at = 0.0
        self.result: dict = {}

    def ready(self) -> None:
        """Set-up is done: tell the parent, which times set-up to here."""
        self.ready_at = perf_counter()
        print("ready", flush=True)

    def program_s(self, start: float, end: float) -> float:
        """Wall time of [start, end) less the reference slices inside it."""
        return end - start - self.calibrator.window(start, end)[0]

    def scaled_s(self, start: float, end: float, mean_s: float | None = None) -> float:
        return self.calibrator.scale(start, end, mean_s)

    def op(self, ok: bool, what: str, error: bool = False) -> None:
        """Count one operation; `error` marks a wrong output, which also
        fails the correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if error:
                self.errors.append(what)

    def lineage_query(self, cli, path: str, flag: str, query: bytes, expected: list[tuple]) -> None:
        code, out, start, end = _cli(cli, ["trace", path, flag, query.hex()])
        self.lineage.append((start, end))
        rows = _parse_rows(out) if code == 0 else None
        self.op(rows == expected, f"trace {flag} {query.hex()[:16]}: exit {code}, wrong rows", error=True)


# --- ingest and idle ---------------------------------------------------------

def _check_ingest(batch: Batch, inputs, sim, report) -> None:
    key = {nid: node.keypair.public_key for nid, node in sim.nodes.items()}
    grid, share_tx = set(), set()
    for block in report.chain.blocks:
        for r in block.records:
            if r.metadata.kind.label == "grid-data":
                grid.add((r.uploader_public_key, r.payload_digest))
            else:
                share_tx.add((r.uploader_public_key, r.metadata.data_class))
    quarantined = {q.record.payload_digest for q in report.quarantine}
    for ordinal, node, _, _, _ in inputs.uploads:
        d = report.upload_digests.get(ordinal)
        batch.op(d is not None and (key[node], d) in grid and d not in quarantined, f"upload {ordinal}")
    for i, (sender, receiver, ref, _) in enumerate(inputs.shares):
        if i == inputs.tampered_share:
            continue  # its rejection is the tamper-in-flight detection below
        d = report.upload_digests.get(ref)
        delivered = any(
            dv.sender == sender and dv.receiver == receiver and dv.payload_digest == d
            for dv in report.deliveries
        )
        batch.op(delivered and d is not None and (key[sender], d.hex()) in share_tx, f"share {i}")
    for fo in report.fault_outcomes:
        kind, outcome = fo.spec.kind, fo.outcome
        if kind == "forge-record":
            detected = "quarantined@" in outcome
        elif kind == "tamper-chain-copy":
            detected = "local-verify=violation" in outcome
        elif kind == "byzantine-validator":
            detected = int(outcome.rsplit("dissents=", 1)[1]) > 0
        elif kind == "tamper-in-flight":
            detected = "rejected=" in outcome
        else:  # fail-storage-unit with recover=
            repairs = [r for r in report.repair_reports if r.unit_id == str(fo.spec.target)]
            detected = bool(repairs) and not any(r.unrecoverable for r in repairs)
        batch.op(detected, f"fault {kind}: {outcome}")


def run_sim_batch(args, batch: Batch, cli, simnet, workloads) -> None:
    with open(os.path.join(args.work, "scenario.txt"), encoding="utf-8") as fh:
        scenario = fh.read()
    sim = simnet.new_sim(simnet.SimConfig(seed=args.seed), scenario)
    batch.ready()

    start = perf_counter()
    report = simnet.run(sim)
    texts = dict(zip(ARTIFACTS, (
        report.chain_export_text(), report.credit_log_text(), report.trace_text(), report.metrics_text(),
    )))
    end = perf_counter()
    batch.result.update(wall_s=end - start, program_s=batch.program_s(start, end), scaled_s=batch.scaled_s(start, end))
    batch.calibrator.stop()

    inputs = workloads.ingest_inputs(args.seed) if args.workload == "ingest" else workloads.idle_inputs(args.seed)
    if inputs.scenario != scenario:
        batch.errors.append("scenario file does not match the seed")
    if args.workload == "ingest":
        _check_ingest(batch, inputs, sim, report)
    else:
        rounds = inputs.horizon // sim.config.block_interval_ticks
        for r in range(rounds):
            batch.op(r < report.blocks_committed, f"round {r}")

    # The rendered export must verify as the chain the run committed.
    path = os.path.join(args.work, f"chain-{args.index}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(texts["chain.txt"])
    code, out, _, _ = _cli(cli, ["verify", path])
    batch.op(code == 0 and out == f"ok: {len(report.chain)} blocks verified\n", f"verify: {out.strip()}", error=True)

    batch.result.update(
        blocks=report.blocks_committed,
        records=report.records_committed,
        hashes={name: _sha256(text) for name, text in texts.items()},
        sizes={**inputs.sizes(), "blocks": len(report.chain), "records": report.records_committed,
               "queries": 1},
        sim_counts={
            "trace_lines": len(report.trace_lines),
            "tap_entries": len(report.tap),
            "tap_bytes": sum(len(e.data) for e in report.tap),
        },
    )


# --- audit -------------------------------------------------------------------

def run_audit_batch(args, batch: Batch, cli, workloads) -> None:
    export = workloads.audit_export(args.seed)
    clean = os.path.join(args.work, f"audit-{args.index}.txt")
    with open(clean, "w", encoding="utf-8") as fh:
        fh.write(export.text)
    rng = random.Random(f"audit-loop/{args.seed}/{args.index}")
    ops = [("verify", clean, None)] * AUDIT_VERIFY_CLEAN
    for t in range(AUDIT_VERIFY_TAMPERED):
        text, block = workloads.flip_bit(export.text, rng)
        path = os.path.join(args.work, f"audit-{args.index}-flip{t}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        ops.append(("verify", path, block))
    digests = sorted(export.rows_by_digest)
    keys = sorted(export.rows_by_key)
    for _ in range(AUDIT_QUERIES):
        u = rng.random()
        if u < 0.70:
            d = rng.choice(digests)
            ops.append(("--digest", d, export.rows_by_digest[d]))
        elif u < 0.95:
            k = rng.choice(keys)
            ops.append(("--key", k, export.rows_by_key[k]))
        else:
            ops.append(("--digest", rng.choice(export.absent_digests), []))
    rng.shuffle(ops)
    batch.ready()

    verify = []  # perf_counter intervals of the clean verifies
    start = perf_counter()
    for kind, target, expected in ops:
        if kind != "verify":
            batch.lineage_query(cli, clean, kind, target, expected)
            continue
        code, out, v_start, v_end = _cli(cli, ["verify", target])
        if expected is None:
            ok = code == 0 and out == f"ok: {export.blocks} blocks verified\n"
            verify.append((v_start, v_end))
        else:
            ok = code == 1 and out.startswith(f"violation at block {expected}:")
        batch.op(ok, f"verify {os.path.basename(target)}: exit {code} {out.strip()}", error=True)
    end = perf_counter()

    # A trace call is too short to hold many slices: scale it by the mean
    # slice of the whole measured phase.
    mean_s = batch.calibrator.window(start, end)[1]
    batch.result.update(
        wall_s=end - start,
        program_s=batch.program_s(start, end),
        scaled_s=batch.scaled_s(start, end),
        verify_s=[batch.program_s(a, b) for a, b in verify],
        verify_scaled_s=[batch.scaled_s(a, b) for a, b in verify],
        lineage_s=[batch.program_s(a, b) for a, b in batch.lineage],
        lineage_scaled_s=[batch.scaled_s(a, b, mean_s) for a, b in batch.lineage],
    )
    batch.calibrator.stop()
    batch.result.update(
        blocks=export.blocks,
        hashes={"export": _sha256(export.text)},
        sizes={**export.sizes(), "queries": len(ops)},
    )


def main() -> int:
    boot = perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=("ingest", "idle", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    # The slices run until the measured phase ends; the checks after it are
    # not timed.
    calibrator = calibrate.Calibrator()
    calibrator.start()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from gridledger import cli, simnet  # noqa: E402  (imports every layer)

    import workloads  # noqa: E402

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(calibrator.clock)
        tracer.install()

    batch = Batch(calibrator)
    if args.workload == "audit":
        run_audit_batch(args, batch, cli, workloads)
    else:
        run_sim_batch(args, batch, cli, simnet, workloads)
    time_scale = calibrate.REF_SLICE_S / calibrator.mean_slice()
    trace_summary = tracer.summary(time_scale) if tracer is not None else None

    # Set-up is timed by the parent, from process start to `ready`; these
    # are the slices of that interval and of the whole batch.
    spent, mean, count = calibrator.window(boot, batch.ready_at)
    batch.result.update(
        setup_slices_s=spent, setup_slice_mean_s=mean, setup_slices=count,
        slice_mean_s=calibrator.mean_slice(), slices=len(calibrator.durations),
    )
    batch.result.update(
        attempted=batch.attempted,
        failed=batch.failed,
        errors=batch.errors,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        trace=trace_summary,
    )
    print("result " + json.dumps(batch.result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
