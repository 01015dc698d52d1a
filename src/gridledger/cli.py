"""Command-line interface.

Exit codes: 0 success, 1 chain verification failure, 2 usage or parse error.
``run`` writes four text artifacts into the output directory (chain.txt,
credits.txt, trace.txt, metrics.txt); ``credits``, ``roles`` and ``audit``
read them back, row by row against the format ``run`` writes, and ``audit``
first verifies chain.txt as ``verify`` does.
The default output directory comes from the GRIDLEDGER_OUT environment
variable, falling back to ./out.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import deque
from typing import Callable, Iterator, TypeVar

from . import chain as chain_mod
from . import crypto, simnet
from .credit import CreditReason, Role

CHAIN_FILE = "chain.txt"
CREDITS_FILE = "credits.txt"
TRACE_FILE = "trace.txt"
METRICS_FILE = "metrics.txt"

T = TypeVar("T")

# One credits.txt line: tick, node id, +1 or -1, a CreditReason value.
_CREDIT_LINE = re.compile(
    r"([0-9]+)\t([0-9]+)\t([+-]1)\t(%s)" % "|".join(re.escape(r.value) for r in CreditReason)
)
# One [roles] row of metrics.txt: node id, Role value, credit, assessment.
_ROLE_ROW = re.compile(r"[0-9]+\t(?:%s)\t-?[0-9]+\t-?[0-9]+" % "|".join(r.value for r in Role))
# One [datastore] row: payload digest, replicas expected and live, the units
# holding it, status.
_DATASTORE_ROW = re.compile(
    r"[0-9a-f]{64}\t([0-9]+)\t([0-9]+)\t(u[0-9]+(?:,u[0-9]+)*)?\t(ok|under-replicated)"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridledger")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write report files")
    run_p.add_argument("scenario", help="scenario file path")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default=os.environ.get("GRIDLEDGER_OUT", "out"))
    run_p.add_argument(
        "--nodes", type=int, help="node count when the scenario declares none (default: recorders + supervisors + 2)"
    )
    run_p.add_argument("--recorders", type=int, default=simnet.SimConfig.r_max)
    run_p.add_argument("--supervisors", type=int, default=simnet.SimConfig.s_max)
    run_p.add_argument("--interval", type=int, default=simnet.SimConfig.block_interval_ticks)
    run_p.add_argument("--epoch", type=int, default=simnet.SimConfig.epoch_length_blocks)
    run_p.add_argument("--replicas", type=int, default=simnet.SimConfig.replication_factor)
    run_p.add_argument("--units", type=int, default=simnet.SimConfig.storage_unit_count)
    run_p.add_argument("--delay", type=int, default=simnet.SimConfig.message_delay_ticks)

    inspect_p = sub.add_parser("inspect", help="summarize an exported chain")
    inspect_p.add_argument("chain", help="chain export path")

    verify_p = sub.add_parser("verify", help="verify an exported chain")
    verify_p.add_argument("chain", help="chain export path")

    trace_p = sub.add_parser("trace", help="list the lineage of a digest or key")
    trace_p.add_argument("chain", help="chain export path")
    trace_p.add_argument("--digest", help="payload digest, 32 bytes in hex")
    trace_p.add_argument("--key", help="uploader public key, 64 bytes in hex")

    for name in ("credits", "roles", "audit"):
        table_p = sub.add_parser(name, help=f"dump the {name} table from a run directory")
        table_p.add_argument("report_dir")
    return parser


def _read_file(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
    except UnicodeDecodeError:
        print(f"error: {path}: not UTF-8 text", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    text = _read_file(args.scenario)
    if text is None:
        return 2
    try:
        scenario = simnet.parse_scenario(text)
    except simnet.ScenarioError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    config = simnet.SimConfig(
        seed=args.seed,
        node_count=args.nodes,
        r_max=args.recorders,
        s_max=args.supervisors,
        block_interval_ticks=args.interval,
        epoch_length_blocks=args.epoch,
        replication_factor=args.replicas,
        storage_unit_count=args.units,
        message_delay_ticks=args.delay,
    )
    try:
        sim = simnet.new_sim(config, scenario)
    except simnet.ScenarioError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if scenario.run_until is None:
        print(f"error: {args.scenario}: missing 'run until <tick>' directive", file=sys.stderr)
        return 2
    report = sim.run()
    outputs = {
        CHAIN_FILE: report.chain_export_text(),
        CREDITS_FILE: report.credit_log_text(),
        TRACE_FILE: report.trace_text(),
        METRICS_FILE: report.metrics_text(),
    }
    path = args.out  # the path being written, for the error line
    try:
        os.makedirs(path, exist_ok=True)
        for name, content in outputs.items():
            path = os.path.join(args.out, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2
    print(
        f"run complete: {report.blocks_committed} blocks committed,"
        f" {report.records_committed} records, outputs in {args.out}"
    )
    return 0


def _read_export(path: str, consume: Callable[[Iterator[chain_mod.Block]], T]) -> tuple[T | None, int]:
    """What ``consume`` makes of the blocks of the export at ``path``, read
    one line at a time, and the exit code. A fault of the file outranks what
    ``consume`` found, so the file is read to its end even when ``consume``
    stops early: an unreadable or non-UTF-8 file, an empty one or a non-hex
    line gives (None, 2) and the first undecodable block (None, 1), each
    after its error line."""
    fault = None
    try:
        with open(path, encoding="utf-8") as fh:
            blocks = chain_mod.read_export(fh)
            try:
                result = consume(blocks)
                deque(blocks, maxlen=0)
            except (chain_mod.BlockDecodeError, chain_mod.ExportFormatError) as exc:
                fault = exc
                deque(fh, maxlen=0)  # a later line that is not UTF-8 outranks it
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None, 2
    except UnicodeDecodeError:
        print(f"error: {path}: not UTF-8 text", file=sys.stderr)
        return None, 2
    if isinstance(fault, chain_mod.BlockDecodeError):
        print(f"violation at block {fault.index}: undecodable ({fault})")
        return None, 1
    if fault is not None:
        print(f"error: {path}: {fault}", file=sys.stderr)
        return None, 2
    return result, 0


def _verify_file(path: str) -> tuple[int | None, int]:
    """The full-chain check of the export at ``path``, read one block at a
    time: (its block count, 0), or (None, exit code) after an error line."""
    count = 0

    def counted(blocks):
        nonlocal count
        for count, block in enumerate(blocks, 1):
            yield block

    violation, code = _read_export(path, lambda blocks: chain_mod.verify_blocks(counted(blocks)))
    if code:
        return None, code
    if violation is not None:
        print(f"violation at block {violation.index}: {violation.reason}")
        return None, 1
    return count, 0


def _cmd_verify(args) -> int:
    count, code = _verify_file(args.chain)
    if count is not None:
        print(f"ok: {count} blocks verified")
    return code


def _inspect_row(index: int, block: chain_mod.Block) -> str:
    h = block.header
    minutes = f"{h.timestamp_tick // 60}m{h.timestamp_tick % 60:02d}s"
    return (
        f"{index}\t{h.timestamp_tick}\t{minutes}\t{len(block.records)}"
        f"\t{h.merkle_root[:8].hex()}\t{h.recorder_public_key[:8].hex()}"
    )


def _cmd_inspect(args) -> int:
    rows, code = _read_export(args.chain, lambda blocks: [_inspect_row(i, b) for i, b in enumerate(blocks)])
    if code:
        return code
    print("block\ttick\ttime\trecords\tmerkle_root\trecorder")
    for row in rows:
        print(row)
    return 0


def _lineage(blocks: Iterator[chain_mod.Block], query: bytes) -> list[str]:
    """The printed rows of `chain.trace_blocks`."""
    return [
        f"{bi}\t{ri}\t{record.metadata.created_tick}\t{record.metadata.kind.label}"
        f"\t{record.uploader_public_key[:8].hex()}\t{record.metadata.data_class}"
        for bi, ri, record in chain_mod.trace_blocks(blocks, query)
    ]


def _cmd_trace(args) -> int:
    if (args.digest is None) == (args.key is None):
        print("error: exactly one of --digest or --key is required", file=sys.stderr)
        return 2
    if args.digest is None:
        flag, selector, size = "--key", args.key, crypto.PUBLIC_KEY_LEN
    else:
        flag, selector, size = "--digest", args.digest, crypto.DIGEST_LEN
    try:
        query = bytes.fromhex(selector)
    except ValueError:
        print("error: selector is not hex", file=sys.stderr)
        return 2
    # a query of the wrong length is reported only once the export reads clean
    fits = len(query) == size
    rows, code = _read_export(args.chain, lambda blocks: _lineage(blocks, query) if fits else [])
    if code:
        return code
    if not fits:
        print(f"error: {flag} takes {size} bytes, not {len(query)}", file=sys.stderr)
        return 2
    if not rows:
        print("no records")
        return 0
    print("block\trecord\ttick\tkind\tuploader\tdata_class")
    for row in rows:
        print(row)
    return 0


def _datastore_row(line: str) -> bool:
    """A [datastore] row whose counts agree: no more live replicas than
    units listed, no more units than ``expected``, and the status
    under-replicated exactly when ``live`` is less than ``expected``."""
    match = _DATASTORE_ROW.fullmatch(line)
    if match is None:
        return False
    expected, live = int(match[1]), int(match[2])
    units = len(match[3].split(",")) if match[3] else 0
    return live <= units <= expected and (match[4] == "under-replicated") == (live < expected)


def _metrics_rows(report_dir: str, name: str, is_row: Callable[[str], object]) -> list[str] | None:
    """The rows of the ``[name]`` section of the run's metrics.txt, each a
    line ``is_row`` holds true, or None after an error line: for a file that
    cannot be read, a missing section, or a line in the section that is
    neither blank nor a row."""
    path = os.path.join(report_dir, METRICS_FILE)
    text = _read_file(path)
    if text is None:
        return None
    lines = simnet.text_lines(text)
    try:
        start = lines.index(f"[{name}]") + 1
    except ValueError:
        print(f"error: metrics file has no [{name}] section", file=sys.stderr)
        return None
    rows = []
    for number, line in enumerate(lines[start:], start + 1):
        if line.startswith("["):
            break
        if not line:
            continue
        if not is_row(line):
            print(f"error: {path}: line {number} is not a [{name}] row", file=sys.stderr)
            return None
        rows.append(line)
    return rows


def _cmd_credits(args) -> int:
    path = os.path.join(args.report_dir, CREDITS_FILE)
    text = _read_file(path)
    if text is None:
        return 2
    credits: dict[int, int] = {}
    tick = 0
    for number, line in enumerate(simnet.text_lines(text), 1):
        match = _CREDIT_LINE.fullmatch(line)
        if match is None or int(match[1]) < tick:
            print(f"error: {path}: line {number} is not a credit event in tick order", file=sys.stderr)
            return 2
        tick, node_id = int(match[1]), int(match[2])
        credits[node_id] = credits.get(node_id, 0) + int(match[3])
    print("node_id\tcredit")
    for nid in sorted(credits):
        print(f"{nid}\t{credits[nid]}")
    return 0


def _cmd_roles(args) -> int:
    rows = _metrics_rows(args.report_dir, "roles", _ROLE_ROW.fullmatch)
    if rows is None:
        return 2
    print("node_id\trole\tcredit\tassessment")
    for row in rows:
        print(row)
    return 0


def _cmd_audit(args) -> int:
    _, code = _verify_file(os.path.join(args.report_dir, CHAIN_FILE))
    if code:
        return code
    rows = _metrics_rows(args.report_dir, "datastore", _datastore_row)
    if rows is None:
        return 2
    print("digest\texpected\tlive\tunits\tstatus")
    flagged = 0
    for row in rows:
        if row.endswith("under-replicated"):
            flagged += 1
        print(row)
    print(f"# {len(rows)} objects, {flagged} under-replicated")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "inspect": _cmd_inspect,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "credits": _cmd_credits,
    "roles": _cmd_roles,
    "audit": _cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
