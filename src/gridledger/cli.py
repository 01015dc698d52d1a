"""Command-line interface.

Exit codes: 0 success, 1 chain verification failure, 2 usage or parse error.
A command that stops prints one line and nothing else: a chain verdict
(``violation at block …``, exit 1) on stdout, or one ``error:`` line for an
input that cannot be read or parsed or a usage error (exit 2) on stderr.
Helpers raise `_Stop` for it, and only `main` prints it.
``run`` writes four text artifacts into the output directory (chain.txt,
credits.txt, trace.txt, metrics.txt); ``credits``, ``roles`` and ``audit``
read them back, row by row against the format ``run`` writes, and ``audit``
first verifies chain.txt as ``verify`` does.
The default output directory comes from the GRIDLEDGER_OUT environment
variable, falling back to ./out.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from collections import deque
from typing import Callable, Iterator, TextIO, TypeVar

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


class _Stop(Exception):
    """Ends a command with one line and an exit code: 1 for a chain verdict,
    2 (the default) for an input or usage error. Only `main` catches it."""

    def __init__(self, line: str, code: int = 2):
        super().__init__(line, code)


@contextlib.contextmanager
def _opened(path: str) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text. A file that cannot be opened or read, or
    a byte in it that is not UTF-8, stops the command."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise _Stop(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise _Stop(f"{path}: not UTF-8 text")


def _read_file(path: str) -> str:
    with _opened(path) as fh:
        return fh.read()


def _cmd_run(args) -> int:
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
        scenario = simnet.parse_scenario(_read_file(args.scenario))
        sim = simnet.new_sim(config, scenario)
    except simnet.ScenarioError as exc:
        raise _Stop(f"{args.scenario}: {exc}")
    except ValueError as exc:
        raise _Stop(str(exc))
    if scenario.run_until is None:
        raise _Stop(f"{args.scenario}: missing 'run until <tick>' directive")
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
        raise _Stop(f"cannot write {path}: {exc.strerror}")
    print(
        f"run complete: {report.blocks_committed} blocks committed,"
        f" {report.records_committed} records, outputs in {args.out}"
    )
    return 0


def _read_export(path: str, consume: Callable[[Iterator[chain_mod.Block]], T]) -> T:
    """What ``consume`` makes of the blocks of the export at ``path``, read
    one line at a time. A fault of the file outranks what ``consume`` found,
    so the file is read to its end even when ``consume`` stops early: an
    empty file or a non-hex line stops the command with exit 2 and the first
    undecodable block with exit 1, unless a later byte is not UTF-8."""
    with _opened(path) as fh:
        blocks = chain_mod.read_export(fh)
        try:
            result = consume(blocks)
            deque(blocks, maxlen=0)
        except (chain_mod.BlockDecodeError, chain_mod.ExportFormatError) as exc:
            deque(fh, maxlen=0)  # a later line that is not UTF-8 outranks it
            if isinstance(exc, chain_mod.BlockDecodeError):
                raise _Stop(f"violation at block {exc.index}: undecodable ({exc})", 1)
            raise _Stop(f"{path}: {exc}")
    return result


def _verify_file(path: str) -> int:
    """The block count of the export at ``path``, read one block at a time,
    once the full-chain check finds no violation."""
    count = 0

    def counted(blocks):
        nonlocal count
        for count, block in enumerate(blocks, 1):
            yield block

    violation = _read_export(path, lambda blocks: chain_mod.verify_blocks(counted(blocks)))
    if violation is not None:
        raise _Stop(f"violation at block {violation.index}: {violation.reason}", 1)
    return count


def _cmd_verify(args) -> int:
    print(f"ok: {_verify_file(args.chain)} blocks verified")
    return 0


def _inspect_row(index: int, block: chain_mod.Block) -> str:
    h = block.header
    minutes = f"{h.timestamp_tick // 60}m{h.timestamp_tick % 60:02d}s"
    return (
        f"{index}\t{h.timestamp_tick}\t{minutes}\t{len(block.records)}"
        f"\t{h.merkle_root[:8].hex()}\t{h.recorder_public_key[:8].hex()}"
    )


def _cmd_inspect(args) -> int:
    rows = _read_export(args.chain, lambda blocks: [_inspect_row(i, b) for i, b in enumerate(blocks)])
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
        raise _Stop("exactly one of --digest or --key is required")
    if args.digest is None:
        flag, selector, size = "--key", args.key, crypto.PUBLIC_KEY_LEN
    else:
        flag, selector, size = "--digest", args.digest, crypto.DIGEST_LEN
    try:
        query = bytes.fromhex(selector)
    except ValueError:
        raise _Stop("selector is not hex")
    # a query of the wrong length is reported only once the export reads clean
    fits = len(query) == size
    rows = _read_export(args.chain, lambda blocks: _lineage(blocks, query) if fits else [])
    if not fits:
        raise _Stop(f"{flag} takes {size} bytes, not {len(query)}")
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


def _metrics_rows(report_dir: str, name: str, is_row: Callable[[str], object]) -> list[str]:
    """The rows of the ``[name]`` section of the run's metrics.txt, each a
    line ``is_row`` holds true. A file that cannot be read, a missing
    section, or a line in the section that is neither blank nor a row stops
    the command."""
    path = os.path.join(report_dir, METRICS_FILE)
    lines = simnet.text_lines(_read_file(path))
    try:
        start = lines.index(f"[{name}]") + 1
    except ValueError:
        raise _Stop(f"metrics file has no [{name}] section")
    rows = []
    for number, line in enumerate(lines[start:], start + 1):
        if line.startswith("["):
            break
        if not line:
            continue
        if not is_row(line):
            raise _Stop(f"{path}: line {number} is not a [{name}] row")
        rows.append(line)
    return rows


def _cmd_credits(args) -> int:
    path = os.path.join(args.report_dir, CREDITS_FILE)
    credits: dict[int, int] = {}
    tick = 0
    for number, line in enumerate(simnet.text_lines(_read_file(path)), 1):
        match = _CREDIT_LINE.fullmatch(line)
        if match is None or int(match[1]) < tick:
            raise _Stop(f"{path}: line {number} is not a credit event in tick order")
        tick, node_id = int(match[1]), int(match[2])
        credits[node_id] = credits.get(node_id, 0) + int(match[3])
    print("node_id\tcredit")
    for nid in sorted(credits):
        print(f"{nid}\t{credits[nid]}")
    return 0


def _cmd_roles(args) -> int:
    rows = _metrics_rows(args.report_dir, "roles", _ROLE_ROW.fullmatch)
    print("node_id\trole\tcredit\tassessment")
    for row in rows:
        print(row)
    return 0


def _cmd_audit(args) -> int:
    _verify_file(os.path.join(args.report_dir, CHAIN_FILE))
    rows = _metrics_rows(args.report_dir, "datastore", _datastore_row)
    print("digest\texpected\tlive\tunits\tstatus")
    for row in rows:
        print(row)
    flagged = sum(row.endswith("under-replicated") for row in rows)
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
    try:
        return _COMMANDS[args.command](args)
    except _Stop as stop:
        line, code = stop.args
        if code == 1:
            print(line)
        else:
            print(f"error: {line}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
