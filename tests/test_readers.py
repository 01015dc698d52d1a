"""The CLI's export readers (`verify`, `audit`, `trace`, `inspect`) read a
chain export one line at a time and hold neither its text, its lines nor a
`Chain`. Whatever the file holds, each must answer as the whole-file path
does: read the file, `import_chain`, then a serial `validate_block` loop.
`reference` is that path, kept here as the oracle; the differential test
compares exit code, stdout and stderr on randomly edited exports, and the
memory test bounds what each reader holds against the export's size."""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridledger import chain as chain_mod
from gridledger import crypto
from gridledger.chain import (
    Block,
    BlockDecodeError,
    BlockHeader,
    ExportFormatError,
    Record,
    RecordKind,
    RecordMetadata,
    Violation,
    block_bytes,
    export_chain,
    import_chain,
    read_export,
)
from gridledger.cli import main

from testutil import build_chain

METRICS = "[summary]\nblocks_committed=3\n\n[datastore]\n" + "ab" * 32 + "\t3\t3\tu0,u1,u2\tok\n"


# --- the reference: today's whole-file path -----------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
    except UnicodeDecodeError:
        print(f"error: {path}: not UTF-8 text", file=sys.stderr)
    return None


def _load(path: str):
    text = _read(path)
    if text is None:
        return None, 2
    try:
        return import_chain(text), 0
    except BlockDecodeError as exc:
        print(f"violation at block {exc.index}: undecodable ({exc})")
        return None, 1
    except ExportFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, 2


def serial_verdict(blocks) -> Violation | None:
    prev = None
    for i, block in enumerate(blocks):
        error = chain_mod.validate_block(block, prev).error()
        if error is not None:
            return Violation(index=i, reason=error.reason)
        prev = block
    return None


def _verify(path: str):
    chain, code = _load(path)
    if chain is None:
        return None, code
    violation = serial_verdict(chain.blocks)
    if violation is None:
        return chain, 0
    print(f"violation at block {violation.index}: {violation.reason}")
    return None, 1


def reference(argv: list[str]) -> int:
    """`gridledger verify|inspect|audit <path>` or `gridledger trace <path>
    --digest|--key <hex>`, as the whole-file path answers them."""
    command, path, *selector = argv
    if command == "verify":
        chain, code = _verify(path)
        if chain is not None:
            print(f"ok: {len(chain)} blocks verified")
        return code
    if command == "inspect":
        chain, code = _load(path)
        if chain is None:
            return code
        print("block\ttick\ttime\trecords\tmerkle_root\trecorder")
        for i, block in enumerate(chain.blocks):
            h = block.header
            minutes = f"{h.timestamp_tick // 60}m{h.timestamp_tick % 60:02d}s"
            print(
                f"{i}\t{h.timestamp_tick}\t{minutes}\t{len(block.records)}"
                f"\t{h.merkle_root[:8].hex()}\t{h.recorder_public_key[:8].hex()}"
            )
        return 0
    if command == "trace":
        flag, hex_query = selector
        try:
            query = bytes.fromhex(hex_query)
        except ValueError:
            print("error: selector is not hex", file=sys.stderr)
            return 2
        chain, code = _load(path)
        if chain is None:
            return code
        size = crypto.DIGEST_LEN if flag == "--digest" else crypto.PUBLIC_KEY_LEN
        if len(query) != size:
            print(f"error: {flag} takes {size} bytes, not {len(query)}", file=sys.stderr)
            return 2
        rows = chain_mod.trace(chain, query)
        if not rows:
            print("no records")
            return 0
        print("block\trecord\ttick\tkind\tuploader\tdata_class")
        for bi, ri, record in rows:
            print(
                f"{bi}\t{ri}\t{record.metadata.created_tick}\t{record.metadata.kind.label}"
                f"\t{record.uploader_public_key[:8].hex()}\t{record.metadata.data_class}"
            )
        return 0
    assert command == "audit"
    _, code = _verify(os.path.join(path, "chain.txt"))
    if code:
        return code
    text = _read(os.path.join(path, "metrics.txt"))
    if text is None:
        return 2
    lines = text.splitlines()
    start = lines.index("[datastore]") + 1
    rows = []
    for line in lines[start:]:
        if line.startswith("["):
            break
        if line.strip():
            rows.append(line)
    print("digest\texpected\tlive\tunits\tstatus")
    for row in rows:
        print(row)
    flagged = sum(row.endswith("under-replicated") for row in rows)
    print(f"# {len(rows)} objects, {flagged} under-replicated")
    return 0


def answer(run, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# --- the differential test ----------------------------------------------------

CHAIN = build_chain(3, 3)
EXPORT = export_chain(CHAIN).encode()
DIGEST = CHAIN.blocks[2].records[1].payload_digest.hex()
KEY = CHAIN.blocks[1].records[0].uploader_public_key.hex()


def apply(data: bytes, edit: tuple) -> bytes:
    kind, a, b = edit
    lines = data.split(b"\n")
    i, j = a % len(lines), b % len(lines)
    if kind == "flip-block":  # a bit of one block's bytes, or of the line if it is not hex
        try:
            raw = bytearray(bytes.fromhex(lines[i].decode()))
        except ValueError:
            raw = None
        if raw:
            raw[b // 8 % len(raw)] ^= 1 << (b % 8)
            lines[i] = raw.hex().encode()
        elif lines[i]:
            line = bytearray(lines[i])
            line[b % len(line)] ^= 1 << (b % 8)
            lines[i] = bytes(line)
    elif kind == "flip-byte":
        if data:
            raw = bytearray(data)
            raw[a % len(raw)] ^= 1 << (b % 8)
            return bytes(raw)
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "blank":
        lines.insert(i, [b"", b"  \t", b"\x0c"][b % 3])
    elif kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    elif kind == "insert":
        junk = [b"zz", b"\xff", b"\xc3", b"\x0b", b"\xe2\x80\xa8", b" ", b"\r"][b % 7]
        at = a % (len(data) + 1)
        return data[:at] + junk + data[at:]
    elif kind == "truncate":
        return data[: a % (len(data) + 1)]
    return b"\n".join(lines)


edits = st.lists(
    st.tuples(
        st.sampled_from(
            ["flip-block", "flip-byte", "drop", "duplicate", "swap", "blank", "crlf", "insert", "truncate"]
        ),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
    ),
    min_size=1,
    max_size=3,
)
queries = st.sampled_from(
    [
        ("--digest", DIGEST), ("--key", KEY), ("--digest", "00" * 32), ("--digest", "00" * 16), ("--key", "zz"),
        ("--key", DIGEST), ("--digest", KEY),
    ]
)


@settings(max_examples=250, database=None, deadline=None, derandomize=True)
@given(edits=edits, query=queries)
@example(edits=[], query=("--digest", DIGEST))
# a truncated block after a bad recorder signature; a non-hex line after a
# broken link
@example(edits=[("flip-block", 1, 8 * 150), ("truncate", 3 * len(EXPORT) // 4, 0)], query=("--key", KEY))
@example(edits=[("swap", 1, 2), ("insert", len(EXPORT) - 40, 0)], query=("--digest", DIGEST))
# a byte that is not UTF-8 after a truncated block; a vertical tab, which
# splits a line, under a wrong-length query
@example(edits=[("truncate", len(EXPORT) // 2, 0), ("insert", len(EXPORT), 1)], query=("--digest", DIGEST))
@example(edits=[("insert", len(EXPORT) // 2, 3)], query=("--digest", "00" * 16))
# a wrong-length query on an export whose last line is not hex
@example(edits=[("insert", len(EXPORT) - 5, 0)], query=("--digest", "00" * 16))
@example(edits=[("crlf", 0, 0), ("blank", 2, 2)], query=("--digest", "00" * 16))
@example(edits=[("truncate", 0, 0)], query=("--key", KEY))
def test_readers_answer_as_the_whole_file_path(edits, query):
    data = EXPORT
    for edit in edits:
        data = apply(data, edit)
    with tempfile.TemporaryDirectory() as run_dir:
        path = os.path.join(run_dir, "chain.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        with open(os.path.join(run_dir, "metrics.txt"), "w", encoding="utf-8") as fh:
            fh.write(METRICS)
        for argv in (["verify", path], ["inspect", path], ["trace", path, *query], ["audit", run_dir]):
            assert answer(main, argv) == answer(reference, argv), argv


@pytest.mark.parametrize("first", [b"00", b"zz", b""])
def test_a_late_byte_that_is_not_utf8_outranks_every_earlier_fault(tmp_path, first):
    # An undecodable block, a non-hex line or a wrong-length query, then
    # more than a read buffer (8 KB) of lines before the byte, which a
    # reader that stopped at the first fault would never decode.
    (tmp_path / "chain.txt").write_bytes(first + b"\n" + EXPORT * 4 + b"\xff\n")
    (tmp_path / "metrics.txt").write_text(METRICS)
    path = str(tmp_path / "chain.txt")
    for argv in (["verify", path], ["inspect", path], ["trace", path, "--key", "00"], ["audit", str(tmp_path)]):
        assert answer(main, argv) == answer(reference, argv) == (2, "", f"error: {path}: not UTF-8 text\n")


def test_readers_answer_a_missing_file_as_the_whole_file_path(tmp_path):
    path = str(tmp_path / "none.txt")
    for argv in (["verify", path], ["inspect", path], ["trace", path, "--key", KEY], ["audit", str(tmp_path)]):
        assert answer(main, argv) == answer(reference, argv)
        assert answer(main, argv)[0] == 2


# --- what the readers hold --------------------------------------------------

def test_readers_hold_a_fraction_of_the_export(tmp_path):
    # 300 blocks of 17 records, the shape of the benchmark's audit export
    # (2.0 MB). The whole-file path peaks at about 3.8 times the export.
    chain = build_chain(300, 17)
    path = tmp_path / "chain.txt"
    path.write_text(export_chain(chain), encoding="utf-8")
    size = path.stat().st_size
    digest = chain.blocks[150].records[3].payload_digest.hex()
    del chain
    small = tmp_path / "small.txt"
    small.write_text(export_chain(build_chain(1)), encoding="utf-8")
    # verify holds a few signature batches, not every triple of the pass
    for command in ("verify", "trace", "inspect"):
        argv = [command, str(path)] + (["--digest", digest] if command == "trace" else [])
        answer(main, [command, str(small)] + argv[2:])  # lazy imports and caches come first
        tracemalloc.start()
        try:
            code, out, _ = answer(main, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out, command
        assert peak < 0.25 * size, f"{command} peaked at {peak / size:.2f} times the export"


def test_decoding_an_export_again_and_again_leaves_the_heap_as_it_was():
    # 300 blocks of 15-20 records, with random keys, digests and signatures:
    # decoding checks no signature. Each block's records are one tuple of
    # its own length, so a decoder that builds that tuple by resizing one
    # leaves every freed tuple on CPython's free list for its length, where
    # no later build takes it again. CPython 3.11 also parks freed 20-item
    # tuples on a free list that it never pops (up to 2,000 of them), about
    # 100 KiB of what is left here.
    rng = random.Random(5)
    lines = []
    for tick in range(300):
        records = tuple(
            Record(
                rng.randbytes(crypto.PUBLIC_KEY_LEN),
                rng.randbytes(crypto.DIGEST_LEN),
                RecordMetadata(RecordKind.GRID_DATA, "load", tick),
                rng.randbytes(crypto.SIGNATURE_LEN),
            )
            for _ in range(rng.randint(15, 20))
        )
        header = BlockHeader(
            rng.randbytes(crypto.DIGEST_LEN), tick, rng.randbytes(crypto.DIGEST_LEN),
            rng.randbytes(crypto.PUBLIC_KEY_LEN), rng.randbytes(crypto.SIGNATURE_LEN),
        )
        lines.append(block_bytes(Block(header, records)).hex())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            for _ in read_export(lines):
                pass
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 160 * 1024, f"ten decodes left {grown / 1024:.0f} KiB behind"
