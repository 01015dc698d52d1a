"""The forked signature pass (`gridledger.sigpass`) under `verify_chain`.

Most tests force a split: `MIN_CHUNK_TRIPLES` is set to 1 and the process
is told it may use two or three CPUs, so even a short test chain is
verified by the caller and one or two forked workers. Told it may use one,
the caller verifies every triple itself. Each verdict must be the serial
one: `validate_block` of each block in turn, up to the first error. The
streaming pass, `sigpass.Stream`, must give the first failing triple on
one, two or three CPUs and when no worker can be forked."""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridledger import chain as chain_mod
from gridledger import crypto, sigpass
from gridledger.chain import (
    BlockDecodeError,
    Chain,
    Violation,
    block_digest,
    export_chain,
    genesis,
    import_chain,
    make_block,
    verify_chain,
)
from testutil import assert_no_children, build_chain, failing_worker, keypair, signed_record

N_BLOCKS, PER_BLOCK = 6, 3  # 25 triples: genesis, then a recorder and 3 records per block


def serial_verdict(blocks) -> Violation | None:
    prev = None
    for i, block in enumerate(blocks):
        error = chain_mod.validate_block(block, prev).error()
        if error is not None:
            return Violation(index=i, reason=error.reason)
        prev = block
    return None


@contextlib.contextmanager
def forced_split(cpus: int):
    """Split every signature pass over ``cpus`` processes; yields the pids
    of the workers forked meanwhile."""
    forks: list[int] = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sigpass, "MIN_CHUNK_TRIPLES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        mp.setattr(os, "fork", counting_fork)
        yield forks


def tampered_chain(bad_sigs=(), root_faults=()) -> Chain:
    """A chain like `build_chain(N_BLOCKS, PER_BLOCK)`, each block linked to
    the one before it as tampered. ``bad_sigs`` holds (block, record) pairs
    whose uploader signature is another key's; a block in ``root_faults``
    carries a Merkle root that does not match its records."""
    recorder, uploader, other = keypair(1000), keypair(2000), keypair(3000)
    blocks = [genesis("test-net")]
    for b in range(1, N_BLOCKS + 1):
        tick = b * 600
        records = []
        for i in range(PER_BLOCK):
            record = signed_record(uploader, b"payload-%d-%d" % (b, i), tick=tick - 50 + i)
            if (b, i) in bad_sigs:
                record = replace(record, uploader_signature=crypto.sign(other.private_key, record.payload_digest))
            records.append(record)
        block = make_block(recorder, block_digest(blocks[-1]), tick, tuple(records))
        if b in root_faults:
            block = replace(block, header=block.header._replace(merkle_root=crypto.digest(b"other")))
        blocks.append(block)
    return Chain(tuple(blocks))


def block_of_triple(index: int) -> tuple[int, int]:
    """The block holding triple ``index`` and its position in that block
    (0 is the recorder's, then one per record)."""
    if index == 0:
        return 0, 0
    return 1 + (index - 1) // (PER_BLOCK + 1), (index - 1) % (PER_BLOCK + 1)


TRIPLES = 1 + N_BLOCKS * (PER_BLOCK + 1)
(_, BOUNDARY), _ = sigpass._chunk_bounds(TRIPLES, 2)  # the worker's chunk starts here
STRADDLING, FIRST_IN_WORKER = block_of_triple(BOUNDARY)


def test_test_chain_straddles_the_chunk_boundary():
    assert 0 < FIRST_IN_WORKER <= PER_BLOCK  # the block has triples in both chunks


# --- equivalence with the serial verdict --------------------------------------

FLIP_LINES = [bytes.fromhex(line) for line in export_chain(build_chain(N_BLOCKS, PER_BLOCK)).splitlines()]


@settings(max_examples=150, database=None, deadline=None, derandomize=True)
@given(
    line=st.integers(0, len(FLIP_LINES) - 1),
    bit=st.integers(0, 8 * max(map(len, FLIP_LINES)) - 1),
    cpus=st.sampled_from((1, 2, 3)),
)
@example(line=STRADDLING, bit=8 * len(FLIP_LINES[STRADDLING]) - 1, cpus=2)  # its last record's signature
@example(line=STRADDLING, bit=8 * 300, cpus=2)  # its recorder signature
def test_flipped_export_verdict_is_the_serial_one(line, bit, cpus):
    raw = bytearray(FLIP_LINES[line])
    bit %= 8 * len(raw)
    raw[bit // 8] ^= 1 << (bit % 8)
    lines = [b.hex() for b in FLIP_LINES]
    lines[line] = raw.hex()
    try:
        decoded = import_chain("\n".join(lines))
    except BlockDecodeError as exc:
        assert exc.index == line
        return
    with forced_split(cpus):
        verdict = verify_chain(decoded)
    assert verdict is not None and verdict.index == line
    assert verdict == serial_verdict(import_chain("\n".join(lines)).blocks)
    assert_no_children()


@pytest.mark.parametrize("bad_sigs, root_faults, expected", [
    # a bad signature only in the worker's chunk
    ({(N_BLOCKS, PER_BLOCK - 1)}, (), Violation(N_BLOCKS, "bad-signature")),
    # bad signatures in both chunks: the earliest wins
    ({(1, 0), (N_BLOCKS - 1, 1)}, (), Violation(1, "bad-signature")),
    ({(STRADDLING - 1, PER_BLOCK - 1), (STRADDLING + 1, 0)}, (), Violation(STRADDLING - 1, "bad-signature")),
    # a structural fault before a later bad signature, and the reverse
    ({(N_BLOCKS, 0)}, (2,), Violation(2, "root-mismatch")),
    ({(1, 1)}, (N_BLOCKS,), Violation(1, "bad-signature")),
    # the block that straddles the boundary, on the worker's side of it
    ({(STRADDLING, FIRST_IN_WORKER - 1)}, (), Violation(STRADDLING, "bad-signature")),
    # ... and on both sides
    ({(STRADDLING, 0), (STRADDLING, PER_BLOCK - 1)}, (), Violation(STRADDLING, "bad-signature")),
])
def test_tampered_chain_verdict_is_the_serial_one(bad_sigs, root_faults, expected):
    chain = tampered_chain(bad_sigs, root_faults)
    assert serial_verdict(chain.blocks) == expected
    with forced_split(2) as forks:
        assert verify_chain(chain) == expected
    assert len(forks) == 1
    assert_no_children()


def test_clean_chain_splits_over_every_cpu():
    chain = build_chain(N_BLOCKS, PER_BLOCK)
    with forced_split(3) as forks:
        assert verify_chain(chain) is None
    assert len(forks) == 2
    assert_no_children()


def test_each_triple_is_verified_exactly_once_across_processes(tmp_path):
    # Each process appends the triples it verifies to one file; a worker
    # cannot report back otherwise. The second verify_chain must verify
    # everything again: no verdict is cached.
    log = tmp_path / "verified"
    original = crypto.verify

    def logging_verify(public_key, message, signature):
        line = f"{os.getpid()} {hashlib.sha256(public_key + message + signature).hexdigest()}\n"
        with open(log, "a", encoding="ascii") as fh:
            fh.write(line)
        return original(public_key, message, signature)

    chain = import_chain(export_chain(build_chain(N_BLOCKS, PER_BLOCK)))
    expected = Counter()
    for block in chain.blocks:
        h = block.header
        triples = [(h.recorder_public_key, chain_mod.header_signing_bytes(h), h.recorder_signature)]
        triples += [(r.uploader_public_key, r.payload_digest, r.uploader_signature) for r in block.records]
        for key, message, signature in triples:
            expected[hashlib.sha256(key + message + signature).hexdigest()] += 2
    assert sum(expected.values()) == 2 * TRIPLES

    with forced_split(3) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(crypto, "verify", logging_verify)
        assert verify_chain(chain) is None
        assert verify_chain(chain) is None
    rows = [line.split() for line in log.read_text(encoding="ascii").splitlines()]
    assert Counter(triple for _, triple in rows) == expected
    assert len(forks) == 4 and {int(pid) for pid, _ in rows} == set(forks) | {os.getpid()}
    assert_no_children()


# --- workers that fail --------------------------------------------------------

@pytest.mark.parametrize("how", ["raise", "exit"])
@pytest.mark.parametrize("bad_sigs, expected", [
    ((), None),
    ({(N_BLOCKS, 1)}, Violation(N_BLOCKS, "bad-signature")),  # in the worker's chunk
    ({(1, 1), (N_BLOCKS, 1)}, Violation(1, "bad-signature")),
])
def test_lost_worker_chunk_is_verified_by_the_caller(tmp_path, monkeypatch, how, bad_sigs, expected):
    chain = tampered_chain(bad_sigs)
    monkeypatch.setattr(sigpass, "_scan", failing_worker(how))
    returned = tmp_path / "returned"
    parent = os.getpid()
    with forced_split(2) as forks:
        try:
            verdict = verify_chain(chain)
        finally:
            # Only the caller may get here: a worker that came back out of
            # sigpass would run this test (and then the rest of the suite).
            with open(returned, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            if os.getpid() != parent:
                os._exit(0)
    assert len(forks) == 1
    assert verdict == expected == serial_verdict(chain.blocks)
    assert returned.read_text(encoding="ascii") == f"{parent}\n"
    assert_no_children()


def test_worker_that_writes_a_short_result_is_not_trusted(monkeypatch):
    parent, write = os.getpid(), os.write

    def short_write(fd, data):
        return write(fd, data[:1] if os.getpid() != parent else data)

    monkeypatch.setattr(os, "write", short_write)
    chain = tampered_chain({(N_BLOCKS, 2)})
    with forced_split(2) as forks:
        assert verify_chain(chain) == Violation(N_BLOCKS, "bad-signature")
    assert len(forks) == 1
    assert_no_children()


# --- one chunk, nothing forked ------------------------------------------------

@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("bad_sigs, expected", [
    ((), None),
    ({(N_BLOCKS, 2)}, Violation(N_BLOCKS, "bad-signature")),
])
class TestOneChunk:
    def test_one_cpu(self, monkeypatch, no_fork, bad_sigs, expected):
        monkeypatch.setattr(sigpass, "MIN_CHUNK_TRIPLES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sigpass.processes(10_000) == 1
        assert verify_chain(tampered_chain(bad_sigs)) == expected

    def test_another_live_thread(self, monkeypatch, no_fork, bad_sigs, expected):
        monkeypatch.setattr(sigpass, "MIN_CHUNK_TRIPLES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert sigpass.processes(10_000) == 1
            assert verify_chain(tampered_chain(bad_sigs)) == expected
        finally:
            done.set()
            thread.join()
        assert sigpass.processes(10_000) == 2

    def test_short_chain(self, monkeypatch, no_fork, bad_sigs, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert TRIPLES < 2 * sigpass.MIN_CHUNK_TRIPLES
        assert sigpass.processes(TRIPLES) == 1
        assert verify_chain(tampered_chain(bad_sigs)) == expected

    def test_no_fork_on_this_platform(self, monkeypatch, bad_sigs, expected):
        monkeypatch.setattr(sigpass, "MIN_CHUNK_TRIPLES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert sigpass.processes(10_000) == 1
        assert verify_chain(tampered_chain(bad_sigs)) == expected


def test_failed_fork_leaves_the_chunk_to_the_caller(monkeypatch):
    def fork():
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(sigpass, "MIN_CHUNK_TRIPLES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    assert verify_chain(tampered_chain({(N_BLOCKS, 0)})) == Violation(N_BLOCKS, "bad-signature")


@pytest.mark.parametrize("n, parts", [(0, 1), (1, 1), (7, 2), (25, 3), (5551, 2), (3, 3)])
def test_chunk_bounds_cover_in_order(n, parts):
    bounds = sigpass._chunk_bounds(n, parts)
    assert len(bounds) == parts
    assert [i for lo, hi in bounds for i in range(lo, hi)] == list(range(n))
    sizes = [hi - lo for lo, hi in bounds]
    assert max(sizes) - min(sizes) <= 1


# --- the streaming pass -------------------------------------------------------

STREAM_CHUNK, STREAM_TRIPLES = 4, 11  # two full chunks, then a tail of three


def signed_triples(bad=()) -> list[sigpass.Triple]:
    """``STREAM_TRIPLES`` triples; those at the ``bad`` indices carry another
    key's signature."""
    signer, other = keypair(4000), keypair(4001)
    triples = []
    for i in range(STREAM_TRIPLES):
        message = b"triple-%d" % i
        key = other if i in bad else signer
        triples.append((signer.public_key, message, crypto.sign(key.private_key, message)))
    return triples


def stream_verdict(triples) -> int | None:
    stream = sigpass.Stream()
    for triple in triples:
        stream.append(triple)
    return stream.close()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("bad", [(), (1,), (5,), (9,), (1, 5), (5, 9), (3, 4), (8, 10)])
def test_stream_verdict_is_the_first_failing_triple(cpus, bad):
    # chunks [0, 4) and [4, 8) go to workers when a second CPU may be used;
    # the tail [8, 11) is verified by the caller
    with forced_split(cpus) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sigpass, "MIN_CHUNK_TRIPLES", STREAM_CHUNK)
        assert stream_verdict(signed_triples(bad)) == (min(bad) if bad else None)
    # with one other CPU, the first chunk is reaped before the second is
    # forked, and a failure found there leaves the second to nobody
    expected_forks = 0 if cpus == 1 else 1 if cpus == 2 and bad and min(bad) < STREAM_CHUNK else 2
    assert len(forks) == expected_forks
    assert_no_children()


@pytest.mark.parametrize("bad", [(), (5,), (9,)])
def test_failed_fork_leaves_a_stream_chunk_to_the_caller(monkeypatch, bad):
    def fork():
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(sigpass, "MIN_CHUNK_TRIPLES", STREAM_CHUNK)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    assert stream_verdict(signed_triples(bad)) == (min(bad) if bad else None)
