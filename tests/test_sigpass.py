"""The signature pass (`gridledger.sigpass`) under `verify_chain`, and
`sigpass.Stream` on its own.

Most tests force a split: `BATCH_TRIPLES` is set to 4 and the process is
told it may use two or three CPUs, so even a short test chain is verified
in batches by one or two standing workers and, for the batches every
worker is too busy to take and the last partial one, the caller. Told it
may use one, the caller verifies every triple itself. Each verdict must be
the serial one: `validate_block` of each block in turn, up to the first
error. Each triple is verified once, in one process, and every worker is
reaped, whether the pass returns or raises."""

from __future__ import annotations

import contextlib
import hashlib
import os
import select
import signal
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridledger import chain as chain_mod
from gridledger import crypto, sigpass
from gridledger.codec import encode_var_bytes
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
from testutil import assert_no_children, build_chain, failing_worker, keypair, signed_record, stream_verdict

N_BLOCKS, PER_BLOCK = 5, 3  # 21 triples: genesis, then a recorder and 3 records per block
BATCH = 4  # the batch length a forced split uses


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
    """Run every signature pass in batches of `BATCH` on ``cpus`` CPUs;
    yields the pids of the workers forked meanwhile."""
    forks: list[int] = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sigpass, "BATCH_TRIPLES", BATCH)
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
                signature = crypto.sign(other.private_key, chain_mod.RECORD.signing_bytes(record))
                record = replace(record, uploader_signature=signature)
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
# On two CPUs the worker always takes the first BACKLOG batches, [0, 8),
# and the caller the last partial one, [20, 21); the batches between go to
# whichever is free. The block holding triple 8 has triples on both sides.
WORKERS_FIRST = sigpass.BACKLOG * BATCH
STRADDLING, FIRST_PAST = block_of_triple(WORKERS_FIRST)


def chain_triples(chain: Chain) -> list[sigpass.Triple]:
    """Every signature triple of ``chain``, in the order a check verifies them."""
    triples = []
    for block in chain.blocks:
        triples.append(chain_mod.HEADER.triple(block.header))
        triples += map(chain_mod.RECORD.triple, block.records)
    return triples


def triple_key(public_key: bytes, message: bytes, signature: bytes) -> str:
    return hashlib.sha256(public_key + message + signature).hexdigest()


def log_verifies(monkeypatch, log) -> None:
    """Each process appends a row (its pid, `triple_key`) to ``log`` for each
    triple it verifies; a worker cannot report back otherwise."""
    original = crypto.verify

    def logging_verify(public_key, message, signature):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()} {triple_key(public_key, message, signature)}\n")
        return original(public_key, message, signature)

    monkeypatch.setattr(crypto, "verify", logging_verify)


def logged_rows(log) -> list[tuple[int, str]]:
    return [(int(pid), key) for pid, key in (line.split() for line in log.read_text(encoding="ascii").splitlines())]


def test_test_chain_straddles_the_chunk_boundary(monkeypatch, tmp_path):
    chain = import_chain(export_chain(build_chain(N_BLOCKS, PER_BLOCK)))
    index = {triple_key(*t): i for i, t in enumerate(chain_triples(chain))}
    log_verifies(monkeypatch, tmp_path / "verified")
    with forced_split(2) as forks:
        assert verify_chain(chain) is None
    by_pid: dict[int, list[int]] = {}
    for pid, key in logged_rows(tmp_path / "verified"):
        by_pid.setdefault(pid, []).append(index[key])
    assert sorted(i for verified in by_pid.values() for i in verified) == list(range(TRIPLES))
    assert len(forks) == 1 and set(by_pid) <= {forks[0], os.getpid()}
    assert set(range(WORKERS_FIRST)) <= set(by_pid[forks[0]]) and TRIPLES - 1 in by_pid[os.getpid()]
    assert_no_children()
    # the block has a triple on each side: record FIRST_PAST - 2 is in the
    # worker's second batch, record FIRST_PAST - 1 in the next one
    assert 1 < FIRST_PAST <= PER_BLOCK


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
    # a bad signature only in the last partial batch, always the caller's
    ({(N_BLOCKS, PER_BLOCK - 1)}, (), Violation(N_BLOCKS, "bad-signature")),
    # bad signatures in the worker's first batches and later: the earliest wins
    ({(1, 0), (N_BLOCKS - 1, 1)}, (), Violation(1, "bad-signature")),
    ({(STRADDLING - 1, PER_BLOCK - 1), (STRADDLING + 1, 0)}, (), Violation(STRADDLING - 1, "bad-signature")),
    # a structural fault before a later bad signature, and the reverse
    ({(N_BLOCKS, 0)}, (2,), Violation(2, "root-mismatch")),
    ({(1, 1)}, (N_BLOCKS,), Violation(1, "bad-signature")),
    # the block that straddles the worker's first batches and the rest, past them
    ({(STRADDLING, FIRST_PAST - 1)}, (), Violation(STRADDLING, "bad-signature")),
    # ... and on both sides
    ({(STRADDLING, 0), (STRADDLING, PER_BLOCK - 1)}, (), Violation(STRADDLING, "bad-signature")),
    # a bad signature only in the worker's first batches, and only in its
    # side of the block that straddles them
    ({(1, 1)}, (), Violation(1, "bad-signature")),
    ({(STRADDLING, FIRST_PAST - 2)}, (), Violation(STRADDLING, "bad-signature")),
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


def test_each_triple_is_verified_exactly_once_across_processes(monkeypatch, tmp_path):
    # The second verify_chain must verify everything again: no verdict is cached.
    chain = import_chain(export_chain(build_chain(N_BLOCKS, PER_BLOCK)))
    expected = Counter(triple_key(*t) for t in 2 * chain_triples(chain))
    assert sum(expected.values()) == 2 * TRIPLES
    with forced_split(3) as forks:
        log_verifies(monkeypatch, tmp_path / "verified")
        assert verify_chain(chain) is None
        assert verify_chain(chain) is None
    rows = logged_rows(tmp_path / "verified")
    assert Counter(key for _, key in rows) == expected
    assert len(forks) == 4 and {pid for pid, _ in rows} == set(forks) | {os.getpid()}
    assert_no_children()


def test_a_full_chain_check_reads_no_block_past_a_known_failure(monkeypatch):
    # one CPU, batches of 4: the caller verifies [0, 4) as block 1's
    # triples go in, finds its first record's bad signature there, and
    # takes no later block from the iterable
    monkeypatch.setattr(sigpass, "BATCH_TRIPLES", BATCH)
    monkeypatch.setattr(sigpass, "_cpus", lambda: 1)
    read = []

    def blocks():
        for block in tampered_chain({(1, 0)}).blocks:
            read.append(block)
            yield block

    assert chain_mod.verify_blocks(blocks()) == Violation(1, "bad-signature")
    assert len(read) == 2


def test_a_failure_a_worker_found_ends_the_callers_scan_within_a_slice(monkeypatch):
    # The worker's first batch fails at its first triple, so it answers at
    # once. Once that answer is readable, the caller may verify at most one
    # more batch before it reports the failure.
    monkeypatch.setattr(sigpass, "_cpus", lambda: 2)
    parent, stream, calls = os.getpid(), sigpass.Stream(), []

    def verify(public_key, message, signature):
        if os.getpid() == parent:
            if not calls:  # wait here until the worker's answer is readable
                answers = [worker.answers for worker in stream._workers]
                assert select.select(answers, [], [], 30)[0] == answers
            calls.append(message)
        return signature == b"ok"

    monkeypatch.setattr(crypto, "verify", verify)
    for i in range(400):
        stream.append((b"key", b"%d" % i, b"bad" if i == 0 else b"ok"), i)
    assert stream.close() == 0
    assert len(calls) <= sigpass.BATCH_TRIPLES
    assert_no_children()


# --- workers that fail --------------------------------------------------------

@pytest.mark.parametrize("how", ["raise", "exit"])
@pytest.mark.parametrize("bad_sigs, expected", [
    ((), None),
    ({(1, 1)}, Violation(1, "bad-signature")),  # in the worker's first batches
    ({(1, 1), (N_BLOCKS, 1)}, Violation(1, "bad-signature")),
    ({(N_BLOCKS, 1)}, Violation(N_BLOCKS, "bad-signature")),  # past them
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


def test_a_worker_gone_before_its_first_frame_is_lost_at_once(monkeypatch):
    # the worker exits before it reads: sending it the first frame breaks
    # its pipe, so the caller loses it while it holds no batch and verifies
    # every batch itself
    fork, lose, held = os.fork, sigpass.Stream._lose, []

    def exiting_fork():
        pid = fork()
        if pid == 0:
            os._exit(0)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # it has exited, and is not reaped
        return pid

    def recording_lose(stream, worker):
        held.append(len(worker.batches))
        lose(stream, worker)

    monkeypatch.setattr(os, "fork", exiting_fork)
    monkeypatch.setattr(sigpass.Stream, "_lose", recording_lose)
    chain = tampered_chain({(N_BLOCKS, 1)})
    with forced_split(2) as forks:
        assert verify_chain(chain) == serial_verdict(chain.blocks) == Violation(N_BLOCKS, "bad-signature")
    assert len(forks) == 1 and held == [0]
    assert_no_children()


def test_a_worker_answers_each_frame_and_exits_0_when_its_frames_end():
    triples = chain_triples(tampered_chain({(1, 1)}))[: 2 * BATCH]
    worker = sigpass._fork()
    try:
        frame = b"".join(encode_var_bytes(field) for triple in triples for field in triple)
        sigpass._write(worker.frames, encode_var_bytes(frame))
        answer = os.read(worker.answers, sigpass._ANSWER.size)
    finally:
        os.close(worker.frames)
    assert sigpass._ANSWER.unpack(answer) == (3,) == (sigpass._scan(triples),)
    assert os.read(worker.answers, 1) == b""  # it answered that frame only
    os.close(worker.answers)
    _, status = os.waitpid(worker.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert_no_children()


def interrupted_caller():
    """A `sigpass._scan` that raises KeyboardInterrupt in the caller, and
    scans as usual in a worker."""
    parent, scan = os.getpid(), sigpass._scan

    def scan_or_raise(triples):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return scan(triples)

    return scan_or_raise


@pytest.mark.parametrize("cpus", [2, 3])
def test_workers_are_killed_when_the_callers_own_scan_raises(monkeypatch, cpus):
    monkeypatch.setattr(sigpass, "_scan", interrupted_caller())
    with forced_split(cpus) as forks, pytest.raises(KeyboardInterrupt):
        verify_chain(build_chain(N_BLOCKS, PER_BLOCK))
    assert len(forks) == cpus - 1
    assert_no_children()


def test_workers_are_killed_when_the_caller_is_interrupted_between_forks(monkeypatch):
    fork, calls = sigpass._fork, []

    def interrupted_second_fork():
        calls.append(None)
        if len(calls) > 1:
            raise KeyboardInterrupt
        return fork()

    monkeypatch.setattr(sigpass, "_fork", interrupted_second_fork)
    with forced_split(3) as forks, pytest.raises(KeyboardInterrupt):
        verify_chain(build_chain(N_BLOCKS, PER_BLOCK))
    assert len(forks) == 1
    assert_no_children()


def test_worker_that_writes_a_short_result_is_not_trusted(monkeypatch):
    # the worker writes one byte of its first answer and exits
    parent, write = os.getpid(), os.write

    def short_write(fd, data):
        if os.getpid() != parent:
            write(fd, bytes(data[:1]))
            os._exit(0)
        return write(fd, data)

    monkeypatch.setattr(os, "write", short_write)
    chain = tampered_chain({(1, 2)})  # in the worker's first batch
    with forced_split(2) as forks:
        assert verify_chain(chain) == Violation(1, "bad-signature")
    assert len(forks) == 1
    assert_no_children()


# --- one process, nothing forked ----------------------------------------------

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
        monkeypatch.setattr(sigpass, "BATCH_TRIPLES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sigpass._cpus() == 1
        assert verify_chain(tampered_chain(bad_sigs)) == expected

    def test_another_live_thread(self, monkeypatch, no_fork, bad_sigs, expected):
        monkeypatch.setattr(sigpass, "BATCH_TRIPLES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert sigpass._cpus() == 1
            assert verify_chain(tampered_chain(bad_sigs)) == expected
        finally:
            done.set()
            thread.join()
        assert sigpass._cpus() == 2

    def test_short_chain(self, monkeypatch, no_fork, bad_sigs, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert TRIPLES < sigpass.BATCH_TRIPLES
        assert verify_chain(tampered_chain(bad_sigs)) == expected

    def test_no_fork_on_this_platform(self, monkeypatch, bad_sigs, expected):
        monkeypatch.setattr(sigpass, "BATCH_TRIPLES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert sigpass._cpus() == 1
        assert verify_chain(tampered_chain(bad_sigs)) == expected


def failing_fork(monkeypatch) -> list[None]:
    """Make every fork fail; the list gets an entry per attempt."""
    attempts = []

    def fork():
        attempts.append(None)
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(os, "fork", fork)
    return attempts


def test_failed_fork_leaves_the_chunk_to_the_caller(monkeypatch):
    monkeypatch.setattr(sigpass, "BATCH_TRIPLES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    attempts = failing_fork(monkeypatch)
    # no worker takes a batch: the caller verifies them all
    assert verify_chain(tampered_chain({(2, 0)})) == Violation(2, "bad-signature")
    assert len(attempts) == 1  # no fork is tried after one fails


# --- the streaming pass -------------------------------------------------------

STREAM_TRIPLES = 11  # in batches of `BATCH`: two full ones, then a partial one of three


def signed_triples(bad=(), n=STREAM_TRIPLES) -> list[sigpass.Triple]:
    """``n`` triples; those at the ``bad`` indices carry another key's
    signature."""
    signer, other = keypair(4000), keypair(4001)
    triples = []
    for i in range(n):
        message = b"triple-%d" % i
        key = other if i in bad else signer
        triples.append((signer.public_key, message, crypto.sign(key.private_key, message)))
    return triples


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("bad", [(), (1,), (5,), (9,), (1, 5), (5, 9), (3, 4), (8, 10)])
def test_stream_verdict_is_the_first_failing_triple(cpus, bad):
    # batches [0, 4) and [4, 8) go to workers when a second CPU may be used;
    # the partial batch [8, 11) is verified by the caller
    with forced_split(cpus) as forks:
        assert stream_verdict(signed_triples(bad)) == (min(bad) if bad else None)
    # a worker per batch up to one per other CPU; with three, a failure the
    # first worker finds before the second batch leaves it to nobody
    expected_forks = {min(cpus - 1, 2)}
    if cpus == 3 and bad and min(bad) < BATCH:
        expected_forks.add(1)
    assert len(forks) in expected_forks
    assert_no_children()


@contextlib.contextmanager
def stalled_workers(monkeypatch, passed):
    """Workers wait before verifying their first batch until the caller
    opens the gate (or 30 s pass), and then append their pid to
    ``passed``. Yields the function that opens the gate."""
    gate_r, gate_w = os.pipe()
    parent, scan = os.getpid(), sigpass._scan

    def scan_after_the_gate(triples):
        if os.getpid() != parent and not passed.exists():
            select.select([gate_r], [], [], 30)
            with open(passed, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
        return scan(triples)

    monkeypatch.setattr(sigpass, "_scan", scan_after_the_gate)
    try:
        yield lambda: os.write(gate_w, b"x")
    finally:
        os.close(gate_r)
        os.close(gate_w)


def callers_verifies(monkeypatch) -> list[bytes]:
    """The list gets the message of each triple the caller verifies."""
    parent, original, messages = os.getpid(), crypto.verify, []

    def recording(public_key, message, signature):
        if os.getpid() == parent:
            messages.append(message)
        return original(public_key, message, signature)

    monkeypatch.setattr(crypto, "verify", recording)
    return messages


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("bad", [(), (1,), (9,), (10,), (1, 9), (5, 10), (9, 10)])
def test_stream_verdict_holds_when_the_tail_is_verified_a_triple_at_a_time(monkeypatch, tmp_path, cpus, bad):
    # Batches of one triple, and stalled workers: each worker holds BACKLOG
    # of them unanswered, and the caller verifies the rest a triple at a
    # time, up to the first failure it finds.
    monkeypatch.setattr(sigpass, "BATCH_TRIPLES", 1)
    monkeypatch.setattr(sigpass, "_cpus", lambda: cpus)
    verified = callers_verifies(monkeypatch)
    triples, stream = signed_triples(bad), sigpass.Stream()
    with stalled_workers(monkeypatch, tmp_path / "passed") as open_gate:
        for index, triple in enumerate(triples):
            stream.append(triple, index)
        open_gate()
        assert stream.close() == (min(bad) if bad else None)
    first = sigpass.BACKLOG * (cpus - 1)
    last = min([i for i in bad if i >= first], default=STREAM_TRIPLES - 1)
    assert verified == [message for _, message, _ in triples[first : last + 1]]
    assert_no_children()


def test_stream_workers_are_killed_when_the_callers_own_scan_raises(monkeypatch):
    monkeypatch.setattr(sigpass, "_scan", interrupted_caller())
    with forced_split(3) as forks, pytest.raises(KeyboardInterrupt):
        stream_verdict(signed_triples())
    assert len(forks) == 2
    assert_no_children()


@pytest.mark.parametrize("bad", [(), (5,), (9,)])
def test_failed_fork_leaves_a_stream_chunk_to_the_caller(monkeypatch, bad):
    monkeypatch.setattr(sigpass, "BATCH_TRIPLES", BATCH)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    attempts = failing_fork(monkeypatch)
    assert stream_verdict(signed_triples(bad)) == (min(bad) if bad else None)
    assert len(attempts) == 1


# --- standing workers ---------------------------------------------------------

@pytest.mark.parametrize("bad", [(), (5,), (150,), (5, 150)])
def test_a_stalled_worker_does_not_block_append(monkeypatch, tmp_path, bad):
    # The one worker holds the first BACKLOG batches and stalls on the
    # first: every later batch is the caller's, and every append returns
    # before the worker verifies anything. Six whole batches, so the
    # caller's share does not hang on when the worker's answer comes.
    monkeypatch.setattr(sigpass, "_cpus", lambda: 2)
    verified = callers_verifies(monkeypatch)
    triples, stream, passed = signed_triples(bad, 6 * sigpass.BATCH_TRIPLES), sigpass.Stream(), tmp_path / "passed"
    with stalled_workers(monkeypatch, passed) as open_gate:
        for index, triple in enumerate(triples):
            stream.append(triple, index)
        assert not passed.exists()
        open_gate()
        assert stream.close() == (min(bad) if bad else None)
    first = sigpass.BACKLOG * sigpass.BATCH_TRIPLES
    last = 150 if 150 in bad else len(triples) - 1
    assert verified == [message for _, message, _ in triples[first : last + 1]]
    assert_no_children()


@pytest.mark.parametrize("bad", [(), (6,), (13,)])
def test_a_worker_killed_between_batches_leaves_only_its_unanswered_batches(monkeypatch, bad):
    # The worker answers batch [0, 4), stalls on [4, 8) and is killed there:
    # the caller verifies [4, 8) again, and every later batch, and never [0, 4).
    monkeypatch.setattr(sigpass, "BATCH_TRIPLES", BATCH)
    monkeypatch.setattr(sigpass, "_cpus", lambda: 2)
    parent, scan = os.getpid(), sigpass._scan
    calls = []

    def stall_on_the_second_batch(triples):
        calls.append(None)
        if os.getpid() != parent and len(calls) > 1:
            time.sleep(30)
        return scan(triples)

    monkeypatch.setattr(sigpass, "_scan", stall_on_the_second_batch)
    verified = callers_verifies(monkeypatch)
    triples, stream = signed_triples(bad, 16), sigpass.Stream()
    try:
        for index, triple in enumerate(triples[:4]):
            stream.append(triple, index)
        (worker,) = stream._workers
        assert select.select([worker.answers], [], [], 30)[0] == [worker.answers]
        for index, triple in enumerate(triples[4:8], 4):
            stream.append(triple, index)
        assert [(lo, len(batch)) for lo, batch in worker.batches] == [(4, 4)]  # [0, 4) is answered
        os.kill(worker.pid, signal.SIGKILL)
        os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
        for index, triple in enumerate(triples[8:], 8):
            stream.append(triple, index)
    finally:
        verdict = stream.close()
    assert verdict == (min(bad) if bad else None)
    last = min(bad, default=len(triples) - 1)
    assert verified == [message for _, message, _ in triples[4 : last + 1]]
    assert_no_children()


@pytest.mark.parametrize("bad", [(), (450,)])
def test_a_stream_under_a_one_millisecond_timer(monkeypatch, bad):
    # the benchmark's calibrator arms a wall-clock timer like this one: its
    # signal interrupts the pipe writes, reads and waits of the pass
    monkeypatch.setattr(sigpass, "_cpus", lambda: 2)
    triples = signed_triples(bad, 600)
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: None)
    signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
    try:
        verdict = stream_verdict(triples)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    assert verdict == (min(bad) if bad else None)
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_stream_holds_only_its_unanswered_batches(monkeypatch, cpus):
    # 2,000 triples made one at a time, so the test holds none of them: the
    # stream keeps its partial batch and each worker's unanswered ones, at
    # most 1 + BACKLOG * (cpus - 1) batches of BATCH_TRIPLES, whatever the
    # length of the pass
    monkeypatch.setattr(sigpass, "_cpus", lambda: cpus)
    signer = keypair(4000)

    def triples():
        for i in range(2000):
            message = b"triple-%d" % i
            yield signer.public_key, message, crypto.sign(signer.private_key, message)

    stream = sigpass.Stream()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index, triple in enumerate(triples()):
            stream.append(triple, index)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        verdict = stream.close()
    assert verdict is None
    assert held < 64 * 1024, f"the stream holds {held / 1024:.0f} KiB"
    assert_no_children()


def test_the_earliest_failure_names_the_verdict_whatever_answers_first(monkeypatch):
    # Two workers: the first holds [0, 4), which fails at 1, and waits at a
    # gate; the second answers [4, 8), which fails at 5, and the caller
    # takes that answer while appending [8, 12). The first worker's answer
    # comes last, and its failure's tag is the verdict.
    monkeypatch.setattr(sigpass, "BATCH_TRIPLES", BATCH)
    monkeypatch.setattr(sigpass, "_cpus", lambda: 3)
    gate_r, gate_w = os.pipe()
    parent, scan = os.getpid(), sigpass._scan

    def first_batch_waits(triples):
        if os.getpid() != parent and triples[0][1] == b"triple-0":
            select.select([gate_r], [], [], 30)
        return scan(triples)

    monkeypatch.setattr(sigpass, "_scan", first_batch_waits)
    triples, stream = signed_triples((1, 5), 12), sigpass.Stream()
    try:
        for i, triple in enumerate(triples[:8]):
            stream.append(triple, f"triple {i}")
        first, second = stream._workers
        assert select.select([second.answers], [], [], 30)[0] == [second.answers]
        for i, triple in enumerate(triples[8:], 8):
            stream.append(triple, f"triple {i}")
        assert stream.failed and not second.batches and len(first.batches) == 1
        os.write(gate_w, b"x")
    finally:
        verdict = stream.close()
        os.close(gate_r)
        os.close(gate_w)
    assert verdict == "triple 1"
    assert_no_children()


def test_a_tag_of_none_is_refused():
    # None is close()'s "every triple verified": a failing triple tagged None would read as clean
    with pytest.raises(ValueError, match="tag may not be None"):
        sigpass.Stream().append(signed_triples((0,), 1)[0], None)
