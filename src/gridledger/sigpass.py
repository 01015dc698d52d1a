"""The signature pass of a full-chain check, and of the votes a simulation
run tallies, on every CPU this process may use.

Both are one pass, `Stream`, over (public key, message, signature) triples
appended in chain (or commit) order, each with a tag naming its source: it
gives the tag of the first one `crypto.verify` rejects. `chain.verify_blocks`
appends each block's triples, tagged with the block's index, once its
structure is checked, `simnet.Sim.run` each round's votes, tagged with their
validators' ids, as it tallies them. One standing worker per spare CPU,
forked with `os.fork()` as full batches of `BATCH_TRIPLES` come in, lasts
the whole pass: a batch goes to it as one frame (the `codec` layout) over a
pipe, and it answers each, in order, with the position of its first failing
triple on a pipe of its own. Ed25519 verification holds the GIL, so threads
would not help. The caller reads answers without waiting and takes a batch
itself only when every worker holds `BACKLOG` unanswered ones, so `append`
never waits. `close` verifies the last partial batch and waits for the
answers of the batches before the first failure found.

A pass holds only the triples still unanswered, and their tags: the partial
batch being filled, and the batches each worker holds (at most `BACKLOG`
each), which it keeps to verify itself should that worker be lost. A
batch's triples are dropped once it is answered or verified, and nothing
appended after a known failure is kept, so a pass over any number of
triples holds at most ``1 + BACKLOG * (CPUs - 1)`` batches, and its callers
keep nothing per triple.

Each triple is verified once, in exactly one process. A worker that exits
or answers short is lost, never clean: the caller verifies each batch it
left unanswered. Every worker is killed and reaped before `Stream.close`
returns or raises. Nothing is forked when the process may use one CPU, the
platform has no `os.fork`, or more than one thread is alive (a forked child
gets only the calling thread, and locks other threads hold stay locked in
it); after a fork fails, no other is tried.
"""

from __future__ import annotations

import os
import select
import signal
import struct
import sys
import threading
from collections import deque
from typing import Sequence

from . import crypto
from .codec import U32, ByteReader, encode_var_bytes

# Making a worker (two pipes and a fork) inside an idle run of the benchmark
# network took 1.2-1.6 ms on a 2-core x86-64 VM, and one verify 0.13-0.24
# ms: a batch is 4-8 ms of verifies, so the first one pays for the fork.
# Batches of 6 cost the benchmark's ingest run, whose 24 votes fork nothing
# at 32, 0.5-4.7% of its blocks per second (three 15 s runs each).
BATCH_TRIPLES = 32

# Batches a worker may hold unanswered before the caller takes the next one.
BACKLOG = 2

Triple = tuple[bytes, bytes, bytes]

_ANSWER = struct.Struct(">q")  # a batch's first failing index in it, or -1
_NONE = (sys.maxsize, None)  # no failing triple found, as (index, tag)


class Stream:
    """A signature pass over triples appended one at a time, in order, each
    with a tag that is not None. `close` gives the tag of the first triple
    that does not verify, or None: a None tag is refused, so that a failing
    triple can never read as a clean pass."""

    def __init__(self) -> None:
        self._batch: list[tuple[Triple, object]] = []  # the (triple, tag) pairs since the last full batch
        self._lo = 0  # the index of the first of them
        self._spare = _cpus() - 1  # workers still to fork
        self._workers: list[_Worker] = []  # every worker forked, in order
        self._failing = _NONE  # the earliest failing triple found yet, as (index, tag)

    @property
    def failed(self) -> bool:
        """Whether a triple is known to fail, so that no triple appended
        from now on can be the answer."""
        return self._failing < _NONE

    def append(self, triple: Triple, tag: object) -> None:
        if tag is None:
            raise ValueError("a triple's tag may not be None")
        if self.failed:
            return
        batch = self._batch
        batch.append((triple, tag))
        if len(batch) < BATCH_TRIPLES:
            return
        lo = self._lo
        self._batch, self._lo = [], lo + len(batch)
        self._poll(0)
        if not self.failed and not self._send(lo, batch):
            self._verify(lo, batch)

    def close(self) -> object:
        """Verify the last partial batch, wait for the answers of the
        batches before the first failure found, and return the tag of the
        first triple that does not verify, or None. Every worker is killed
        and reaped, whether this returns or raises."""
        try:
            self._poll(0)
            if not self.failed:
                self._verify(self._lo, self._batch)
            while any(w.batches and w.batches[0][0] < self._failing[0] for w in self._workers):
                self._poll(None)
            return self._failing[1]
        finally:
            for worker in self._workers:
                os.kill(worker.pid, signal.SIGKILL)
                os.close(worker.frames)
                os.close(worker.answers)
                os.waitpid(worker.pid, 0)
            self._workers.clear()

    def _send(self, lo: int, batch: list[tuple[Triple, object]]) -> bool:
        """Give ``batch``, whose first triple is index ``lo``, to a worker:
        a new one while a spare CPU is left, else the live one holding the
        fewest, if fewer than `BACKLOG`. False when no worker takes it."""
        new = _fork() if self._spare > 0 else None
        self._spare = self._spare - 1 if new is not None else 0
        self._workers += [new] if new is not None else []
        live = [w for w in self._workers if not w.lost and len(w.batches) < BACKLOG]
        if not live:
            return False
        worker = min(live, key=lambda w: len(w.batches))
        frame = b"".join(encode_var_bytes(field) for triple, _ in batch for field in triple)
        try:
            _write(worker.frames, encode_var_bytes(frame))
        except BrokenPipeError:  # the worker is gone
            self._lose(worker)
            return False
        worker.batches.append((lo, batch))
        return True

    def _poll(self, timeout: float | None) -> None:
        """Take the answers the workers have written: those waiting now, or
        with ``timeout`` None, once at least one is."""
        busy = {w.answers: w for w in self._workers if w.batches}
        if busy:
            for fd in select.select(list(busy), [], [], timeout)[0]:
                self._take(busy[fd])

    def _take(self, worker: _Worker) -> None:
        """Read what ``worker`` has written: an answer per batch, or, from a
        worker that exited or answered short, less. An answered batch's
        triples are dropped."""
        data = os.read(worker.answers, _ANSWER.size * len(worker.batches))
        whole = len(data) - len(data) % _ANSWER.size
        for (found,) in _ANSWER.iter_unpack(data[:whole]):
            lo, batch = worker.batches.popleft()
            self._failing = min(self._failing, (lo + found, batch[found][1]) if found >= 0 else _NONE)
        if whole == 0 or whole < len(data):
            self._lose(worker)

    def _lose(self, worker: _Worker) -> None:
        """Verify in the process each batch ``worker`` left unanswered that
        could still hold the answer; it gets no more."""
        worker.lost = True
        while worker.batches:
            lo, triples = worker.batches.popleft()
            if lo < self._failing[0]:
                self._verify(lo, triples)

    def _verify(self, lo: int, batch: list[tuple[Triple, object]]) -> None:
        """Verify ``batch``, whose first triple is index ``lo``, in this process."""
        found = _scan([triple for triple, _ in batch], 0, len(batch))
        self._failing = min(self._failing, (lo + found, batch[found][1]) if found >= 0 else _NONE)


class _Worker:
    """A standing worker: its pid, the pipe ends it is sent batches on and
    answers on, and the batches it holds unanswered, in order, each as the
    index of its first triple and its (triple, tag) pairs."""

    def __init__(self, pid: int, frames: int, answers: int) -> None:
        self.pid, self.frames, self.answers = pid, frames, answers
        self.batches: deque[tuple[int, list[tuple[Triple, object]]]] = deque()
        self.lost = False


def _cpus() -> int:
    """How many CPUs a pass may use: 1 when it may not fork."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _scan(triples: Sequence[Triple], lo: int, hi: int) -> int:
    """Index of the first failing triple in ``triples[lo:hi]``, or -1."""
    for i in range(lo, hi):
        if not crypto.verify(*triples[i]):
            return i
    return -1


def _fork() -> _Worker | None:
    """Fork a worker, or None when none could be made."""
    fds: list[int] = []
    pid = None
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        return None
    finally:
        if pid is None:
            for fd in fds:
                os.close(fd)
    frames_r, frames_w, answers_r, answers_w = fds
    if pid == 0:
        # The worker: whatever happens, it leaves here through os._exit and
        # never runs the caller's code. It answers each batch framed on its
        # pipe until that pipe ends or it is killed.
        status = 1
        try:
            os.close(frames_w)
            os.close(answers_r)
            with open(frames_r, "rb") as frames:
                while head := frames.read(U32.size):
                    body = frames.read(U32.unpack(head)[0])
                    batch, triples = ByteReader(body), []
                    while batch.mark() < len(body):
                        triples.append((batch.var_bytes(), batch.var_bytes(), batch.var_bytes()))
                    _write(answers_w, _ANSWER.pack(_scan(triples, 0, len(triples))))
            status = 0
        finally:
            os._exit(status)
    os.close(frames_r)
    os.close(answers_w)
    return _Worker(pid, frames_w, answers_r)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:  # a signal can cut a long write to a pipe short
        view = view[os.write(fd, view) :]
