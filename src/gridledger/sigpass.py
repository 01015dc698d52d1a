"""The signature pass of a full-chain check, and of the votes a simulation
run tallies, on every CPU this process may use.

Both passes take (public key, message, signature) triples in chain (or
commit) order and give the index of the first one `crypto.verify` rejects.
Work goes to workers made with `os.fork()`: each inherits the triples,
writes the index of the first failing triple of its chunk (or -1) to a pipe
and ends with `os._exit`. No triple crosses a pipe. Ed25519 verification
holds the GIL, so threads would not help.

- `first_failing` checks a list it is given whole, as `chain.verify_blocks`
  does: the list is split into contiguous chunks, one per process, and the
  caller verifies chunk 0 itself.
- `Stream` checks triples while the caller is still producing them, as
  `simnet.Sim.run` does with its votes: each time `MIN_CHUNK_TRIPLES` are
  waiting, a worker is forked for them, and the run goes on. `close`
  verifies the tail, the last triples that fill no chunk, in the process,
  then reaps the workers in chunk order.

Each triple is verified once, in exactly one process. A worker that exits
without writing a full result counts as unknown, never as clean: the
caller verifies that chunk itself. Workers whose chunks can no longer
change the answer are killed, and every worker is reaped before
`first_failing` or `Stream.close` returns or raises.

Nothing is forked, and the caller verifies every triple in order, when the
process may use one CPU, the platform has no `os.fork`, or more than one
thread is alive (a forked child gets only the calling thread, and locks
other threads hold stay locked in it). `first_failing` also forks nothing
for too few triples to give a second chunk of at least `MIN_CHUNK_TRIPLES`,
and a `Stream` for fewer than `MIN_CHUNK_TRIPLES`.
"""

from __future__ import annotations

import os
import signal
import struct
import threading
from typing import Sequence

from . import crypto

# Forking, exiting and reaping a worker of a process holding a 300-block
# import took 1.5 ms (median, 2.3 ms at most) on a 2-core x86-64 VM. The
# fork alone, inside an idle run of the 150-node benchmark network, took
# 0.7-1.5 ms (median 0.9 ms; up to 3.6 ms in the first run of a process),
# and one verify takes 0.14-0.2 ms. A chunk this long is 18-25 ms of work,
# so a worker is always worth its fork.
MIN_CHUNK_TRIPLES = 128

Triple = tuple[bytes, bytes, bytes]

_RESULT = struct.Struct(">q")  # a worker's answer: first failing index or -1


def first_failing(triples: Sequence[Triple]) -> int | None:
    """Index of the first triple whose signature does not verify, or None
    when all of them verify."""
    bounds = _chunk_bounds(len(triples), processes(len(triples)))
    workers: dict[int, tuple[int, int]] = {}  # chunk start -> pid, pipe read end
    try:
        for lo, hi in bounds[1:]:
            worker = _fork_scan(triples, lo, hi)
            if worker is not None:
                workers[lo] = worker
        for lo, hi in bounds:
            found = _settle(triples, lo, hi, workers.pop(lo, None))
            if found >= 0:
                return found
        return None
    finally:
        for pid, read_fd in workers.values():
            _kill(pid, read_fd)


class Stream:
    """A signature pass over triples appended one at a time, in order.

    Each time `MIN_CHUNK_TRIPLES` appended triples are waiting and the
    process may use another CPU, a worker is forked to verify them while
    the caller goes on. At most one worker per other CPU is live: before
    forking past that, the oldest is reaped. `close` gives the index of the
    first triple that does not verify, or None."""

    def __init__(self) -> None:
        self._triples: list[Triple] = []
        self._lo = 0  # the first triple no chunk holds
        # (lo, hi, worker's pid and pipe read end or None) of each chunk
        # not reaped yet, in order
        self._chunks: list[tuple[int, int, tuple[int, int] | None]] = []
        self._failing: int | None = None  # found in a reaped chunk

    def append(self, triple: Triple) -> None:
        self._triples.append(triple)
        hi = len(self._triples)
        if hi - self._lo < MIN_CHUNK_TRIPLES or self._failing is not None:
            return
        cpus = _cpus()
        if cpus < 2:
            return
        while len(self._chunks) >= cpus - 1 and self._failing is None:
            self._failing = self._reap()
        if self._failing is None:
            self._chunks.append((self._lo, hi, _fork_scan(self._triples, self._lo, hi)))
            self._lo = hi

    def close(self) -> int | None:
        """Verify the tail, reap the workers in chunk order, and return the
        index of the first triple that does not verify, or None. Every
        worker is reaped, whether this returns or raises."""
        try:
            if self._failing is None:
                tail = _scan(self._triples, self._lo, len(self._triples))
                while self._chunks and self._failing is None:
                    self._failing = self._reap()
                if self._failing is None and tail >= 0:
                    self._failing = tail
            return self._failing
        finally:
            for _, _, worker in self._chunks:
                if worker is not None:
                    _kill(*worker)
            self._chunks.clear()

    def _reap(self) -> int | None:
        """The first failing index of the oldest chunk not reaped, or None
        when it is clean."""
        found = _settle(self._triples, *self._chunks.pop(0))
        return found if found >= 0 else None


def processes(n_triples: int) -> int:
    """How many processes `first_failing` uses for ``n_triples``, the
    caller included."""
    return max(1, min(_cpus(), n_triples // MIN_CHUNK_TRIPLES))


def _cpus() -> int:
    """How many CPUs a pass may use: 1 when it may not fork."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _chunk_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous [lo, hi) ranges covering range(n), as even as
    can be."""
    edges = [n * k // parts for k in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _scan(triples: Sequence[Triple], lo: int, hi: int) -> int:
    """Index of the first failing triple in ``triples[lo:hi]``, or -1."""
    for i in range(lo, hi):
        if not crypto.verify(*triples[i]):
            return i
    return -1


def _settle(triples: Sequence[Triple], lo: int, hi: int, worker: tuple[int, int] | None) -> int:
    """Index of the first failing triple in ``triples[lo:hi]``, or -1: the
    answer of the chunk's worker, reaped here, or this process's own scan
    when the chunk has no worker or its worker was lost."""
    found = _result(*worker) if worker is not None else None
    return _scan(triples, lo, hi) if found is None else found


def _fork_scan(triples: Sequence[Triple], lo: int, hi: int) -> tuple[int, int] | None:
    """Fork a worker that scans ``triples[lo:hi]``. Returns its pid and the
    read end of its pipe, or None when no worker could be made."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # The worker: whatever happens, it leaves here through os._exit and
        # never runs the caller's code. A result shorter than _RESULT.size
        # (nothing, if it fails) reads as lost.
        status = 1
        try:
            os.close(read_fd)
            os.write(write_fd, _RESULT.pack(_scan(triples, lo, hi)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _result(pid: int, read_fd: int) -> int | None:
    """Reap a worker: the index it found (-1 for a clean chunk), or None
    when it exited without a full result."""
    try:
        data = os.read(read_fd, _RESULT.size)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if status != 0 or len(data) != _RESULT.size:
        return None
    return _RESULT.unpack(data)[0]


def _kill(pid: int, read_fd: int) -> None:
    """End a worker whose answer is no longer needed, and reap it."""
    os.kill(pid, signal.SIGKILL)
    os.close(read_fd)
    os.waitpid(pid, 0)
