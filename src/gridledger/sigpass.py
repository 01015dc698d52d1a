"""The signature pass of a full-chain check, and of the votes a simulation
run tallied, on every CPU this process may use.

`first_failing` takes (public key, message, signature) triples in chain
(or commit) order and returns the index of the first one `crypto.verify`
rejects. The list is split into contiguous chunks, one per process: the
caller verifies chunk 0 itself, and each other chunk goes to a worker made
with `os.fork()`, which writes the index of the first failing triple of
its chunk (or -1) to a pipe and ends with `os._exit`. Ed25519
verification holds the GIL, so threads would not help.

Each triple is verified once, in exactly one process. A worker that exits
without writing a full result counts as unknown, never as clean: the
caller verifies that chunk itself. Workers whose chunks can no longer
change the answer are killed, and every worker is reaped before
`first_failing` returns or raises.

Nothing is forked, and the caller verifies every triple in order, when the
process may use one CPU, the platform has no `os.fork`, more than one
thread is alive (a forked child gets only the calling thread, and locks
other threads hold stay locked in it), or there are too few triples for a
second chunk of at least `MIN_CHUNK_TRIPLES`.
"""

from __future__ import annotations

import os
import signal
import struct
import threading
from typing import Sequence

from . import crypto

# Forking, exiting and reaping a worker of a process holding a 300-block
# import took 1.5 ms (median, 2.3 ms at most) on a 2-core x86-64 VM, and
# one verify 0.14-0.2 ms. A chunk this long is 18-25 ms of work, so a
# worker is always worth its fork.
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
            worker = workers.pop(lo, None)
            found = _result(*worker) if worker is not None else None
            if found is None:  # the caller's own chunk, or a worker's that was lost
                found = _scan(triples, lo, hi)
            if found >= 0:
                return found
        return None
    finally:
        for pid, read_fd in workers.values():
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)


def processes(n_triples: int) -> int:
    """How many processes `first_failing` uses for ``n_triples``, the
    caller included."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, n_triples // MIN_CHUNK_TRIPLES))


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
