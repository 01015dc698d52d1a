"""Reference slices interleaved with the measured work, to factor out the
machine's speed.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed CPU-bound loop runs up to 1.9x slower for seconds to minutes at a
time, in process CPU time as much as in wall time. A run-level median
cannot average that out, because a whole run can fall into one phase.

`Calibrator.start()` arms a wall-clock timer (SIGALRM). Every
`INTERVAL_S` the main thread stops between two bytecodes and runs one
reference slice: a fixed mix of interpreter work, Ed25519 verifies and
SHA-256 from `cryptography` and `hashlib`, never gridledger code. The
slices sample the machine's speed all through the measured work, on the
same core and at the same moments. For an interval of wall time,

    program_s = wall_s - time spent in slices inside it
    scaled_s  = program_s * REF_SLICE_S / mean slice duration inside it

`scaled_s` is the interval's time at the reference speed, at which one
slice takes REF_SLICE_S. A change to gridledger moves `program_s` and
leaves the slices alone; a slower phase of the machine moves both by the
same factor. On the benchmark's 2-core VM, per-batch idle throughput had
a quartile spread of 40% of its median raw and 6% scaled, over batches
whose machine speed differed by 1.75x.
"""

from __future__ import annotations

import hashlib
import signal
from bisect import bisect_left
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

INTERVAL_S = 0.03
REF_SLICE_S = 0.002  # a middling slice on the VM the bounds were set on

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = b"gridledger benchmark reference slice"
_SIGNATURE = _KEY.sign(_MESSAGE)
_BLOB = bytes(256)
_TABLE: dict[int, str] = {}


def reference_slice() -> None:
    # No object the garbage collector tracks is made here, so a slice never
    # starts a collection, whose cost would depend on the program's heap.
    table = _TABLE
    for i in range(3000):
        table[i & 255] = str(i)
    for _ in range(8):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
        hashlib.sha256(_BLOB).digest()


class Calibrator:
    """Runs reference slices on a timer and scales intervals by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # summed duration of the slices so far
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        reference_slice()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        self.spent += self.durations[-1]
        self._busy = False

    def clock(self) -> float:
        """perf_counter less the slices so far: a clock that stands still
        while a slice runs, for timing spans of program work."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no slice ran in between
                return now - spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, start: float, end: float) -> tuple[float, float, int]:
        """Slices that ran within perf_counter interval [start, end):
        their summed and mean duration and their count. A slice runs
        between two bytecodes, so it lies wholly inside or outside."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        spent = self.durations[lo:hi]
        return sum(spent), (sum(spent) / len(spent) if spent else 0.0), len(spent)

    def scale(self, start: float, end: float, mean_s: float | None = None) -> float:
        """Seconds of program time in [start, end) at the reference speed.
        `mean_s` gives the slice duration to scale by, for an interval too
        short to hold slices of its own."""
        spent, mean, count = self.window(start, end)
        if mean_s is None:
            if count == 0:
                raise ValueError("interval too short to hold a reference slice")
            mean_s = mean
        return (end - start - spent) * REF_SLICE_S / mean_s

    def mean_slice(self) -> float:
        return sum(self.durations) / len(self.durations)
