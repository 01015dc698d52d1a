"""Deterministic discrete-event simulation of the whole network.

One seeded RNG stream drives every random choice (node keys, payload bytes,
envelope entropy, validator sampling, fault targets), each draw leaving a
labeled line in the trace, so a (seed, config, scenario) triple always
reproduces byte-identical outputs.

Time is discrete ticks (1 tick = 1 simulated second; the 10-minute block
interval is 600 ticks). Every happening, a round among them, is an event on
one queue: round r runs at tick (r + 1) * interval, after every other event
of that tick, and schedules round r + 1. `Sim.step` runs one tick's due
events; `Sim.run` visits only the ticks with one due. Data-path messages
(upload request, grant, envelope, share envelope) travel with a configurable
delay, default one tick. A message is only its bytes: `Sim._send` encodes a
value once, in its kind's `codec` layout (`_DATA_PATH`), and the tap logs
those bytes; `Sim._deliver` decodes them once, for a live receiver, and
hands its handler the value. A ``tamper-in-flight`` fault flips a bit of the
decoded envelope's payload ciphertext, as flipping it in the bytes would.
The recorder learns who uploads from the request it granted (the message's
sender); an upload's `_UploadFlow` holds only the simulator's bookkeeping:
what its uploader seals once granted, and the forge-record fault that made
it. The seal/validate/vote/commit round runs atomically, with its
proposal/vote/commit-notice messages traced at its tick, so a block sealed
at tick T is decided at tick T. The round validates its block once, skipping
the record signatures intake verified (by exact triple): the validators
share that check, and `record_protocol.commit` gates on it, so the block is
appended without another check. Record and recorder signatures are verified
where their verdict is read. A vote's signature steers nothing: `commit`
admits a vote (an assigned validator's, on this block) unverified, and each
`run` (or a direct `step`) verifies all it admitted in one `sigpass.Stream`:
standing workers, one per spare CPU, take full batches as the run goes on,
and the process the rest. The first vote that fails raises `ProtocolError`.
Pending records live in one shared queue drained by whichever recorder is on
duty when the interval closes, so an upload is never stranded by a mid-flight
duty rotation. The queue, `Sim.pending`, maps each record to the
forge-record fault that made it, if any, which the validators judge it by,
and to the triple intake verified, the only triples the round's check skips.

A round is committed once, not once per node. Each node's replica is a view
of the canonical chain: the number of its blocks the node holds (all of
them while it is live, frozen at its first crash) and the blocks a
`tamper-chain-copy` fault replaced (`Sim.replica`).

Each happening is appended once to one log, `Sim.log`, as a `NamedTuple`
event that renders its own ``trace.txt`` text; a line no fold reads is a
`Note`. Each round ends in one `RoundEnd`, whose `credit.RoundOutcome` is
what `credit.apply_round` took; the `credit.CreditEvent`s it booked follow
it (they render no text), as do those `credit.apply_intake` booked for a
refused upload envelope's `Refusal`. So the report's credits are a fold of
the log, and a fold of the transition over the log's outcomes replays them.
A committed round is one `CommitNotice` for the notices its recorder sends
every live node; it traces one line that counts them and names the crashed
nodes, and the tap, a view of the log, expands it to one entry per notice
as it is read.
The report's trace, tap, message counts and tables are folds of a snapshot
of the log, and so are the fault outcomes: each step a fault takes is a
`FaultStep` event, and nothing writes an outcome as the run goes.

Scenario files are line-oriented text; ``#`` starts a comment::

    node <id> assessment <n>
    authorize <id>
    upload <id> <class> <size> at <tick>
    share <from> <to> <upload-ref> at <tick>
    fault <kind> <target> at <tick> [key=value ...]
    run until <tick>

``<upload-ref>`` is the 0-based ordinal of an ``upload`` directive in file
order (payload digests are seed-derived, so a scenario cannot name them).
A node id, size, tick or numeric param that is negative or 2**64 or more,
and a second ``run until``, are parse errors.
Fault kinds and the ``key=value`` params each takes (any other key is a parse
error):

- ``forge-record <node>`` fabricates an upload at the activation tick:
  ``class=`` (1..64 bytes, default ``grid``), ``size=`` (default 32).
- ``tamper-chain-copy <node>`` corrupts one block of the node's chain copy:
  ``block=<index>`` (default drawn from the RNG).
- ``tamper-in-flight <node>`` flips a bit of the payload ciphertext of the
  next envelope the node receives; ``crash-node <node>`` and
  ``byzantine-validator <node>`` (inverts its verdicts) take no params either.
- ``fail-storage-unit <unit>`` (``u<n>`` or ``<n>``) wipes the unit:
  ``recover=<tick>``, after the fault tick, restores it from the replicas.

If no ``node`` directives appear, ``node_count`` nodes with assessment 0 are
created; by default that is the committee seats plus the candidates a
round's committee draws (`SimConfig`).
"""

from __future__ import annotations

import heapq
import random
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

from . import chain as chain_mod
from . import credit as credit_mod
from . import record_protocol as record_mod
from . import share_protocol as share_mod
from . import sigpass
from .chain import Block, Chain, Record, RecordKind, RecordMetadata
from .codec import U64, Layout
from .credit import CreditEvent, CreditReason, RejectReason, RoleAssignment, RoundOutcome
from .crypto import Keypair, digest, generate_keypair
from .datastore import DataStore, RepairReport, ReplicaStatus, StorageError
from .record_protocol import UPLOAD_ENVELOPE, UPLOAD_GRANT, UPLOAD_REQUEST, Rejected
from .share_protocol import SHARE_ENVELOPE, ShareTransaction


class FaultKind(str, Enum):
    """A fault a scenario can inject; the value is its scenario keyword."""

    FORGE_RECORD = "forge-record"
    TAMPER_CHAIN_COPY = "tamper-chain-copy"
    TAMPER_IN_FLIGHT = "tamper-in-flight"
    CRASH_NODE = "crash-node"
    BYZANTINE_VALIDATOR = "byzantine-validator"
    FAIL_STORAGE_UNIT = "fail-storage-unit"


# The params each kind accepts; every one but ``class`` is a non-negative int.
_FAULT_PARAMS: dict[FaultKind, tuple[str, ...]] = {
    FaultKind.FORGE_RECORD: ("class", "size"),
    FaultKind.TAMPER_CHAIN_COPY: ("block",),
    FaultKind.FAIL_STORAGE_UNIT: ("recover",),
}

# A run's datastore: each at-rest copy goes to REPLICATION_FACTOR of its units.
STORAGE_UNIT_COUNT = 5
REPLICATION_FACTOR = 3


@dataclass
class SimConfig:
    """``node_count`` applies to a scenario without ``node`` lines. By
    default it is the fewest nodes that seat both committees and leave the
    ``credit.VALIDATOR_COUNT - 1`` candidates a round's committee draws."""

    seed: int = 0
    node_count: int | None = None
    r_max: int = credit_mod.DEFAULT_RECORDER_CAPACITY
    s_max: int = credit_mod.DEFAULT_SUPERVISOR_CAPACITY
    block_interval_ticks: int = 600
    epoch_length_blocks: int = 10
    message_delay_ticks: int = 1

    def __post_init__(self):
        if self.node_count is None:
            self.node_count = self.r_max + self.s_max + credit_mod.VALIDATOR_COUNT - 1


class ScenarioError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UploadPlan(NamedTuple):
    ordinal: int
    node_id: int
    data_class: str
    size: int
    tick: int
    line: int


class SharePlan(NamedTuple):
    sender: int
    receiver: int
    upload_ref: int
    tick: int
    line: int


class FaultSpec(NamedTuple):
    """``params`` hold ints, except ``class``, as `parse_scenario` stores them."""

    kind: FaultKind
    target: int | str
    tick: int
    params: Mapping[str, int | str] = MappingProxyType({})
    line: int = 0


@dataclass
class Scenario:
    nodes: list[tuple[int, int]] = field(default_factory=list)
    authorized: list[tuple[int, int]] = field(default_factory=list)  # (node_id, line)
    uploads: list[UploadPlan] = field(default_factory=list)
    shares: list[SharePlan] = field(default_factory=list)
    faults: list[FaultSpec] = field(default_factory=list)
    run_until: int | None = None


def _int_field(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(line, f"{what} must be an integer, got {token!r}") from None


def _nonneg_field(token: str, line: int, what: str) -> int:
    """A u64: a tick is stamped on a block and a node id hashed as one."""
    number = _int_field(token, line, what)
    if number < 0:
        raise ScenarioError(line, f"{what} must be non-negative")
    if number >= 2**64:
        raise ScenarioError(line, f"{what} must be below 2**64")
    return number


def _data_class_field(token: str, line: int, what: str) -> str:
    if not 1 <= len(token.encode("utf-8")) <= chain_mod.MAX_DATA_CLASS_LEN:
        raise ScenarioError(line, f"{what} must be 1..{chain_mod.MAX_DATA_CLASS_LEN} bytes")
    return token


def _fault_params(kind: FaultKind, tick: int, tokens: list[str], line: int) -> dict[str, int | str]:
    params: dict[str, int | str] = {}
    for token in tokens:
        if "=" not in token:
            raise ScenarioError(line, f"fault parameter {token!r} is not key=value")
        key, value = token.split("=", 1)
        if key not in _FAULT_PARAMS.get(kind, ()):
            raise ScenarioError(line, f"{kind.value} takes no parameter {key!r}")
        if key == "class":
            params[key] = _data_class_field(value, line, "class parameter")
            continue
        params[key] = _nonneg_field(value, line, key)
    if params.get("recover", tick + 1) <= tick:
        raise ScenarioError(line, "recover must be after the fault tick")
    return params


def text_lines(text: str) -> list[str]:
    """``text`` split at each newline and nowhere else, so the lines are
    numbered as an editor numbers them; a final newline starts no line."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    seen_nodes: set[int] = set()
    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "node":
            if len(tokens) != 4 or tokens[2] != "assessment":
                raise ScenarioError(lineno, "expected: node <id> assessment <n>")
            nid = _nonneg_field(tokens[1], lineno, "node id")
            score = _int_field(tokens[3], lineno, "assessment")
            if nid in seen_nodes:
                raise ScenarioError(lineno, f"duplicate node id {nid}")
            seen_nodes.add(nid)
            scenario.nodes.append((nid, score))
        elif directive == "authorize":
            if len(tokens) != 2:
                raise ScenarioError(lineno, "expected: authorize <id>")
            scenario.authorized.append((_nonneg_field(tokens[1], lineno, "node id"), lineno))
        elif directive == "upload":
            if len(tokens) != 6 or tokens[4] != "at":
                raise ScenarioError(lineno, "expected: upload <id> <class> <size> at <tick>")
            data_class = _data_class_field(tokens[2], lineno, "data class")
            size = _nonneg_field(tokens[3], lineno, "size")
            tick = _nonneg_field(tokens[5], lineno, "tick")
            scenario.uploads.append(
                UploadPlan(
                    ordinal=len(scenario.uploads),
                    node_id=_nonneg_field(tokens[1], lineno, "node id"),
                    data_class=data_class,
                    size=size,
                    tick=tick,
                    line=lineno,
                )
            )
        elif directive == "share":
            if len(tokens) != 6 or tokens[4] != "at":
                raise ScenarioError(lineno, "expected: share <from> <to> <upload-ref> at <tick>")
            scenario.shares.append(
                SharePlan(
                    sender=_nonneg_field(tokens[1], lineno, "sender id"),
                    receiver=_nonneg_field(tokens[2], lineno, "receiver id"),
                    upload_ref=_int_field(tokens[3], lineno, "upload ref"),
                    tick=_nonneg_field(tokens[5], lineno, "tick"),
                    line=lineno,
                )
            )
        elif directive == "fault":
            if len(tokens) < 5 or tokens[3] != "at":
                raise ScenarioError(lineno, "expected: fault <kind> <target> at <tick> [k=v ...]")
            try:
                kind = FaultKind(tokens[1])
            except ValueError:
                raise ScenarioError(lineno, f"unknown fault kind {tokens[1]!r}") from None
            tick = _nonneg_field(tokens[4], lineno, "tick")
            params = _fault_params(kind, tick, tokens[5:], lineno)
            target: int | str
            if kind is FaultKind.FAIL_STORAGE_UNIT:
                target = tokens[2] if tokens[2].startswith("u") else f"u{tokens[2]}"
            else:
                target = _nonneg_field(tokens[2], lineno, "target node")
            scenario.faults.append(
                FaultSpec(kind=kind, target=target, tick=tick, params=params, line=lineno)
            )
        elif directive == "run":
            if len(tokens) != 3 or tokens[1] != "until":
                raise ScenarioError(lineno, "expected: run until <tick>")
            if scenario.run_until is not None:
                raise ScenarioError(lineno, "second 'run until' directive")
            scenario.run_until = _nonneg_field(tokens[2], lineno, "tick")
        else:
            raise ScenarioError(lineno, f"unknown directive {directive!r}")
    for ref in scenario.shares:
        if not 0 <= ref.upload_ref < len(scenario.uploads):
            raise ScenarioError(ref.line, f"upload ref {ref.upload_ref} out of range")
    return scenario


# --- runtime pieces -------------------------------------------------------

def _flip_bit(data: bytes, index: int) -> bytes:
    """``data`` with the low bit of byte ``index`` inverted."""
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1 :]


def _tampered(envelope, pos: int):
    """``envelope`` with the low bit of byte ``pos`` of its payload ciphertext inverted."""
    sealed = envelope.payload_envelope
    return envelope._replace(payload_envelope=sealed._replace(ciphertext=_flip_bit(sealed.ciphertext, pos)))


@dataclass
class _Node:
    keypair: Keypair
    crash: int | None = None  # the crash-node fault that took it down, by index in `Sim.faults`
    byzantine: bool = False
    tamper_armed: list[int] = field(default_factory=list)  # tamper-in-flight faults, oldest first
    held: int | None = None  # canonical blocks its replica holds; None (all) until it crashes
    overrides: dict[int, Block] = field(default_factory=dict)  # tampered blocks by index

    @property
    def crashed(self) -> bool:
        return self.crash is not None


class _UploadFlow(NamedTuple):
    """The simulator's bookkeeping of one upload: what its uploader will
    seal once granted, and the forge-record fault that made it, if any."""

    payload: bytes
    metadata: RecordMetadata
    forge: int | None = None


class _Msg(NamedTuple):
    """In-flight message: ``data`` is all it carries, the bytes `_deliver`
    decodes; ``flow`` is the upload it belongs to, if any."""

    kind: str
    src: int
    dst: int
    data: bytes
    flow: _UploadFlow | None = None
    tampered_by: int | None = None  # the tamper-in-flight fault that flipped a bit


def _line(tick: int, kind: str, src: int | None, dst: int | None, detail: str) -> str:
    """One ``trace.txt`` line; ``-`` stands for no source or destination."""
    return f"{tick}\t{kind}\t{'-' if src is None else src}\t{'-' if dst is None else dst}\t{detail}\n"


# The events of `Sim.log`. Each renders its own trace.txt text, "" for none.


class Note(NamedTuple):
    """A trace line no fold reads."""

    tick: int
    kind: str
    src: int | None
    dst: int | None
    detail: str

    def trace_text(self) -> str:
        return _line(*self)


class TapEntry(NamedTuple):
    """A message put on the wire. A consensus message is handled within its
    tick, so it carries its trace ``detail``; others are traced on delivery."""

    tick: int
    kind: str
    src: int
    dst: int
    data: bytes
    detail: str | None = None

    def trace_text(self) -> str:
        return "" if self.detail is None else _line(self.tick, self.kind, self.src, self.dst, self.detail)

    def tap_entries(self) -> tuple[TapEntry]:
        return (self,)


class CommitNotice(NamedTuple):
    """The ``commit-notice`` messages of one committed round: at ``tick`` the
    duty ``recorder`` sends ``block_digest`` to each node in ``live``. One
    trace line counts them and names the ``down`` nodes, which got none."""

    tick: int
    recorder: int
    live: tuple[int, ...]
    down: tuple[int, ...]
    block_digest: bytes

    def trace_text(self) -> str:
        missed = ",".join(map(str, self.down)) or "-"
        return _line(self.tick, "commit-notice", self.recorder, None, f"sent={len(self.live)};missed={missed}")

    def tap_entries(self) -> Iterator[TapEntry]:
        return (
            TapEntry(self.tick, "commit-notice", self.recorder, nid, self.block_digest)
            for nid in self.live
        )


class Tap:
    """Every message a run sent, in order: a view of a log's `TapEntry` and
    `CommitNotice` events that expands each notice to one `TapEntry` per
    live node as it is iterated, so the entries are never all held. It can
    be iterated any number of times, and its length counts the notices
    without expanding them."""

    def __init__(self, log: tuple):
        self._log = log

    def _events(self) -> Iterator[TapEntry | CommitNotice]:
        return (e for e in self._log if type(e) in (TapEntry, CommitNotice))

    def __iter__(self) -> Iterator[TapEntry]:
        return (m for e in self._events() for m in e.tap_entries())

    def __len__(self) -> int:
        return sum(len(e.live) if type(e) is CommitNotice else 1 for e in self._events())


class QuarantineEntry(NamedTuple):
    """A record a rejected round quarantined; the round's `RoundEnd` follows."""

    tick: int
    index: int
    record: Record

    def trace_text(self) -> str:
        return ""


class RoundEnd(NamedTuple):
    """How consensus round ``round_index`` ended: ``outcome``, what
    `credit.apply_round` reads of it, and the rest of its ``round`` trace
    line: the index of the ``block`` it committed, or the ``survivors`` a
    rejected block left pending, or why it was ``skipped``."""

    round_index: int
    outcome: RoundOutcome
    block: int | None = None
    survivors: int = 0
    skipped: str | None = None

    def trace_text(self) -> str:
        if self.skipped is not None:
            detail = f"skipped: {self.skipped}"
        elif self.block is not None:
            detail = f"committed block={self.block} records={len(self.outcome.uploaders)}"
        else:
            detail = f"rejected quarantined={len(self.outcome.uploaders)} survivors={self.survivors}"
        return _line(self.outcome.tick, "round", None, None, f"r={self.round_index} {detail}")


class ShareDelivery(NamedTuple):
    tick: int
    sender: int
    receiver: int
    payload_digest: bytes
    payload: bytes

    def trace_text(self) -> str:
        detail = f"delivered digest={self.payload_digest[:8].hex()}"
        return _line(self.tick, "share-envelope", self.sender, self.receiver, detail)


class Refusal(NamedTuple):
    """A refused share or upload. ``kind`` is the message refused, or
    ``share-reject`` for a share its sender could not start."""

    tick: int
    kind: str
    src: int
    dst: int
    reason: RejectReason

    def trace_text(self) -> str:
        detail = {"upload-grant": "denied", "share-reject": "reason={}"}.get(self.kind, "rejected={}")
        return _line(self.tick, self.kind, self.src, self.dst, detail.format(self.reason.value))


class EpochChange(NamedTuple):
    epoch: int
    tick: int
    changed: int
    recorders: tuple[int, ...]
    supervisors: tuple[int, ...]

    def trace_text(self) -> str:
        return _line(self.tick, "reelect", None, None, f"epoch={self.epoch};changed={self.changed}")


class Recovery(NamedTuple):
    tick: int
    report: RepairReport

    def trace_text(self) -> str:
        r = self.report
        detail = f"unit={r.unit_id};restored={len(r.restored)};unrecoverable={len(r.unrecoverable)}"
        return _line(self.tick, "recover-unit", None, None, detail)


class FaultStep(NamedTuple):
    """A step in the outcome of fault ``fault``, its index in the run's
    fault list (`Sim.faults`): ``text`` replaces the outcome, or is appended
    to it if ``append``; ``detected`` says the system caught the fault at
    ``tick``, and ``tampered`` that a replica was altered, so the report
    checks that copy. ``trace`` is the detail of the step's ``fault`` trace
    line, None for no line."""

    tick: int
    fault: int
    text: str
    append: bool = False
    detected: bool = False
    tampered: bool = False
    trace: str | None = None

    def trace_text(self) -> str:
        return "" if self.trace is None else _line(self.tick, "fault", None, None, self.trace)


class FaultOutcome(NamedTuple):
    """``outcome`` is the text ``metrics.txt`` shows for the fault;
    ``detected_tick`` is when the system caught it."""

    spec: FaultSpec
    outcome: str
    detected_tick: int | None


@dataclass
class SimReport:
    """Everything a finished run produced; render methods are the four
    byte-stable artifacts the CLI writes."""

    config: SimConfig
    until_tick: int
    chain: Chain
    assignment: RoleAssignment
    assessments: dict[int, int]
    node_status: dict[int, str]
    node_chain_status: dict[int, str]
    store_audit: tuple[ReplicaStatus, ...]
    faults: tuple[FaultSpec, ...]
    log: tuple  # the run's events, in order
    upload_digests: dict[int, bytes]
    pending_left: tuple[Record, ...]

    def _of(self, kind: type) -> tuple:
        """The log's events of type ``kind``, in order."""
        return tuple(e for e in self.log if type(e) is kind)

    # the tables: folds of the log
    quarantine = property(lambda self: self._of(QuarantineEntry))
    rejections = property(lambda self: tuple(e for e in self._of(RoundEnd) if e.outcome.votes and e.block is None))
    rounds_skipped = property(lambda self: sum(not e.outcome.votes for e in self._of(RoundEnd)))
    deliveries = property(lambda self: self._of(ShareDelivery))
    share_failures = property(lambda self: tuple(e for e in self._of(Refusal) if e.kind.startswith("share")))
    upload_failures = property(lambda self: tuple(e for e in self._of(Refusal) if e.kind.startswith("upload")))
    epoch_changes = property(lambda self: self._of(EpochChange))
    repair_reports = property(lambda self: tuple(e.report for e in self._of(Recovery)))
    events = property(lambda self: self._of(CreditEvent))  # in the order they were booked
    credits = property(lambda self: credit_mod.fold_events(self.assessments, self.events))

    @property
    def fault_outcomes(self) -> tuple[FaultOutcome, ...]:
        """Each fault's outcome, in fault order: a fold of its `FaultStep`s
        from ``armed``, the earliest detecting step giving the tick. A
        tampered replica's outcome ends with its local check, a violation
        detecting it at the horizon; a byzantine validator's ends with its
        dissents, the first detecting it."""
        texts = ["armed"] * len(self.faults)
        detected: list[int | None] = [None] * len(self.faults)
        tampered = set()
        for step in self._of(FaultStep):
            texts[step.fault] = texts[step.fault] + step.text if step.append else step.text
            if step.detected and detected[step.fault] is None:
                detected[step.fault] = step.tick
            if step.tampered:
                tampered.add(step.fault)
        for i, spec in enumerate(self.faults):
            if i in tampered:
                status = self.node_chain_status[spec.target]
                texts[i] += f"; local-verify={status}"
                detected[i] = None if status == "ok" else self.until_tick
            elif spec.kind is FaultKind.BYZANTINE_VALIDATOR:
                dissents = [
                    e.tick for e in self.events
                    if e.node_id == spec.target and e.reason is CreditReason.VALIDATOR_DISSENTED
                ]
                texts[i] += f"; dissents={len(dissents)}"
                detected[i] = dissents[0] if dissents else None
        return tuple(map(FaultOutcome, self.faults, texts, detected))

    @property
    def blocks_committed(self) -> int:
        return len(self.chain) - 1

    @property
    def blocks_rejected(self) -> int:
        return len(self.rejections)

    @property
    def records_committed(self) -> int:
        return sum(len(block.records) for block in self.chain.blocks)

    @property
    def records_quarantined(self) -> int:
        return len(self.quarantine)

    @property
    def trace_lines(self) -> tuple[str, ...]:
        return tuple(self.trace_text().split("\n")[:-1])

    @property
    def tap(self) -> Tap:
        """Every message sent, each `CommitNotice` expanded to its notices."""
        return Tap(self.log)

    @property
    def message_counts(self) -> dict[str, int]:
        counts = Counter(e.kind for e in self._of(TapEntry))
        counts["commit-notice"] += sum(len(e.live) for e in self._of(CommitNotice))
        return dict(+counts)  # + drops a zero count

    def chain_export_text(self) -> str:
        return chain_mod.export_chain(self.chain)

    def credit_log_text(self) -> str:
        return "".join(
            f"{e.tick}\t{e.node_id}\t{e.delta:+d}\t{e.reason.value}\n" for e in self.events
        )

    def trace_text(self) -> str:
        return "".join(e.trace_text() for e in self.log if type(e) is not CreditEvent)

    def metrics_text(self) -> str:
        out = ["[summary]"]
        out.append(f"run_until_tick={self.until_tick} ({self.until_tick}s simulated)")
        out.append(f"blocks_committed={self.blocks_committed}")
        out.append(f"blocks_rejected={self.blocks_rejected}")
        out.append(f"records_committed={self.records_committed}")
        out.append(f"records_quarantined={self.records_quarantined}")
        out.append(f"rounds_skipped={self.rounds_skipped}")
        out.append(f"share_deliveries={len(self.deliveries)}")
        out.append(f"share_failures={len(self.share_failures)}")
        out.append(f"upload_failures={len(self.upload_failures)}")
        out.append(f"pending_left={len(self.pending_left)}")
        message_counts = self.message_counts
        for kind in sorted(message_counts):
            out.append(f"messages.{kind}={message_counts[kind]}")
        out.append("")
        out.append("[roles]")
        credits = self.credits
        for nid in sorted(credits):
            role = self.assignment.role_of(nid).value
            out.append(f"{nid}\t{role}\t{credits[nid]}\t{self.assessments[nid]}")
        out.append("")
        out.append("[epochs]")
        for change in self.epoch_changes:
            recorders = ",".join(str(n) for n in change.recorders)
            supervisors = ",".join(str(n) for n in change.supervisors)
            out.append(
                f"{change.epoch}\t{change.tick}\tchanged={change.changed}"
                f"\trecorders={recorders}\tsupervisors={supervisors}"
            )
        out.append("")
        out.append("[datastore]")
        for status in self.store_audit:
            flag = "under-replicated" if status.under_replicated else "ok"
            out.append(
                f"{status.payload_digest.hex()}\t{status.expected}\t{status.live}"
                f"\t{','.join(status.units)}\t{flag}"
            )
        out.append("")
        out.append("[faults]")
        for fo in self.fault_outcomes:
            out.append(f"{fo.spec.kind.value}\t{fo.spec.target}\t{fo.spec.tick}\t{fo.outcome}")
        out.append("")
        out.append("[nodes]")
        for nid in sorted(self.node_status):
            out.append(f"{nid}\t{self.node_status[nid]}\t{self.node_chain_status[nid]}")
        return "\n".join(out) + "\n"


class Sim:
    def __init__(self, config: SimConfig, scenario: Scenario | str):
        if isinstance(scenario, str):
            scenario = parse_scenario(scenario)
        if config.block_interval_ticks < 1 or config.epoch_length_blocks < 1:
            raise ValueError("block interval and epoch length must be >= 1")
        if config.message_delay_ticks < 0:
            raise ValueError("message delay cannot be negative")
        self.config = config
        self.scenario = scenario
        self.rng = random.Random(config.seed)
        self.tick = 0

        node_decls = scenario.nodes or [(i, 0) for i in range(config.node_count)]
        seed64 = config.seed & (2**64 - 1)
        self.nodes: dict[int, _Node] = {}
        for nid, _ in node_decls:
            keypair = generate_keypair(
                digest(b"gridledger/node/" + U64.pack(seed64) + U64.pack(nid))
            )
            self.nodes[nid] = _Node(keypair=keypair)
        self.assessments = dict(node_decls)
        assignment = credit_mod.initialize_roles(self.assessments, config.r_max, config.s_max)
        if not assignment.supervisors or len(assignment.candidates) < credit_mod.VALIDATOR_COUNT - 1:
            raise ValueError(
                "configuration leaves no supervisor or fewer than two candidates; "
                "block validation needs 1 supervisor + 2 candidates"
            )
        self.credit = credit_mod.CreditState(dict.fromkeys(self.nodes, 0), assignment, config.epoch_length_blocks)

        for nid, line in scenario.authorized:
            self._require_node(nid, line)
        self.permissions = frozenset(self.nodes[nid].keypair.public_key for nid, _ in scenario.authorized)
        self.uploader_ids = {node.keypair.public_key: nid for nid, node in self.nodes.items()}

        self.chain = Chain((chain_mod.genesis(),))
        self._live = tuple(self.nodes)  # ids of the nodes not crashed, in `nodes` order
        self._down: tuple[int, ...] = ()  # ids of the crashed nodes, in `nodes` order

        self.store = DataStore([f"u{i}" for i in range(STORAGE_UNIT_COUNT)], REPLICATION_FACTOR)

        self.pending: dict[Record, tuple[int | None, sigpass.Triple]] = {}  # in arrival order: (forge, triple)
        self.upload_digests: dict[int, bytes] = {}
        self.log: list[tuple] = []  # every happening, once, in order; append-only
        self._votes: sigpass.Stream | None = None  # each vote tagged with its validator; None outside `step`/`run`
        self.faults: list[FaultSpec] = []  # every fault injected, in order

        # (tick, sequence, handler, payload): a due event is handler(payload); never empty, as the next round is one
        self._events: list[tuple[int, int, Callable, object]] = []
        self._seq = 0
        self._schedule_round(0)
        self._fault_handlers: dict[FaultKind, Callable[[int], None]] = {
            FaultKind.FORGE_RECORD: self._on_forge_record,
            FaultKind.TAMPER_CHAIN_COPY: self._on_tamper_chain_copy,
            FaultKind.TAMPER_IN_FLIGHT: self._on_tamper_in_flight,
            FaultKind.CRASH_NODE: self._on_crash_node,
            FaultKind.BYZANTINE_VALIDATOR: self._on_byzantine_validator,
            FaultKind.FAIL_STORAGE_UNIT: self._on_fail_storage_unit,
        }

        for plan in scenario.uploads:
            self._require_node(plan.node_id, plan.line)
            self._schedule(plan.tick, self._on_upload_plan, plan)
        for plan in scenario.shares:
            self._require_node(plan.sender, plan.line)
            self._require_node(plan.receiver, plan.line)
            self._schedule(plan.tick, self._on_share_plan, plan)
        for spec in scenario.faults:
            self.inject_fault(spec)

    # --- plumbing ---------------------------------------------------------

    def _require_node(self, nid: int, line: int) -> None:
        if nid not in self.nodes:
            raise ScenarioError(line, f"unknown node {nid}")

    def _schedule(self, tick: int, handler: Callable, payload: object) -> None:
        heapq.heappush(self._events, (tick, self._seq, handler, payload))
        self._seq += 1

    def _schedule_round(self, round_index: int) -> None:
        """Round ``round_index`` runs at its interval's end, last of that tick."""
        end = (round_index + 1) * self.config.block_interval_ticks
        heapq.heappush(self._events, (end, sys.maxsize, self._consensus_round, round_index))

    def _trace(self, kind: str, src: int | None, dst: int | None, detail: str) -> None:
        self.log.append(Note(self.tick, kind, src, dst, detail))

    def _trace_rng(self, label: str, note: str) -> None:
        self._trace("rng", None, None, f"label={label};{note}")

    def _rng_bytes(self, label: str, n: int) -> tuple[bytes, bytes]:
        """``n`` bytes from the seeded stream, and their digest."""
        data = self.rng.randbytes(n)
        data_digest = digest(data)
        self._trace_rng(label, f"n={n};digest={data_digest[:8].hex()}")
        return data, data_digest

    def _send(self, kind: str, src: int, dst: int, value: tuple, flow: _UploadFlow | None = None) -> None:
        """Put ``value`` on the wire as the bytes of its kind's layout."""
        data = _DATA_PATH[kind][0].encode(value)
        self.log.append(TapEntry(self.tick, kind, src, dst, data))
        msg = _Msg(kind=kind, src=src, dst=dst, data=data, flow=flow)
        self._schedule(self.tick + self.config.message_delay_ticks, self._deliver, msg)

    def replica(self, nid: int) -> Chain:
        """Node ``nid``'s copy of the chain, built from its view."""
        node = self.nodes[nid]
        return chain_mod.replica(self.chain, self._held(node), node.overrides)

    def _held(self, node: _Node) -> int:
        return len(self.chain) if node.held is None else node.held

    def inject_fault(self, spec: FaultSpec) -> None:
        """Arm a fault; its perturbation fires at the activation tick.
        Raises ValueError for a kind that is not a `FaultKind` value."""
        spec = spec._replace(kind=FaultKind(spec.kind))
        if spec.kind is FaultKind.FAIL_STORAGE_UNIT:
            if spec.target not in self.store.units:
                raise ScenarioError(spec.line, f"unknown storage unit {spec.target}")
        else:
            self._require_node(spec.target, spec.line)
        if spec.tick < self.tick:
            raise ValueError("fault activation tick is in the past")
        self.faults.append(spec)
        self._schedule(spec.tick, self._fault_handlers[spec.kind], len(self.faults) - 1)

    # --- main loop ----------------------------------------------------------

    @contextmanager
    def _vote_pass(self):
        """Verify the votes tallied inside the block in one `sigpass.Stream`,
        which the rounds feed as they tally: its standing workers take full
        batches while the block goes on, and on the way out, whether the
        block returns or raises, the last partial batch is verified here.
        The first vote that fails raises ProtocolError naming its
        validator, in place of any exception the block raised. A pass
        opened inside another leaves its votes to the outer one. The pass
        holds only the votes no one has verified yet."""
        if self._votes is not None:
            yield
            return
        self._votes = stream = sigpass.Stream()
        try:
            yield
        finally:
            self._votes = None
            failing = stream.close()
            if failing is not None:
                raise record_mod.ProtocolError(f"vote signature from {failing} does not verify")

    def step(self) -> "Sim":
        """Process one tick: run its due events, in order (a round last).
        A round's votes are verified before `step` returns, unless `run` is
        stepping: then they go to the run's pass."""
        with self._vote_pass():
            while self._events[0][0] <= self.tick:
                _, _, handler, payload = heapq.heappop(self._events)
                handler(payload)
            self.tick += 1
        return self

    def run(self, until_tick: int | None = None) -> SimReport:
        """Step to ``until_tick`` and report. Between steps, time jumps to
        the next tick with an event due (the queue always holds the next
        round): a tick with none is one `step` would only count. Every vote
        the run admits goes to one signature pass: a standing worker per
        spare CPU takes full batches while the run goes on, unless all have
        a backlog, and the rest are verified, and the workers reaped, before
        the report is built or when a step raises. A vote that fails raises
        ProtocolError and no report is returned. A horizon before the last
        tick already stepped raises ValueError; the last tick itself reports
        without stepping."""
        if until_tick is None:
            until_tick = self.scenario.run_until
        if until_tick is None:
            raise ValueError("no horizon: scenario has no 'run until' and none was given")
        if until_tick < self.tick - 1:
            raise ValueError(f"horizon {until_tick} is before tick {self.tick - 1}, already stepped")
        with self._vote_pass():
            while self.tick <= until_tick:
                self.step()
                self.tick = min(self._events[0][0], until_tick + 1)
        return self._build_report(until_tick)

    # --- scheduled actions ---------------------------------------------------

    def _on_upload_plan(self, plan: UploadPlan) -> None:
        if self.nodes[plan.node_id].crashed:
            self._trace("upload-skip", plan.node_id, None, "uploader crashed")
            return
        payload, payload_digest = self._rng_bytes("payload", plan.size)
        self.upload_digests[plan.ordinal] = payload_digest
        self._start_upload(plan.node_id, _UploadFlow(payload, self._grid_metadata(plan.data_class)))

    def _on_share_plan(self, plan: SharePlan) -> None:
        sender = self.nodes[plan.sender]
        if sender.crashed:
            self._trace("share-skip", plan.sender, plan.receiver, "sender crashed")
            return
        payload_digest = self.upload_digests.get(plan.upload_ref)
        receiver_key = self.nodes[plan.receiver].keypair.public_key
        try:
            if payload_digest is None:
                raise Rejected(RejectReason.DIGEST_NOT_ON_CHAIN)
            self._trace_rng("seal-share", f"to={plan.receiver}")
            envelope = share_mod.initiate_share(
                sender.keypair, receiver_key, payload_digest, self.chain, self.store, self.rng
            )
        except Rejected as exc:
            self.log.append(Refusal(self.tick, "share-reject", plan.sender, plan.receiver, exc.reason))
            return
        self._send("share-envelope", plan.sender, plan.receiver, envelope)

    def _grid_metadata(self, data_class: str) -> RecordMetadata:
        return RecordMetadata(kind=RecordKind.GRID_DATA, data_class=data_class, created_tick=self.tick)

    def _start_upload(self, uploader: int, flow: _UploadFlow) -> None:
        duty = credit_mod.duty_recorder(self.credit.assignment, self.tick // self.config.block_interval_ticks)
        request = record_mod.UploadRequest(self.nodes[uploader].keypair.public_key)
        self._send("upload-request", uploader, duty, request, flow)

    # --- faults ---------------------------------------------------------------

    def _fault_step(self, fault: int, text: str, traced: str | None = None, **flags: bool) -> None:
        """Log a `FaultStep`; a ``traced`` suffix gives it a ``fault`` trace
        line naming the fault's kind and target."""
        spec = self.faults[fault]
        trace = None if traced is None else f"{spec.kind.value} target={spec.target}{traced}"
        self.log.append(FaultStep(self.tick, fault, text, trace=trace, **flags))

    def _on_crash_node(self, fault: int) -> None:
        target = self.faults[fault].target
        node = self.nodes[target]
        if node.crash is None:
            node.crash = fault
            node.held = len(self.chain)
            self._live = tuple(nid for nid in self._live if nid != target)
            self._down = tuple(nid for nid in self.nodes if nid not in self._live)
        self._fault_step(fault, f"crashed@{self.tick}", "")

    def _on_byzantine_validator(self, fault: int) -> None:
        self.nodes[self.faults[fault].target].byzantine = True
        self._fault_step(fault, f"byzantine@{self.tick}", "")

    def _on_tamper_in_flight(self, fault: int) -> None:
        self.nodes[self.faults[fault].target].tamper_armed.append(fault)
        self._fault_step(fault, f"armed@{self.tick}", "")

    def _on_fail_storage_unit(self, fault: int) -> None:
        spec = self.faults[fault]
        self.store.fail_unit(spec.target)
        # the store stops placing on it at once
        self._fault_step(fault, f"failed@{self.tick}", "", detected=True)
        if "recover" in spec.params:
            self._schedule(spec.params["recover"], self._on_recover_unit, fault)

    def _on_forge_record(self, fault: int) -> None:
        spec = self.faults[fault]
        if self.nodes[spec.target].crashed:
            self._fault_step(fault, "skipped: forger crashed")
            return
        payload, _ = self._rng_bytes("forged-payload", spec.params.get("size", 32))
        self._fault_step(fault, f"submitted@{self.tick}", "")
        metadata = self._grid_metadata(spec.params.get("class", "grid"))
        self._start_upload(spec.target, _UploadFlow(payload, metadata, forge=fault))

    def _on_tamper_chain_copy(self, fault: int) -> None:
        spec = self.faults[fault]
        node = self.nodes[spec.target]
        held = self._held(node)
        if "block" in spec.params:
            index = spec.params["block"]
            if not 0 <= index < held:
                self._fault_step(fault, f"skipped: block {index} out of range")
                return
        else:
            index = self.rng.randrange(held)
            self._trace_rng("tamper-target", f"block={index}")
        block = node.overrides.get(index, self.chain.blocks[index])
        if block.records:
            rec_index = self.rng.randrange(len(block.records))
            byte_index = self.rng.randrange(len(block.records[rec_index].payload_digest))
            self._trace_rng("tamper-byte", f"record={rec_index};byte={byte_index}")
            records = list(block.records)
            record = records[rec_index]
            records[rec_index] = replace(record, payload_digest=_flip_bit(record.payload_digest, byte_index))
            node.overrides[index] = replace(block, records=tuple(records))
        else:
            byte_index = self.rng.randrange(len(block.header.merkle_root))
            self._trace_rng("tamper-byte", f"header-root;byte={byte_index}")
            root = _flip_bit(block.header.merkle_root, byte_index)
            node.overrides[index] = replace(block, header=block.header._replace(merkle_root=root))
        self._fault_step(fault, f"tampered block {index}@{self.tick}", f";block={index}", tampered=True)

    def _on_recover_unit(self, fault: int) -> None:
        report = self.store.recover_unit(self.faults[fault].target)
        restored, lost = len(report.restored), len(report.unrecoverable)
        self._fault_step(fault, f"; recovered@{self.tick}: restored={restored} unrecoverable={lost}", append=True)
        self.log.append(Recovery(self.tick, report))

    # --- message delivery -------------------------------------------------------

    def _refuse(self, msg: _Msg, reason: RejectReason) -> None:
        """Log the `Refusal` of ``msg``; it catches a tamper-in-flight fault on ``msg``."""
        self.log.append(Refusal(self.tick, msg.kind, msg.src, msg.dst, reason))
        if msg.tampered_by is not None:
            self._fault_step(msg.tampered_by, f"; rejected={reason.value}", append=True, detected=True)

    def _deliver(self, msg: _Msg) -> None:
        """Hand a live receiver's handler the one decode of the bytes that
        were sent. An armed tamper-in-flight fault takes an envelope: the
        handler gets it with one drawn bit of its payload ciphertext flipped."""
        node = self.nodes[msg.dst]
        if node.crashed:
            self._trace(msg.kind, msg.src, msg.dst, "dropped=crashed")
            return
        layout, handler = _DATA_PATH[msg.kind]
        value = layout.decode(msg.data)
        if node.tamper_armed and "payload_envelope" in layout.fields:
            fault = node.tamper_armed.pop(0)
            pos = self.rng.randrange(len(value.payload_envelope.ciphertext))
            self._trace_rng("tamper-in-flight", f"byte={pos}")
            self._fault_step(fault, f"applied@{self.tick}")
            self._trace("tamper", msg.src, msg.dst, f"kind={msg.kind};byte={pos}")
            msg, value = msg._replace(tampered_by=fault), _tampered(value, pos)
        handler(self, msg, value)

    def _on_upload_request(self, msg: _Msg, request: record_mod.UploadRequest) -> None:
        granted = request.uploader_public_key in self.permissions
        self._trace("upload-request", msg.src, msg.dst, f"granted={granted}")
        grant = record_mod.UploadGrant(granted, self.nodes[msg.dst].keypair.public_key)
        self._send("upload-grant", msg.dst, msg.src, grant, msg.flow)

    def _on_upload_grant(self, msg: _Msg, grant: record_mod.UploadGrant) -> None:
        if not grant.granted:
            self._refuse(msg, RejectReason.PERMISSION_DENIED)
            return
        self._trace("upload-grant", msg.src, msg.dst, "granted")
        self._trace_rng("seal-upload", f"uploader={msg.dst}")
        envelope = record_mod.prepare_upload(
            self.nodes[msg.dst].keypair, grant.recorder_public_key, msg.flow.payload, msg.flow.metadata, self.rng
        )
        self._send("upload-envelope", msg.dst, msg.src, envelope, msg.flow)

    def _on_upload_envelope(self, msg: _Msg, envelope: record_mod.UploadEnvelope) -> None:
        recorder = self.nodes[msg.dst]
        self._trace_rng("seal-at-rest", f"owner={msg.src}")
        try:
            stored = record_mod.receive_upload(recorder.keypair, envelope, self.permissions, self.rng)
        except Rejected as exc:
            self._refuse(msg, exc.reason)
            self.credit, events = credit_mod.apply_intake(self.credit, msg.src, exc.reason, self.tick)
            self.log += events
            return
        record = envelope.record
        self.pending.setdefault(record, (msg.flow.forge, chain_mod.RECORD.triple(record)))
        try:
            self.store.put(stored)
        except StorageError as exc:
            self._trace("datastore", None, msg.dst, f"put-failed: {exc}")
        digest_head = record.payload_digest[:8].hex()
        self._trace("upload-envelope", msg.src, msg.dst, f"accepted digest={digest_head}")

    def _on_share_envelope(self, msg: _Msg, envelope: share_mod.ShareEnvelope) -> None:
        receiver = self.nodes[msg.dst]
        try:
            payload = share_mod.receive_share(receiver.keypair, envelope)
        except Rejected as exc:
            self._refuse(msg, exc.reason)
            return
        self.log.append(ShareDelivery(self.tick, msg.src, msg.dst, envelope.claimed_digest, payload))
        tx = ShareTransaction(
            sender_public_key=envelope.sender_public_key,
            receiver_public_key=envelope.receiver_public_key,
            payload_digest=envelope.claimed_digest,
            tick=self.tick,
        )
        tx_payload, tx_metadata = share_mod.record_share(tx)
        self._start_upload(msg.src, _UploadFlow(tx_payload, tx_metadata))

    # --- consensus ---------------------------------------------------------------

    def _consensus_round(self, round_index: int) -> None:
        self._schedule_round(round_index + 1)
        duty = credit_mod.duty_recorder(self.credit.assignment, round_index)
        crash = self.nodes[duty].crash
        if crash is not None:  # a crash is caught at its first missed duty
            self._fault_step(crash, "", append=True, detected=True)
            reason = f"duty recorder {duty} crashed"
            self._end_round(RoundEnd(round_index, RoundOutcome(self.tick, duty), skipped=reason))
            return
        try:
            validator_ids = record_mod.choose_validators(
                self.credit.assignment, round_index, self.rng, alive=lambda nid: not self.nodes[nid].crashed
            )
        except record_mod.ProtocolError as exc:
            self._end_round(RoundEnd(round_index, RoundOutcome(self.tick, duty), skipped=str(exc)))
            return
        self._trace_rng("validator-select", f"r={round_index}")
        proposal = record_mod.seal_block(
            self.nodes[duty].keypair, self.pending, self.chain.tip_digest, self.tick, validator_ids
        )
        block_data = chain_mod.block_bytes(proposal.block)
        detail = f"r={round_index};records={len(proposal.block.records)}"
        for vid in proposal.validator_ids:  # consensus messages are handled within the tick
            self.log.append(TapEntry(self.tick, "proposal", duty, vid, block_data, detail))
        votes = []
        block_digest_value = chain_mod.block_digest(proposal.block)
        verified = {triple for _, triple in self.pending.values()}
        check = chain_mod.validate_block(proposal.block, self.chain.tip, verified)
        for vid in proposal.validator_ids:
            validator = self.nodes[vid]
            vote = record_mod.validate_proposal(
                validator.keypair, vid, proposal, check, lambda record: self.pending[record][0] is None
            )
            if validator.byzantine:
                inverted_ok = not vote.ok
                inverted_bad = () if inverted_ok else tuple(range(len(proposal.block.records)))
                vote = record_mod.sign_vote(
                    validator.keypair, vid, block_digest_value, inverted_ok, inverted_bad
                )
                self._trace("byzantine", vid, duty, f"inverted verdict to ok={inverted_ok}")
            verdict = "ok" if vote.ok else "erroneous" + str(list(vote.bad_indices))
            self.log.append(TapEntry(self.tick, "vote", vid, duty, vote.signed, f"verdict={verdict}"))
            votes.append(vote)
        result = record_mod.commit(proposal, votes, check)
        for vote in votes:  # admitted: each under the roster key of the validator it names
            key = self.nodes[vote.validator_id].keypair.public_key
            self._votes.append(record_mod.vote_triple(vote, key), vote.validator_id)
        if result.committed:
            self.chain = self.chain.append(proposal.block)
            # stands for one commit-notice TapEntry per live node
            self.log.append(CommitNotice(self.tick, duty, self._live, self._down, block_digest_value))
            for forge, _ in self.pending.values():
                if forge is not None:
                    self._fault_step(forge, f"committed-undetected@{self.tick}")
            self.pending = {}
            credited, block = proposal.block.records, len(self.chain) - 1
        else:
            for index, record in result.quarantined:
                self.log.append(QuarantineEntry(self.tick, index, record))
                forge, _ = self.pending.pop(record)
                if forge is not None:
                    self._fault_step(forge, f"quarantined@{self.tick}", detected=True)
            credited, block = [record for _, record in result.quarantined], None
        verdicts = tuple((vote.validator_id, vote.ok) for vote in votes)
        uploaders = tuple(self.uploader_ids[record.uploader_public_key] for record in credited)
        outcome = RoundOutcome(self.tick, duty, verdicts, uploaders)
        self._end_round(RoundEnd(round_index, outcome, block, len(self.pending)))

    def _end_round(self, end: RoundEnd) -> None:
        """Log how the round ended, the credit events `credit.apply_round`
        books for it, and the committees it re-elected, if it closed an epoch."""
        before = self.credit.assignment
        self.credit, events = credit_mod.apply_round(self.credit, end.outcome)
        self.log.append(end)
        self.log += events
        new = self.credit.assignment
        if new is not before:
            # a node changed role iff it is not in the same group of both
            changed = sum(len(set(n).difference(o)) for n, o in zip(
                (new.recorders, new.supervisors, new.candidates),
                (before.recorders, before.supervisors, before.candidates)))
            self.log.append(EpochChange(new.epoch, self.tick, changed, new.recorders, new.supervisors))

    # --- reporting ---------------------------------------------------------------

    def _build_report(self, until_tick: int) -> SimReport:
        """Snapshot the run. The canonical chain is clean, since each of
        its blocks passed its round's check, so a node's replica is checked
        only from the first block a tamper replaced on (`chain.verify_copy`).
        The log and the fault list are copied, so a later `run()` leaves
        this report as it is."""
        node_status = {}
        node_chain_status = {}
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            flags = []
            if node.crashed:
                flags.append("crashed")
            if node.byzantine:
                flags.append("byzantine")
            node_status[nid] = ",".join(flags) if flags else "ok"
            found = chain_mod.verify_copy(self.chain, self._held(node), node.overrides)
            node_chain_status[nid] = "ok" if found is None else f"violation@{found.index}:{found.reason}"
        return SimReport(
            config=self.config,
            until_tick=until_tick,
            chain=self.chain,
            assignment=self.credit.assignment,
            assessments=dict(self.assessments),
            node_status=node_status,
            node_chain_status=node_chain_status,
            store_audit=tuple(self.store.audit()),
            faults=tuple(self.faults),
            log=tuple(self.log),
            upload_digests=dict(self.upload_digests),
            pending_left=tuple(self.pending),
        )


# Each data-path message kind: the layout its value is sent in, and the
# `Sim` method `_deliver` hands the decoded value to.
_DATA_PATH: dict[str, tuple[Layout, Callable]] = {
    "upload-request": (UPLOAD_REQUEST, Sim._on_upload_request),
    "upload-grant": (UPLOAD_GRANT, Sim._on_upload_grant),
    "upload-envelope": (UPLOAD_ENVELOPE, Sim._on_upload_envelope),
    "share-envelope": (SHARE_ENVELOPE, Sim._on_share_envelope),
}


# --- module-level operations ------------------------------------------------

def new_sim(config: SimConfig, scenario: Scenario | str) -> Sim:
    return Sim(config, scenario)


def run(sim: Sim, until_tick: int | None = None) -> SimReport:
    return sim.run(until_tick)
