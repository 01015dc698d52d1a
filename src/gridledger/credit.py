"""Credit-score role system: the voting-free DPOS variant.

Nodes are ranked by an operator-supplied assessment score at bootstrap and by
accumulated credit afterwards; the top of the ranking fills the recorder
committee (default capacity 101), the next slice the supervisor committee
(default 20), everyone else is a candidate. Credits move strictly by +-1
events: record correctness, sealed-block outcomes, and validator
agreement/dissent. Ties always break toward the lower node id, and negative
credit is allowed so repeat offenders keep sinking in the ranking.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

DEFAULT_RECORDER_CAPACITY = 101
DEFAULT_SUPERVISOR_CAPACITY = 20


class Role(Enum):
    RECORDER = "recorder"
    SUPERVISOR = "supervisor"
    CANDIDATE = "candidate"


class CreditReason(Enum):
    RECORD_CORRECT = "record-correct"
    RECORD_ERRONEOUS = "record-erroneous"
    BLOCK_CLEAN = "block-clean"
    BLOCK_ERRONEOUS = "block-erroneous"
    VALIDATOR_AGREED = "validator-agreed"
    VALIDATOR_DISSENTED = "validator-dissented"


class NodeProfile(NamedTuple):
    node_id: int
    public_key: bytes
    assessment: int


class RoleAssignment(NamedTuple):
    recorders: tuple[int, ...]
    supervisors: tuple[int, ...]
    candidates: tuple[int, ...]
    epoch: int

    def role_of(self, node_id: int) -> Role:
        if node_id in self.recorders:
            return Role.RECORDER
        if node_id in self.supervisors:
            return Role.SUPERVISOR
        if node_id in self.candidates:
            return Role.CANDIDATE
        raise KeyError(f"node {node_id} not in assignment")

    def all_nodes(self) -> tuple[int, ...]:
        return self.recorders + self.supervisors + self.candidates


class CreditEvent(NamedTuple):
    node_id: int
    delta: int
    reason: CreditReason
    tick: int


class CreditLedger:
    """Single-writer credit scores plus the append-only audit log that
    produced them."""

    def __init__(self, node_ids: Iterable[int]):
        self._credits: dict[int, int] = {nid: 0 for nid in node_ids}
        self.events: list[CreditEvent] = []

    def credit(self, node_id: int) -> int:
        if node_id not in self._credits:
            raise KeyError(f"unknown node {node_id}")
        return self._credits[node_id]

    def credits(self) -> dict[int, int]:
        return dict(self._credits)

    def _apply(self, node_id: int, delta: int, reason: CreditReason, tick: int) -> CreditEvent:
        if node_id not in self._credits:
            raise KeyError(f"unknown node {node_id}")
        self._credits[node_id] += delta
        event = CreditEvent(node_id=node_id, delta=delta, reason=reason, tick=tick)
        self.events.append(event)
        return event


def fold_events(node_ids: Iterable[int], events: Iterable[CreditEvent]) -> dict[int, int]:
    """Independent replay of an audit log into final credits; every node
    starts at 0."""
    credits = {nid: 0 for nid in node_ids}
    for event in events:
        credits[event.node_id] += event.delta
    return credits


def _partition(ranked: list[int], r_max: int, s_max: int, epoch: int) -> RoleAssignment:
    recorders = tuple(ranked[:r_max])
    supervisors = tuple(ranked[r_max : r_max + s_max])
    candidates = tuple(ranked[r_max + s_max :])
    return RoleAssignment(recorders=recorders, supervisors=supervisors, candidates=candidates, epoch=epoch)


def initialize_roles(
    profiles: Sequence[NodeProfile],
    r_max: int = DEFAULT_RECORDER_CAPACITY,
    s_max: int = DEFAULT_SUPERVISOR_CAPACITY,
) -> RoleAssignment:
    """Bootstrap ranking by (assessment desc, node_id asc)."""
    if r_max < 1:
        raise ValueError("at least one recorder slot is required")
    if s_max < 0:
        raise ValueError("supervisor capacity must be non-negative")
    if not profiles:
        raise ValueError("cannot assign roles with no nodes")
    ranked = [p.node_id for p in sorted(profiles, key=lambda p: (-p.assessment, p.node_id))]
    return _partition(ranked, r_max, s_max, epoch=0)


def reelect(ledger: CreditLedger, assignment: RoleAssignment, r_max: int, s_max: int) -> RoleAssignment:
    """Periodic re-ranking by (credit desc, node_id asc) over the same node
    set; capacities unchanged, epoch incremented."""
    members = sorted(assignment.all_nodes())
    ranked = sorted(members, key=lambda nid: (-ledger.credit(nid), nid))
    return _partition(ranked, r_max, s_max, epoch=assignment.epoch + 1)


def apply_record_outcome(ledger: CreditLedger, uploader_id: int, correct: bool, tick: int) -> CreditEvent:
    """+1 per correct record, -1 per erroneous one."""
    reason = CreditReason.RECORD_CORRECT if correct else CreditReason.RECORD_ERRONEOUS
    return ledger._apply(uploader_id, 1 if correct else -1, reason, tick)


def apply_block_outcome(ledger: CreditLedger, recorder_id: int, erroneous: bool, tick: int) -> CreditEvent:
    """+1 to the sealing recorder per clean block, -1 per flagged block."""
    reason = CreditReason.BLOCK_ERRONEOUS if erroneous else CreditReason.BLOCK_CLEAN
    return ledger._apply(recorder_id, -1 if erroneous else 1, reason, tick)


def apply_validator_outcomes(
    ledger: CreditLedger, votes: Sequence[tuple[int, bool]], tick: int
) -> tuple[list[CreditEvent], bool]:
    """Majority verdict over an odd vote set; agreeing validators +1,
    dissenters -1. Returns the events and the majority verdict (True=ok)."""
    if not votes or len(votes) % 2 == 0:
        raise ValueError("vote set must be odd-sized and non-empty")
    ok_count = sum(1 for _, verdict in votes if verdict)
    majority_ok = ok_count * 2 > len(votes)
    events = []
    for validator_id, verdict in votes:
        agreed = verdict == majority_ok
        reason = CreditReason.VALIDATOR_AGREED if agreed else CreditReason.VALIDATOR_DISSENTED
        events.append(ledger._apply(validator_id, 1 if agreed else -1, reason, tick))
    return events, majority_ok


def duty_recorder(assignment: RoleAssignment, round_index: int) -> int:
    """Strict round-robin over the recorder committee."""
    if not assignment.recorders:
        raise ValueError("no recorders available")
    return assignment.recorders[round_index % len(assignment.recorders)]
