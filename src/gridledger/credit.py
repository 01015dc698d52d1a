"""Credit-score role system: the voting-free DPOS variant.

Nodes are ranked by an operator-supplied assessment score at bootstrap and by
accumulated credit afterwards; the top of the ranking fills the recorder
committee (default capacity 101), the next slice the supervisor committee
(default 20), everyone else is a candidate. Credits move strictly by +-1
events: record correctness, sealed-block outcomes, and validator
agreement/dissent. Ties always break toward the lower node id, and negative
credit is allowed so repeat offenders keep sinking in the ranking.

Every rule is applied through one pure transition: `apply_round` takes a
`CreditState` and a round's `RoundOutcome` and returns the next state and
the events it booked; `apply_intake` books the intake penalty through the
same state. Folding them over the outcomes a run logged replays its credits
and committees. `CreditReason` and `RejectReason` (a refused upload or
share) are the reasons a run's artifacts name.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

DEFAULT_RECORDER_CAPACITY = 101
DEFAULT_SUPERVISOR_CAPACITY = 20
# A round's committee: its on-duty supervisor and VALIDATOR_COUNT - 1 drawn
# candidates. QUORUM of its votes decide the block, and QUORUM flags on one
# record quarantine it.
VALIDATOR_COUNT = 3
QUORUM = 2


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


class RejectReason(str, Enum):
    """Why a recorder refuses an upload, or a node refuses a share it would
    send or was sent; the value is the reason a run's log and trace name."""

    PERMISSION_DENIED = "permission-denied"
    SIGNATURE_INVALID = "signature-invalid"
    DIGEST_MISMATCH = "digest-mismatch"
    DECRYPTION_FAILURE = "decryption-failure"
    DIGEST_NOT_ON_CHAIN = "digest-not-on-chain"
    NOT_OWNER = "not-owner"
    DATASTORE_MISS = "datastore-miss"


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


class CreditEvent(NamedTuple):
    node_id: int
    delta: int
    reason: CreditReason
    tick: int


def _book(credits: Mapping[int, int], events: Iterable[CreditEvent]) -> dict[int, int]:
    """A copy of ``credits`` with ``events`` added; an event for a node not
    in it raises KeyError."""
    booked = dict(credits)
    for event in events:
        booked[event.node_id] += event.delta
    return booked


def fold_events(node_ids: Iterable[int], events: Iterable[CreditEvent]) -> dict[int, int]:
    """Replay of an audit log into final credits; every node starts at 0."""
    return _book(dict.fromkeys(node_ids, 0), events)


class CreditState(NamedTuple):
    """What the credit rules move: each node's credit, the committees, and
    the rounds counted so far, skipped ones included, ``epoch_length`` to an
    epoch. Never changed in place: the transitions return a new one."""

    credits: Mapping[int, int]
    assignment: RoleAssignment
    epoch_length: int
    rounds: int = 0


class RoundOutcome(NamedTuple):
    """One consensus round as the credit rules read it: at ``tick`` the duty
    ``recorder`` sealed a block, and ``votes``, its validators' (id, ok)
    verdicts, decided it. ``uploaders`` has the uploader of each record the
    verdict credits: every record of a committed block, each quarantined
    record of a rejected one. A round that sealed no block was skipped: it
    has no votes."""

    tick: int
    recorder: int
    votes: tuple[tuple[int, bool], ...] = ()
    uploaders: tuple[int, ...] = ()


def _rank(scores: Mapping[int, int], r_max: int, s_max: int, epoch: int) -> RoleAssignment:
    """The committees of a ranking by (score desc, node_id asc)."""
    ranked = sorted(scores, key=lambda nid: (-scores[nid], nid))
    recorders = tuple(ranked[:r_max])
    supervisors = tuple(ranked[r_max : r_max + s_max])
    candidates = tuple(ranked[r_max + s_max :])
    return RoleAssignment(recorders=recorders, supervisors=supervisors, candidates=candidates, epoch=epoch)


def initialize_roles(
    assessments: Mapping[int, int],
    r_max: int = DEFAULT_RECORDER_CAPACITY,
    s_max: int = DEFAULT_SUPERVISOR_CAPACITY,
) -> RoleAssignment:
    """Bootstrap ranking of each node id by its assessment."""
    if r_max < 1:
        raise ValueError("at least one recorder slot is required")
    if s_max < 0:
        raise ValueError("supervisor capacity must be non-negative")
    if not assessments:
        raise ValueError("cannot assign roles with no nodes")
    return _rank(assessments, r_max, s_max, epoch=0)


def reelect(credits: Mapping[int, int], assignment: RoleAssignment) -> RoleAssignment:
    """Periodic re-ranking of ``assignment``'s nodes, the keys of
    ``credits``, by credit; committee sizes unchanged, epoch incremented."""
    r_max, s_max = len(assignment.recorders), len(assignment.supervisors)
    return _rank(credits, r_max, s_max, epoch=assignment.epoch + 1)


def apply_record_outcome(uploader_id: int, correct: bool, tick: int) -> CreditEvent:
    """+1 per correct record, -1 per erroneous one."""
    reason = CreditReason.RECORD_CORRECT if correct else CreditReason.RECORD_ERRONEOUS
    return CreditEvent(uploader_id, 1 if correct else -1, reason, tick)


def apply_block_outcome(recorder_id: int, erroneous: bool, tick: int) -> CreditEvent:
    """+1 to the sealing recorder per clean block, -1 per flagged block."""
    reason = CreditReason.BLOCK_ERRONEOUS if erroneous else CreditReason.BLOCK_CLEAN
    return CreditEvent(recorder_id, -1 if erroneous else 1, reason, tick)


def majority(verdicts: Sequence[bool]) -> bool:
    """A committee's verdict: ok if ``QUORUM`` of its ``VALIDATOR_COUNT`` votes say so."""
    if len(verdicts) != VALIDATOR_COUNT:
        raise ValueError(f"a committee casts {VALIDATOR_COUNT} votes, got {len(verdicts)}")
    return sum(verdicts) >= QUORUM


def apply_validator_outcomes(votes: Sequence[tuple[int, bool]], tick: int) -> tuple[list[CreditEvent], bool]:
    """Majority verdict over a committee's votes; agreeing validators +1,
    dissenters -1. Returns the events and the majority verdict (True=ok)."""
    majority_ok = majority([verdict for _, verdict in votes])
    events = []
    for validator_id, verdict in votes:
        agreed = verdict == majority_ok
        reason = CreditReason.VALIDATOR_AGREED if agreed else CreditReason.VALIDATOR_DISSENTED
        events.append(CreditEvent(validator_id, 1 if agreed else -1, reason, tick))
    return events, majority_ok


def apply_round(state: CreditState, outcome: RoundOutcome) -> tuple[CreditState, tuple[CreditEvent, ...]]:
    """The ledger transition of one round, for a live run and a replay of
    its log alike. A decided round books its validators against the
    majority, then its recorder and its uploaders by the verdict: +1 each
    if the block committed, -1 if it was rejected. Every round, skipped or
    not, counts toward the epoch, and the round that closes one re-elects
    the committees by the credits after it."""
    events = []
    if outcome.votes:
        events, ok = apply_validator_outcomes(outcome.votes, outcome.tick)
        events.append(apply_block_outcome(outcome.recorder, not ok, outcome.tick))
        events += [apply_record_outcome(uploader, ok, outcome.tick) for uploader in outcome.uploaders]
    credits = _book(state.credits, events)
    rounds = state.rounds + 1
    assignment = state.assignment
    if rounds % state.epoch_length == 0:
        assignment = reelect(credits, assignment)
    return state._replace(credits=credits, assignment=assignment, rounds=rounds), tuple(events)


# the intake refusals that the bytes the uploader signed caused
_BLAMED_AT_INTAKE = frozenset({RejectReason.SIGNATURE_INVALID, RejectReason.DIGEST_MISMATCH})


def apply_intake(
    state: CreditState, uploader_id: int, reason: RejectReason, tick: int
) -> tuple[CreditState, tuple[CreditEvent, ...]]:
    """The intake rule: a recorder refused ``uploader_id``'s upload envelope
    for ``reason``. The uploader is booked -1 for a bad signature or a
    payload that does not match its signed digest; nobody can be blamed for
    ciphertext that does not authenticate, nor for a key off the permission
    list."""
    if reason not in _BLAMED_AT_INTAKE:
        return state, ()
    events = (apply_record_outcome(uploader_id, False, tick),)
    return state._replace(credits=_book(state.credits, events)), events


def duty_recorder(assignment: RoleAssignment, round_index: int) -> int:
    """Strict round-robin over the recorder committee."""
    if not assignment.recorders:
        raise ValueError("no recorders available")
    return assignment.recorders[round_index % len(assignment.recorders)]
