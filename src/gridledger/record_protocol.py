"""The seven-step data-recording procedure.

Uploaders request permission from the duty recorder (the permission list is
a set of public keys), then submit an upload envelope: the signed `Record`
they ask to commit, and the payload sealed to the recorder's key. The
recorder decrypts, checks the record's signature and the payload's digest,
queues that same record, and re-seals the payload to the *uploader's* key
for at-rest storage. On each block interval the duty recorder seals the
pending queue into a block, the on-duty supervisor plus two RNG-drawn
candidates re-validate it, and a majority verdict commits or rejects it;
`credit.apply_round` books the round's credit events.

The digest an uploader signed travels in the record, next to its
signature: that is what lets a recorder tell a forged signature apart from
a payload swapped after signing.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from . import chain as chain_mod
from . import credit as credit_mod
from . import crypto
from .chain import Block, BlockCheck, Record, RecordMetadata
from .codec import BOOL, Fixed, Layout, ListOf, Nested, UInt, VarBytes
from .credit import RoleAssignment
from .crypto import Envelope, Keypair
from .datastore import StoredObject
from .sigpass import Triple

VALIDATOR_COUNT = 3
QUORUM = 2


class ProtocolError(Exception):
    """Misuse of the protocol surface (wrong validator, bad vote set...)."""


class UploadError(Enum):
    PERMISSION_DENIED = "permission-denied"
    SIGNATURE_INVALID = "signature-invalid"
    DIGEST_MISMATCH = "digest-mismatch"
    DECRYPTION_FAILURE = "decryption-failure"


class UploadRejected(Exception):
    def __init__(self, reason: UploadError):
        super().__init__(reason.value)
        self.reason = reason


class UploadRequest(NamedTuple):
    """An uploader's request to the duty recorder: permission for its key."""

    uploader_public_key: bytes


class UploadGrant(NamedTuple):
    """The duty recorder's answer, and the key to seal the upload to."""

    granted: bool
    recorder_public_key: bytes


class UploadEnvelope(NamedTuple):
    """The record an uploader asks to commit and the payload it covers,
    sealed to the duty recorder."""

    record: Record
    payload_envelope: Envelope


def _upload_envelope(uploader, payload_digest, signature, payload_envelope, metadata) -> UploadEnvelope:
    return UploadEnvelope(Record(uploader, payload_digest, metadata, signature), payload_envelope)


UPLOAD_REQUEST = Layout(
    "upload request", UploadRequest, {"uploader_public_key": Fixed(crypto.PUBLIC_KEY_LEN, "uploader key")}
)
UPLOAD_GRANT = Layout(
    "upload grant",
    UploadGrant,
    {"granted": BOOL, "recorder_public_key": Fixed(crypto.PUBLIC_KEY_LEN, "recorder key")},
)
UPLOAD_ENVELOPE = Layout(
    "upload envelope",
    _upload_envelope,
    {
        "record.uploader_public_key": Fixed(crypto.PUBLIC_KEY_LEN, "uploader key"),
        "record.payload_digest": Fixed(crypto.DIGEST_LEN, "payload digest"),
        "record.uploader_signature": Fixed(crypto.SIGNATURE_LEN, "uploader signature"),
        "payload_envelope": VarBytes(crypto.ENVELOPE),
        "record.metadata": Nested(chain_mod.METADATA),
    },
)


class ProposedBlock(NamedTuple):
    block: Block
    proposer_id: int
    validator_ids: tuple[int, int, int]


class Verdict(NamedTuple):
    ok: bool
    bad_indices: tuple[int, ...]


class SignedVerdict(NamedTuple):
    """What a validator signs: its verdict on the block with ``block_digest``."""

    block_digest: bytes
    verdict: Verdict


VERDICT = Layout("vote verdict", Verdict, {"ok": BOOL, "bad_indices": ListOf(UInt(32))})
VOTE = Layout(
    "vote", SignedVerdict, {"block_digest": Fixed(crypto.DIGEST_LEN, "block digest"), "verdict": Nested(VERDICT)}
)
_VERDICT = VOTE.offset("verdict")  # where a vote's verdict starts in its signed bytes
_OK = _VERDICT + VERDICT.offset("ok")


class Vote(NamedTuple):
    """A validator's signed verdict on a block. ``signed`` is the
    `vote_signing_bytes` the signature covers, built once; ``ok`` and
    ``bad_indices`` read the verdict from them at its offset, so the verdict
    that is tallied is the one that was signed."""

    validator_id: int
    signed: bytes
    signature: bytes

    @property
    def ok(self) -> bool:
        return BOOL.members[self.signed[_OK]]

    @property
    def bad_indices(self) -> tuple[int, ...]:
        return VERDICT.decode(self.signed[_VERDICT:]).bad_indices


class CommitResult(NamedTuple):
    committed: bool
    quarantined: tuple[tuple[int, Record], ...]
    survivors: tuple[Record, ...]


def prepare_upload(
    uploader: Keypair,
    recorder_public_key: bytes,
    payload: bytes,
    metadata: RecordMetadata,
    rng=None,
) -> UploadEnvelope:
    """Check the metadata bounds, sign the payload digest into the record
    to commit, and seal the payload to the duty recorder. The plaintext
    never leaves the uploader unencrypted."""
    chain_mod.METADATA.encode(metadata)
    payload_digest = crypto.digest(payload)
    signature = crypto.sign(uploader.private_key, payload_digest)
    record = Record(uploader.public_key, payload_digest, metadata, signature)
    return UploadEnvelope(record, crypto.encrypt_for(recorder_public_key, payload, rng))


def receive_upload(
    recorder: Keypair,
    envelope: UploadEnvelope,
    permissions: frozenset[bytes],
    rng=None,
) -> StoredObject:
    """Duty-recorder intake of ``envelope.record``: check its key is on the
    permission list, open the envelope, verify its `chain.signature_triple`
    and the payload's recomputed digest, and return the at-rest object
    re-sealed to the uploader's own key. The caller queues the record."""
    record = envelope.record
    if record.uploader_public_key not in permissions:
        raise UploadRejected(UploadError.PERMISSION_DENIED)
    try:
        payload = crypto.decrypt(recorder.private_key, envelope.payload_envelope)
    except (crypto.DecryptionError, crypto.MalformedEnvelopeError):
        raise UploadRejected(UploadError.DECRYPTION_FAILURE) from None
    if not crypto.verify(*chain_mod.signature_triple(record)):
        raise UploadRejected(UploadError.SIGNATURE_INVALID)
    if crypto.digest(payload) != record.payload_digest:
        raise UploadRejected(UploadError.DIGEST_MISMATCH)
    return StoredObject(
        payload_digest=record.payload_digest,
        ciphertext=crypto.encrypt_for(record.uploader_public_key, payload, rng),
        owner_public_key=record.uploader_public_key,
    )


def seal_block(
    recorder: Keypair,
    proposer_id: int,
    pending: Sequence[Record],
    prev_block_digest: bytes,
    tick: int,
    supervisor_id: int,
    candidate_pool: Sequence[int],
    rng,
) -> ProposedBlock:
    """Build and sign the interval block from the pending queue (arrival
    order, each distinct record once: a block that lists a record twice is
    invalid), and pick its validators: the on-duty supervisor plus two
    candidates drawn from the seeded RNG. An empty queue still seals an
    empty block so the timestamp chain advances."""
    if len(candidate_pool) < 2:
        raise ProtocolError("need at least two candidates for validation")
    records = tuple(dict.fromkeys(pending))
    block = chain_mod.make_block(recorder, prev_block_digest, tick, records)
    picked = rng.sample(list(candidate_pool), 2)
    return ProposedBlock(
        block=block,
        proposer_id=proposer_id,
        validator_ids=(supervisor_id, picked[0], picked[1]),
    )


def vote_signing_bytes(block_digest: bytes, ok: bool, bad_indices: tuple[int, ...]) -> bytes:
    return VOTE.encode(SignedVerdict(block_digest, Verdict(ok, bad_indices)))


def sign_vote(
    validator: Keypair, validator_id: int, block_digest: bytes, ok: bool, bad_indices: tuple[int, ...]
) -> Vote:
    signed = vote_signing_bytes(block_digest, ok, bad_indices)
    return Vote(validator_id, signed, crypto.sign(validator.private_key, signed))


def vote_triple(block_digest: bytes, vote: Vote, public_key: bytes) -> Triple:
    """The (key, signed bytes, signature) triple that checks ``vote`` on the
    block with ``block_digest``, as `sigpass` takes it: the vote's own
    signed bytes, or, for a vote signed on another block, its verdict on
    this one."""
    signed = vote.signed
    if not signed.startswith(block_digest):
        signed = block_digest + signed[len(block_digest):]
    return public_key, signed, vote.signature


def validate_proposal(
    validator: Keypair,
    validator_id: int,
    proposal: ProposedBlock,
    check: BlockCheck,
    validity_predicate: Callable[[Record], bool],
) -> Vote:
    """Second-stage review. ``check`` is `chain.validate_block` of the
    proposed block against the tip; it depends on nothing else, so one
    check serves all three validators. Per record, the scenario's validity
    predicate is applied too. The verdict is ok only if everything holds;
    otherwise the offending record indices are flagged (header-level
    failures flag none)."""
    if validator_id not in proposal.validator_ids:
        raise ProtocolError(f"node {validator_id} is not an assigned validator")
    block = proposal.block
    bad: tuple[int, ...] = ()
    if check.fault is None:
        bad = tuple(
            i
            for i, record in enumerate(block.records)
            if i in check.bad_records or not validity_predicate(record)
        )
    ok = check.fault is None and not bad
    return sign_vote(validator, validator_id, chain_mod.block_digest(block), ok, bad)


def commit(proposal: ProposedBlock, votes: Sequence[Vote], check: BlockCheck) -> CommitResult:
    """Tally exactly three votes, one from each assigned validator. Their
    signatures are not checked here: the caller verifies each vote's
    `vote_triple`, and its failure can only abort the run, since a vote's
    signature steers nothing. The tally moves no credit: the caller hands
    the votes to `credit.apply_round`. A majority ok (`credit.majority`)
    commits the block, which the caller appends; ``check``, the validators'
    `validate_block` of the block against the tip, is the gate: if it holds
    a fault, that fault is raised. Majority erroneous drops the
    quorum-flagged records to quarantine and keeps the surviving records
    pending."""
    if len(votes) != VALIDATOR_COUNT:
        raise ProtocolError(f"expected {VALIDATOR_COUNT} votes, got {len(votes)}")
    seen = set()
    for vote in votes:
        if vote.validator_id not in proposal.validator_ids or vote.validator_id in seen:
            raise ProtocolError(f"vote from unassigned validator {vote.validator_id}")
        seen.add(vote.validator_id)

    if credit_mod.majority([vote.ok for vote in votes]):
        error = check.error()
        if error is not None:
            raise error
        return CommitResult(committed=True, quarantined=(), survivors=())

    flags = Counter(index for vote in votes if not vote.ok for index in vote.bad_indices)
    records = tuple(enumerate(proposal.block.records))
    quarantined = tuple((i, record) for i, record in records if flags[i] >= QUORUM)
    survivors = tuple(record for i, record in records if flags[i] < QUORUM)
    return CommitResult(committed=False, quarantined=quarantined, survivors=survivors)


def choose_validators(
    assignment: RoleAssignment, round_index: int, alive: Callable[[int], bool] | None = None
) -> tuple[int, tuple[int, ...]]:
    """On-duty supervisor (skipping crashed ones in rotation order) and the
    alive candidate pool the two extra validators are sampled from."""
    alive = alive or (lambda _nid: True)
    supervisors = assignment.supervisors
    if not supervisors:
        raise ProtocolError("no supervisors configured")
    supervisor_id = None
    for offset in range(len(supervisors)):
        candidate = supervisors[(round_index + offset) % len(supervisors)]
        if alive(candidate):
            supervisor_id = candidate
            break
    if supervisor_id is None:
        raise ProtocolError("no alive supervisor")
    pool = tuple(nid for nid in assignment.candidates if alive(nid))
    if len(pool) < 2:
        raise ProtocolError("fewer than two alive candidates")
    return supervisor_id, pool
