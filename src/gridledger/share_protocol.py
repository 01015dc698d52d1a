"""Peer-to-peer data sharing with on-chain transaction evidence.

The sender proves ownership against the chain (the original grid-data record
must carry the sender's key), pulls its own at-rest ciphertext, re-seals the
plaintext to the receiver, and signs what `SHARE_ENVELOPE` declares its
signature covers: the bare claimed digest. The receiver opens it as a
recorder opens an upload (`record_protocol.open_signed`): it decrypts,
checks the signature, then recomputes the digest. That confirms integrity,
not origin: the signature is byte-for-byte the owner's `uploader_signature`
on the digest's chain record, so anyone who holds the payload can send it
"from the owner" (ROADMAP item 20(b) gives a share a statement of its own).
A successful delivery is then evidenced by a share-transaction record pushed
through the ordinary recording pathway; its metadata carries the shared
digest's hex so lineage queries work from chain data alone.
"""

from __future__ import annotations

from typing import NamedTuple

from . import crypto
from .chain import Chain, RecordKind, RecordMetadata
from .codec import Fixed, Layout, Signed, UInt, VarBytes
from .crypto import Envelope, Keypair
from .datastore import DataStore
from .record_protocol import RejectReason, Rejected, open_signed


class ShareEnvelope(NamedTuple):
    sender_public_key: bytes
    receiver_public_key: bytes
    claimed_digest: bytes
    signed_digest: bytes
    payload_envelope: Envelope


class ShareTransaction(NamedTuple):
    """On-chain evidence of one transfer."""

    sender_public_key: bytes
    receiver_public_key: bytes
    payload_digest: bytes
    tick: int


SHARE_ENVELOPE = Layout(
    "share envelope",
    ShareEnvelope,
    {
        "sender_public_key": Fixed(crypto.PUBLIC_KEY_LEN, "sender key"),
        "receiver_public_key": Fixed(crypto.PUBLIC_KEY_LEN, "receiver key"),
        "claimed_digest": Fixed(crypto.DIGEST_LEN, "claimed digest"),
        "signed_digest": Fixed(crypto.SIGNATURE_LEN, "sender signature"),
        "payload_envelope": VarBytes(crypto.ENVELOPE),
    },
    signed=Signed(key="sender_public_key", covers=("claimed_digest",), signature="signed_digest"),
)
SHARE_TRANSACTION = Layout(
    "share transaction",
    ShareTransaction,
    {
        "sender_public_key": Fixed(crypto.PUBLIC_KEY_LEN, "sender key"),
        "receiver_public_key": Fixed(crypto.PUBLIC_KEY_LEN, "receiver key"),
        "payload_digest": Fixed(crypto.DIGEST_LEN, "payload digest"),
        "tick": UInt(64),
    },
)
transaction_bytes = SHARE_TRANSACTION.encode


def _owner_of(chain: Chain, payload_digest: bytes) -> bytes | None:
    for block in chain.blocks:
        for record in block.records:
            if record.metadata.kind is RecordKind.GRID_DATA and record.payload_digest == payload_digest:
                return record.uploader_public_key
    return None


def initiate_share(
    sender: Keypair,
    receiver_public_key: bytes,
    payload_digest: bytes,
    chain: Chain,
    store: DataStore,
    rng=None,
) -> ShareEnvelope:
    """Ownership-checked share: only the original uploader of the digest may
    share it, and the plaintext comes from the sender's own at-rest copy."""
    owner = _owner_of(chain, payload_digest)
    if owner is None:
        raise Rejected(RejectReason.DIGEST_NOT_ON_CHAIN)
    if owner != sender.public_key:
        raise Rejected(RejectReason.NOT_OWNER)
    stored = store.get(payload_digest)
    if stored is None or stored.owner_public_key != sender.public_key:
        raise Rejected(RejectReason.DATASTORE_MISS)
    plaintext = crypto.decrypt(sender.private_key, stored.ciphertext)
    sealed = crypto.encrypt_for(receiver_public_key, plaintext, rng)
    unsigned = ShareEnvelope(sender.public_key, receiver_public_key, payload_digest, b"", sealed)
    return unsigned._replace(signed_digest=crypto.sign(sender.private_key, SHARE_ENVELOPE.signing_bytes(unsigned)))


def receive_share(receiver: Keypair, envelope: ShareEnvelope) -> bytes:
    """`open_signed` the payload against the envelope's `SHARE_ENVELOPE.triple`:
    the sender key's signature over the claimed digest. Success returns the
    plaintext, which hashes to that digest; it does not confirm who sent it,
    since the chain record of the digest carries the same signature
    (ROADMAP item 20(b)). Each failure mode raises a distinct reason."""
    return open_signed(receiver, envelope.payload_envelope, SHARE_ENVELOPE.triple(envelope), envelope.claimed_digest)


def record_share(tx: ShareTransaction) -> tuple[bytes, RecordMetadata]:
    """Canonical upload inputs for evidencing a delivered share through the
    standard recording pathway. The record's data_class is the shared
    digest's hex, which is what `chain.trace_blocks` matches lineage on."""
    return (
        transaction_bytes(tx),
        RecordMetadata(
            kind=RecordKind.SHARE_TRANSACTION,
            data_class=tx.payload_digest.hex(),
            created_tick=tx.tick,
        ),
    )
