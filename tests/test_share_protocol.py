from dataclasses import replace

import pytest

from gridledger import chain as chain_mod
from gridledger import crypto
from gridledger.chain import Chain, RecordKind, genesis, trace
from gridledger.codec import U64, ByteReader
from gridledger.crypto import Envelope
from gridledger.datastore import DataStore, StoredObject
from gridledger.record_protocol import RejectReason, Rejected
from gridledger.share_protocol import (
    ShareEnvelope,
    ShareTransaction,
    initiate_share,
    receive_share,
    record_share,
    transaction_bytes,
)

from testutil import keypair, signed_record


def transaction_from_bytes(data: bytes) -> ShareTransaction:
    """Decode the payload `record_share` builds: sender key, receiver key,
    shared digest, tick, nothing after."""
    reader = ByteReader(data)
    sender = reader.take(crypto.PUBLIC_KEY_LEN)
    receiver = reader.take(crypto.PUBLIC_KEY_LEN)
    payload_digest = reader.take(crypto.DIGEST_LEN)
    (tick,) = reader.unpack(U64)
    reader.expect_end()
    return ShareTransaction(sender, receiver, payload_digest, tick)


@pytest.fixture
def world():
    """Alice has one committed record whose ciphertext sits in the store."""
    alice, bob, carol = keypair(1), keypair(2), keypair(3)
    recorder = keypair(1000)
    payload = b"grid telemetry for sharing"
    record = signed_record(alice, payload, tick=600)
    chain = Chain((genesis("t"),))
    chain = chain.append(chain_mod.make_block(recorder, chain.tip_digest, 600, (record,)))
    store = DataStore([f"u{i}" for i in range(5)], 3)
    store.put(
        StoredObject(
            payload_digest=crypto.digest(payload),
            ciphertext=crypto.encrypt_for(alice.public_key, payload),
            owner_public_key=alice.public_key,
        )
    )
    return alice, bob, carol, chain, store, payload


class TestInitiateShare:
    def test_owner_builds_valid_envelope(self, world):
        alice, bob, _, chain, store, payload = world
        env = initiate_share(alice, bob.public_key, crypto.digest(payload), chain, store)
        assert env.sender_public_key == alice.public_key
        assert env.claimed_digest == crypto.digest(payload)

    def test_non_owner_rejected(self, world):
        alice, bob, carol, chain, store, payload = world
        with pytest.raises(Rejected) as exc_info:
            initiate_share(bob, carol.public_key, crypto.digest(payload), chain, store)
        assert exc_info.value.reason is RejectReason.NOT_OWNER

    def test_unknown_digest_rejected(self, world):
        alice, bob, _, chain, store, _ = world
        with pytest.raises(Rejected) as exc_info:
            initiate_share(alice, bob.public_key, crypto.digest(b"never"), chain, store)
        assert exc_info.value.reason is RejectReason.DIGEST_NOT_ON_CHAIN

    def test_datastore_miss_rejected(self, world):
        alice, bob, _, chain, store, payload = world
        for unit in list(store.placements[crypto.digest(payload)]):
            store.fail_unit(unit)
        with pytest.raises(Rejected) as exc_info:
            initiate_share(alice, bob.public_key, crypto.digest(payload), chain, store)
        assert exc_info.value.reason is RejectReason.DATASTORE_MISS

    def test_someone_elses_copy_is_a_datastore_miss(self, world):
        # the store keeps the first copy put under a digest; here that is
        # carol's, sealed to her, while alice owns the digest on chain
        alice, bob, carol, chain, _, payload = world
        store = DataStore([f"u{i}" for i in range(5)], 3)
        store.put(
            StoredObject(
                payload_digest=crypto.digest(payload),
                ciphertext=crypto.encrypt_for(carol.public_key, payload),
                owner_public_key=carol.public_key,
            )
        )
        with pytest.raises(Rejected) as exc_info:
            initiate_share(alice, bob.public_key, crypto.digest(payload), chain, store)
        assert exc_info.value.reason is RejectReason.DATASTORE_MISS


class TestReceiveShare:
    def test_honest_share_delivers_payload(self, world):
        alice, bob, _, chain, store, payload = world
        env = initiate_share(alice, bob.public_key, crypto.digest(payload), chain, store)
        assert receive_share(bob, env) == payload

    def test_ciphertext_tamper_detected(self, world):
        alice, bob, _, chain, store, payload = world
        env = initiate_share(alice, bob.public_key, crypto.digest(payload), chain, store)
        mutated = bytearray(env.payload_envelope.ciphertext)
        mutated[3] ^= 1
        tampered = env._replace(
            payload_envelope=Envelope(
                env.payload_envelope.encrypted_key,
                env.payload_envelope.nonce,
                bytes(mutated),
            ),
        )
        with pytest.raises(Rejected) as exc_info:
            receive_share(bob, tampered)
        assert exc_info.value.reason in (RejectReason.DECRYPTION_FAILURE, RejectReason.DIGEST_MISMATCH)

    def test_replay_to_third_node_fails(self, world):
        alice, bob, carol, chain, store, payload = world
        env = initiate_share(alice, bob.public_key, crypto.digest(payload), chain, store)
        with pytest.raises(Rejected) as exc_info:
            receive_share(carol, env)
        assert exc_info.value.reason is RejectReason.DECRYPTION_FAILURE

    def test_a_payload_other_than_the_signed_one_is_digest_mismatch(self, world):
        # alice signs the digest of her payload but seals other bytes to bob
        alice, bob, _, chain, store, payload = world
        env = initiate_share(alice, bob.public_key, crypto.digest(payload), chain, store)
        swapped = env._replace(payload_envelope=crypto.encrypt_for(bob.public_key, b"other bytes"))
        with pytest.raises(Rejected) as exc_info:
            receive_share(bob, swapped)
        assert exc_info.value.reason is RejectReason.DIGEST_MISMATCH

    def test_forged_sender_signature_detected(self, world):
        alice, bob, carol, chain, store, payload = world
        env = initiate_share(alice, bob.public_key, crypto.digest(payload), chain, store)
        forged = env._replace(sender_public_key=carol.public_key)
        with pytest.raises(Rejected) as exc_info:
            receive_share(bob, forged)
        assert exc_info.value.reason is RejectReason.SIGNATURE_INVALID


class TestShareTransaction:
    def test_bytes_round_trip(self):
        tx = ShareTransaction(
            sender_public_key=keypair(1).public_key,
            receiver_public_key=keypair(2).public_key,
            payload_digest=crypto.digest(b"x"),
            tick=700,
        )
        assert transaction_from_bytes(transaction_bytes(tx)) == tx

    def test_record_share_metadata_references_shared_digest(self):
        shared = crypto.digest(b"the original payload")
        tx = ShareTransaction(keypair(1).public_key, keypair(2).public_key, shared, 700)
        payload, metadata = record_share(tx)
        assert payload == transaction_bytes(tx)
        assert metadata.kind is RecordKind.SHARE_TRANSACTION
        assert metadata.data_class == shared.hex()
        assert metadata.created_tick == 700

    def test_lineage_after_recording_share(self, world):
        alice, bob, _, chain, store, payload = world
        recorder = keypair(1000)
        shared = crypto.digest(payload)
        tx = ShareTransaction(alice.public_key, bob.public_key, shared, 1200)
        tx_payload, metadata = record_share(tx)
        tx_record = signed_record(alice, tx_payload, tick=1200)
        tx_record = replace(tx_record, metadata=metadata)
        chain = chain.append(chain_mod.make_block(recorder, chain.tip_digest, 1200, (tx_record,)))
        rows = trace(chain, shared)
        assert len(rows) == 2
        assert rows[0][2].metadata.kind is RecordKind.GRID_DATA
        assert rows[1][2].metadata.kind is RecordKind.SHARE_TRANSACTION
        decoded = transaction_from_bytes(tx_payload)
        assert decoded.receiver_public_key == bob.public_key


def test_third_party_cannot_decrypt_share_envelope(world):
    alice, bob, _, chain, store, payload = world
    env = initiate_share(alice, bob.public_key, crypto.digest(payload), chain, store)
    for tag in range(20, 40):
        outsider = keypair(tag)
        with pytest.raises(Rejected):
            receive_share(outsider, env)
    assert receive_share(bob, env) == payload


@pytest.mark.xfail(
    strict=True, reason="ROADMAP 20: a share signs the bare digest, as the chain record's public signature does"
)
def test_a_share_that_reuses_the_chain_record_signature_is_refused(world):
    # Carol holds Alice's payload, as a receiver of Alice's share does. She
    # copies Alice's uploader signature from the chain record and seals the
    # payload to Dave "from Alice", with no key of Alice's
    alice, _, _carol, chain, _, payload = world
    dave = keypair(4)
    record = chain.tip.records[0]
    forged = ShareEnvelope(
        alice.public_key, dave.public_key, record.payload_digest, record.uploader_signature,
        crypto.encrypt_for(dave.public_key, payload),
    )
    with pytest.raises(Rejected) as refused:
        receive_share(dave, forged)
    assert refused.value.reason is RejectReason.SIGNATURE_INVALID
