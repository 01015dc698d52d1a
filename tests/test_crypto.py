import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from gridledger import crypto
from gridledger.crypto import (
    ENVELOPE,
    DecryptionError,
    Envelope,
    MalformedEnvelopeError,
    decrypt,
    digest,
    encrypt_for,
    generate_keypair,
    sign,
    verify,
)

from testutil import keypair


class TestKeypairGeneration:
    def test_deterministic(self):
        seed = b"\x11" * 32
        assert generate_keypair(seed) == generate_keypair(seed)

    def test_distinct_seeds_distinct_keys(self):
        a = generate_keypair(b"\x01" * 32)
        b = generate_keypair(b"\x02" * 32)
        assert a.public_key != b.public_key

    def test_key_lengths(self):
        kp = keypair(0)
        assert len(kp.public_key) == crypto.PUBLIC_KEY_LEN
        assert len(kp.private_key) == crypto.PRIVATE_KEY_LEN

    def test_bad_seed_length(self):
        with pytest.raises(ValueError):
            generate_keypair(b"short")
        with pytest.raises(ValueError):
            generate_keypair(b"\x00" * 33)

    def test_thousand_seeds_all_distinct(self):
        rng = random.Random(42)
        seen = set()
        for _ in range(1000):
            kp = generate_keypair(rng.randbytes(32))
            seen.add(kp.public_key)
        assert len(seen) == 1000


class TestDigest:
    def test_deterministic(self):
        assert digest(b"abc") == digest(b"abc")

    def test_fixed_length(self):
        assert len(digest(b"")) == 32
        assert len(digest(b"x" * 10000)) == 32

    def test_empty_input_pinned(self):
        # SHA-256 of the empty string, the sentinel the merkle module reuses
        assert digest(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_flip_one_bit_changes_digest(self):
        rng = random.Random(7)
        for _ in range(256):
            data = bytearray(rng.randbytes(rng.randrange(1, 64)))
            original = digest(bytes(data))
            pos = rng.randrange(len(data))
            data[pos] ^= 1 << rng.randrange(8)
            assert digest(bytes(data)) != original


class TestSignVerify:
    def test_round_trip(self):
        kp = keypair(1)
        sig = sign(kp.private_key, b"message")
        assert verify(kp.public_key, b"message", sig)

    def test_wrong_key_fails(self):
        sig = sign(keypair(1).private_key, b"message")
        assert not verify(keypair(2).public_key, b"message", sig)

    def test_signing_is_deterministic(self):
        kp = keypair(3)
        assert sign(kp.private_key, b"m") == sign(kp.private_key, b"m")

    def test_empty_message(self):
        kp = keypair(4)
        assert verify(kp.public_key, b"", sign(kp.private_key, b""))

    def test_malformed_inputs_verify_false(self):
        kp = keypair(5)
        sig = sign(kp.private_key, b"m")
        assert not verify(b"\x00" * 10, b"m", sig)
        assert not verify(kp.public_key, b"m", b"\x00" * 7)
        assert not verify(b"\xff" * 64, b"m", sig)

    def test_bit_flip_sweep(self):
        rng = random.Random(99)
        kp = keypair(6)
        for _ in range(100):
            message = rng.randbytes(rng.randrange(1, 128))
            sig = sign(kp.private_key, message)
            mutated = bytearray(message)
            pos = rng.randrange(len(mutated))
            mutated[pos] ^= 1 << rng.randrange(8)
            assert not verify(kp.public_key, bytes(mutated), sig)
            bad_sig = bytearray(sig)
            pos = rng.randrange(len(bad_sig))
            bad_sig[pos] ^= 1 << rng.randrange(8)
            assert not verify(kp.public_key, message, bytes(bad_sig))


class TestEnvelope:
    def test_round_trip(self):
        kp = keypair(10)
        env = encrypt_for(kp.public_key, b"grid readings")
        assert decrypt(kp.private_key, env) == b"grid readings"

    def test_wrong_key_raises(self):
        env = encrypt_for(keypair(10).public_key, b"secret")
        with pytest.raises(DecryptionError):
            decrypt(keypair(11).private_key, env)

    def test_empty_payload(self):
        kp = keypair(12)
        assert decrypt(kp.private_key, encrypt_for(kp.public_key, b"")) == b""

    def test_one_mebibyte_round_trip(self):
        kp = keypair(13)
        payload = random.Random(5).randbytes(1024 * 1024)
        assert decrypt(kp.private_key, encrypt_for(kp.public_key, payload)) == payload

    def test_truncated_envelope(self):
        kp = keypair(14)
        env = encrypt_for(kp.public_key, b"data")
        broken = Envelope(
            encrypted_key=env.encrypted_key[:-4], nonce=env.nonce, ciphertext=env.ciphertext
        )
        with pytest.raises(MalformedEnvelopeError):
            decrypt(kp.private_key, broken)

    def test_a_public_key_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="^malformed public key$"):
            encrypt_for(keypair(19).public_key[:32], b"data")

    @pytest.mark.parametrize(
        "field, cut, message",
        [("nonce", 1, "nonce has wrong length"), ("ciphertext", 1, "ciphertext shorter than its tag")],
    )
    def test_a_short_field_is_malformed(self, field, cut, message):
        kp = keypair(20)
        env = encrypt_for(kp.public_key, b"")  # its ciphertext is the 16-byte tag alone
        broken = env._replace(**{field: getattr(env, field)[:-cut]})
        with pytest.raises(MalformedEnvelopeError, match=f"^{message}$"):
            decrypt(kp.private_key, broken)

    def test_serialization_round_trip(self):
        env = encrypt_for(keypair(15).public_key, b"x" * 100)
        assert ENVELOPE.decode(ENVELOPE.encode(env)) == env

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(MalformedEnvelopeError):
            ENVELOPE.decode(b"\x00\x00\x00\xff")
        env = encrypt_for(keypair(16).public_key, b"y")
        with pytest.raises(MalformedEnvelopeError):
            ENVELOPE.decode(ENVELOPE.encode(env) + b"!")

    def test_seeded_rng_reproduces_envelope(self):
        kp = keypair(17)
        a = encrypt_for(kp.public_key, b"payload", rng=random.Random(1))
        b = encrypt_for(kp.public_key, b"payload", rng=random.Random(1))
        c = encrypt_for(kp.public_key, b"payload", rng=random.Random(2))
        assert a == b
        assert a != c

    def test_ciphertext_tamper_detected(self):
        kp = keypair(18)
        env = encrypt_for(kp.public_key, b"readings")
        mutated = bytearray(env.ciphertext)
        mutated[0] ^= 1
        with pytest.raises(DecryptionError):
            decrypt(kp.private_key, Envelope(env.encrypted_key, env.nonce, bytes(mutated)))


def test_golden_vectors_pin_the_scheme():
    # seed, message, public key, digest, signature: frozen once; any change
    # to the key derivation, hash, or signing layout breaks these
    from pathlib import Path

    fixture = Path(__file__).parent / "fixtures" / "crypto_vectors.txt"
    for line in fixture.read_text().splitlines():
        seed_hex, message_hex, public_hex, digest_hex, signature_hex = line.split("\t")
        kp = generate_keypair(bytes.fromhex(seed_hex))
        message = bytes.fromhex(message_hex)
        assert kp.public_key.hex() == public_hex
        assert digest(message).hex() == digest_hex
        assert sign(kp.private_key, message).hex() == signature_hex
        assert verify(kp.public_key, message, bytes.fromhex(signature_hex))


class TestSignerCache:
    """`sign` reads the key `generate_keypair` loaded into `_node_key`, or
    loads it once itself; the signatures must be the ones a fresh load
    gives."""

    def test_cached_signatures_match_golden_vectors(self):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "crypto_vectors.txt"
        for line in fixture.read_text().splitlines():
            seed_hex, message_hex, _, _, signature_hex = line.split("\t")
            message = bytes.fromhex(message_hex)
            kp = generate_keypair(bytes.fromhex(seed_hex))
            before = crypto._node_key.cache_info()
            assert sign(kp.private_key, message).hex() == signature_hex  # loaded by generate_keypair
            assert crypto._node_key.cache_info().hits == before.hits + 1
            crypto._node_key.cache_clear()
            assert sign(kp.private_key, message).hex() == signature_hex  # loaded by sign
            assert sign(kp.private_key, message).hex() == signature_hex  # cached by sign
            assert crypto._node_key.cache_info()[:2] == (1, 1)  # hits, misses

    def test_interleaved_keys_sign_under_their_own_key(self):
        a, b = keypair(31), keypair(32)
        for i in range(4):
            message = b"message %d" % i
            sig_a, sig_b = sign(a.private_key, message), sign(b.private_key, message)
            assert verify(a.public_key, message, sig_a) and not verify(b.public_key, message, sig_a)
            assert verify(b.public_key, message, sig_b) and not verify(a.public_key, message, sig_b)

    def test_malformed_private_key_still_raises(self):
        kp = keypair(33)
        sign(kp.private_key, b"warm the cache")
        for bad in (b"", kp.private_key[:63], kp.private_key + b"\x00"):
            with pytest.raises(ValueError):
                sign(bad, b"message")


class TestVerifierCache:
    """`verify` derives each key's verify half and key digest once; every
    call must still run Ed25519 and give a fresh derivation's verdict."""

    def test_flipped_signature_fails_once_the_key_is_cached(self):
        crypto._verifier.cache_clear()
        kp = keypair(51)
        sig = sign(kp.private_key, b"message")
        assert verify(kp.public_key, b"message", sig)
        for i in range(0, 8 * len(sig), 61):
            bad = bytearray(sig)
            bad[i // 8] ^= 1 << (i % 8)
            assert not verify(kp.public_key, b"message", bytes(bad))
        assert verify(kp.public_key, b"message", sig)
        assert crypto._verifier.cache_info().hits > 0

    def test_invalid_point_verifies_false(self):
        kp = keypair(52)
        sig = sign(kp.private_key, b"m")
        for point in (b"\xff" * 32, bytes([2]) + bytes(31), bytes([0xED]) + b"\xff" * 30 + b"\x7f"):
            for _ in range(2):  # derived, then cached
                assert verify(point + kp.public_key[32:], b"m", sig) is False

    def test_bytearray_key(self):
        kp = keypair(53)
        sig = sign(kp.private_key, b"m")
        assert verify(bytearray(kp.public_key), b"m", sig)
        assert not verify(bytearray(kp.public_key), b"n", sig)

    def test_same_triple_runs_ed25519_each_time(self, monkeypatch):
        kp = keypair(54)
        sig = sign(kp.private_key, b"m")
        calls = []
        real_verifier = crypto._verifier

        class CountingKey:
            def __init__(self, key):
                self.key = key

            def verify(self, signature, data):
                calls.append(signature)
                return self.key.verify(signature, data)

        def counting_verifier(public_key):
            key, key_digest = real_verifier(public_key)
            return CountingKey(key), key_digest

        monkeypatch.setattr(crypto, "_verifier", counting_verifier)
        assert verify(kp.public_key, b"m", sig) and verify(kp.public_key, b"m", sig)
        assert len(calls) == 2

    def test_public_key_is_hashed_once(self, monkeypatch):
        # `_node_key` and `_verifier` both need the key digest; a fresh key
        # is hashed once between generating it, signing and verifying
        hashed = []
        real_digest = crypto.digest

        def counting_digest(data):
            hashed.append(bytes(data))
            return real_digest(data)

        monkeypatch.setattr(crypto, "digest", counting_digest)
        kp = generate_keypair(real_digest(b"a key no other test loads"))
        assert verify(kp.public_key, b"m", sign(kp.private_key, b"m"))
        assert hashed.count(kp.public_key) == 1


class TestOpenerCache:
    """`decrypt` reads the same `_node_key` entry `sign` does; opening must
    behave as a fresh load does."""

    def test_interleaved_keys_open_their_own_envelopes(self):
        rng = random.Random(41)
        a, b = keypair(41), keypair(42)
        sealed = [
            (kp, other, payload, encrypt_for(kp.public_key, payload, rng=rng))
            for i in range(3)
            for kp, other, payload in ((a, b, b"to a %d" % i), (b, a, b"to b %d" % i))
        ]
        crypto._node_key.cache_clear()
        for kp, other, payload, env in sealed:
            assert decrypt(kp.private_key, env) == payload
            with pytest.raises(DecryptionError):
                decrypt(other.private_key, env)
        assert crypto._node_key.cache_info()[:2] == (10, 2)  # hits, misses

    def test_malformed_private_key_still_raises(self):
        kp = keypair(43)
        env = encrypt_for(kp.public_key, b"payload")
        decrypt(kp.private_key, env)  # warm the cache
        for bad in (b"", kp.private_key[:63], kp.private_key + b"\x00"):
            with pytest.raises(ValueError):
                decrypt(bad, env)

    def test_wrong_key_still_raises_once_cached(self):
        kp, wrong = keypair(44), keypair(45)
        decrypt(wrong.private_key, encrypt_for(wrong.public_key, b"warm"))
        with pytest.raises(DecryptionError):
            decrypt(wrong.private_key, encrypt_for(kp.public_key, b"secret"))


@settings(max_examples=20, database=None, deadline=None, derandomize=True)
@given(seed=st.binary(min_size=32, max_size=32), message=st.binary(max_size=64))
def test_sign_and_decrypt_agree_however_the_key_was_loaded(seed, message):
    """Through `generate_keypair`'s entry, after `cache_clear()` and after
    1,025 other keypairs evicted the entry, `sign` and `decrypt` give the
    bytes a load outside the cache gives."""
    kp = generate_keypair(seed)
    signer = Ed25519PrivateKey.from_private_bytes(kp.private_key[:32])
    expected = signer.sign(digest(kp.public_key) + message)
    envelope = encrypt_for(kp.public_key, message, rng=random.Random(seed))

    def misses_of_one_use():
        misses = crypto._node_key.cache_info().misses
        assert sign(kp.private_key, message) == expected
        assert decrypt(kp.private_key, envelope) == message
        return crypto._node_key.cache_info().misses - misses

    assert misses_of_one_use() == 0
    crypto._node_key.cache_clear()
    assert misses_of_one_use() == 1
    for i in range(1025):
        generate_keypair(digest(seed + i.to_bytes(2, "big")))
    assert misses_of_one_use() == 1


def test_round_trip_property_sweep():
    rng = random.Random(123)
    for _ in range(50):
        kp = generate_keypair(rng.randbytes(32))
        payload = rng.randbytes(rng.randrange(0, 512))
        env = encrypt_for(kp.public_key, payload, rng=rng)
        assert decrypt(kp.private_key, env) == payload
        sig = sign(kp.private_key, payload)
        assert verify(kp.public_key, payload, sig)
