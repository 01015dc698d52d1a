"""Asymmetric crypto primitives used throughout the ledger.

One pinned suite, chosen behind this module boundary: Ed25519 signatures
(deterministic, so replayed simulations produce byte-identical chains),
X25519 + HKDF-SHA256 + AES-256-GCM for the hybrid envelope, and SHA-256
digests. A node keypair bundles one signing key and one sealing key, both
derived from a single 32-byte seed. `generate_keypair` loads both halves
once, into the key cache `sign` and `decrypt` read; `verify` caches each
public key's loaded verify half, never a verdict.

Every operation that needs entropy (`generate_keypair` aside, which is
seed-driven by contract) accepts an optional ``rng`` with a ``randbytes``
method; the simulator passes its seeded stream, callers outside a
simulation get ``os.urandom``.
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from typing import NamedTuple

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .codec import Layout, VarBytes

SEED_LEN = 32
DIGEST_LEN = 32
PUBLIC_KEY_LEN = 64   # Ed25519 verify key (32) || X25519 seal key (32)
PRIVATE_KEY_LEN = 64  # signing seed (32) || sealing seed (32)
SIGNATURE_LEN = 64
NONCE_LEN = 12
SESSION_KEY_LEN = 32
ENCRYPTED_KEY_LEN = 32 + SESSION_KEY_LEN + 16  # ephemeral pub || wrapped key+tag

_KEY_DERIVE_INFO = b"gridledger/node-identity"
_ENVELOPE_INFO = b"gridledger/envelope-wrap"
_WRAP_NONCE = b"\x00" * NONCE_LEN  # key-encryption key is single-use per envelope


class CryptoError(Exception):
    """Base for failures in this module."""


class DecryptionError(CryptoError):
    """Envelope could not be opened with the given private key."""


class MalformedEnvelopeError(CryptoError):
    """Envelope bytes or fields do not have the expected shape."""


class Keypair(NamedTuple):
    public_key: bytes
    private_key: bytes


class Envelope(NamedTuple):
    """Hybrid ciphertext: a session key sealed to the recipient plus the
    AES-GCM payload ciphertext."""

    encrypted_key: bytes
    nonce: bytes
    ciphertext: bytes


ENVELOPE = Layout(
    "envelope",
    Envelope,
    {"encrypted_key": VarBytes(), "nonce": VarBytes(), "ciphertext": VarBytes()},
    error=MalformedEnvelopeError,
)


def _entropy(rng, n: int) -> bytes:
    return rng.randbytes(n) if rng is not None else os.urandom(n)


def digest(data: bytes) -> bytes:
    """SHA-256 of ``data``; 32 bytes, pure."""
    return hashlib.sha256(data).digest()


def generate_keypair(seed: bytes) -> Keypair:
    """Derive a signing+sealing keypair from a 32-byte seed.

    Deterministic: the same seed always yields the same keypair, which is
    what makes simulation replays byte-identical. The halves it loads stay
    in `_node_key` for `sign` and `decrypt`.
    """
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_LEN:
        raise ValueError(f"seed must be exactly {SEED_LEN} bytes")
    private_key = HKDF(
        algorithm=hashes.SHA256(),
        length=PRIVATE_KEY_LEN,
        salt=None,
        info=_KEY_DERIVE_INFO,
    ).derive(bytes(seed))
    return Keypair(public_key=_node_key(private_key).public_key, private_key=private_key)


class _NodeKey(NamedTuple):
    signer: Ed25519PrivateKey
    opener: X25519PrivateKey
    public_key: bytes  # verify key || seal key
    key_digest: bytes  # digest(public_key), prefixes every signed message


@lru_cache(maxsize=1024)
def _node_key(private_key: bytes) -> _NodeKey:
    """Both halves of a 64-byte private key, loaded once: loading a half is
    a scalar multiplication, most of the cost of a signature."""
    signer = Ed25519PrivateKey.from_private_bytes(private_key[:32])
    opener = X25519PrivateKey.from_private_bytes(private_key[32:])
    public_key = (
        signer.public_key().public_bytes_raw() + opener.public_key().public_bytes_raw()
    )
    return _NodeKey(signer, opener, public_key, _key_digest(public_key))


@lru_cache(maxsize=1024)
def _key_digest(public_key: bytes) -> bytes:
    """The digest that prefixes every message ``public_key`` signs, taken
    once per key for both `_node_key` and `_verifier`."""
    return digest(public_key)


def sign(private_key: bytes, message: bytes) -> bytes:
    """Ed25519 signature bound to the signer's full composite public key, so
    perturbing any byte of a public key breaks verification, not just the
    signing half."""
    if len(private_key) != PRIVATE_KEY_LEN:
        raise ValueError("malformed private key")
    key = _node_key(bytes(private_key))
    return key.signer.sign(key.key_digest + message)


@lru_cache(maxsize=1024)
def _verifier(public_key: bytes) -> tuple[Ed25519PublicKey, bytes]:
    """The Ed25519 verify key of a composite ``public_key`` and the digest
    that prefixes every message it signs, derived once per key as `_node_key`
    does for private keys. Only the key is cached, never a verdict. A verify
    half the backend refuses to load raises ValueError, and is not cached."""
    return Ed25519PublicKey.from_public_bytes(public_key[:32]), _key_digest(public_key)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` was produced by the matching private key over
    exactly ``message``. Malformed inputs verify false, never raise."""
    if len(public_key) != PUBLIC_KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    try:
        verifier, key_digest = _verifier(bytes(public_key))
        verifier.verify(signature, key_digest + message)
    except (InvalidSignature, ValueError):
        return False
    return True


def _wrap_kek(shared: bytes, ephemeral_pub: bytes, recipient_seal: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=32,
        salt=None,
        info=_ENVELOPE_INFO + ephemeral_pub + recipient_seal,
    ).derive(shared)


def encrypt_for(public_key: bytes, plaintext: bytes, rng=None) -> Envelope:
    """Seal ``plaintext`` to the holder of ``public_key``'s private half.

    A fresh session key encrypts the payload; the session key is wrapped
    under an ephemeral X25519 agreement with the recipient's seal key.
    """
    if len(public_key) != PUBLIC_KEY_LEN:
        raise ValueError("malformed public key")
    recipient_seal = public_key[32:]
    session_key = _entropy(rng, SESSION_KEY_LEN)
    ephemeral = X25519PrivateKey.from_private_bytes(_entropy(rng, 32))
    ephemeral_pub = ephemeral.public_key().public_bytes_raw()
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(recipient_seal))
    kek = _wrap_kek(shared, ephemeral_pub, recipient_seal)
    wrapped = AESGCM(kek).encrypt(_WRAP_NONCE, session_key, None)
    nonce = _entropy(rng, NONCE_LEN)
    ciphertext = AESGCM(session_key).encrypt(nonce, plaintext, None)
    return Envelope(
        encrypted_key=ephemeral_pub + wrapped,
        nonce=nonce,
        ciphertext=ciphertext,
    )


def decrypt(private_key: bytes, envelope: Envelope) -> bytes:
    """Open an envelope. Raises DecryptionError for a non-matching key,
    MalformedEnvelopeError for structurally broken envelopes."""
    if len(private_key) != PRIVATE_KEY_LEN:
        raise ValueError("malformed private key")
    if len(envelope.encrypted_key) != ENCRYPTED_KEY_LEN:
        raise MalformedEnvelopeError("encrypted_key has wrong length")
    if len(envelope.nonce) != NONCE_LEN:
        raise MalformedEnvelopeError("nonce has wrong length")
    if len(envelope.ciphertext) < 16:
        raise MalformedEnvelopeError("ciphertext shorter than its tag")
    ephemeral_pub = envelope.encrypted_key[:32]
    wrapped = envelope.encrypted_key[32:]
    key = _node_key(bytes(private_key))
    shared = key.opener.exchange(X25519PublicKey.from_public_bytes(ephemeral_pub))
    kek = _wrap_kek(shared, ephemeral_pub, key.public_key[32:])
    try:
        session_key = AESGCM(kek).decrypt(_WRAP_NONCE, wrapped, None)
    except InvalidTag:
        raise DecryptionError("session key does not unwrap under this key") from None
    try:
        return AESGCM(session_key).decrypt(envelope.nonce, envelope.ciphertext, None)
    except InvalidTag:
        raise DecryptionError("payload ciphertext failed authentication") from None
