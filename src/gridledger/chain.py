"""Block and chain data model, canonical byte encoding, verification, and
provenance queries.

The canonical encoding is the injective, length-prefixed layout (see
`codec`) every digest and signature in the system is computed over.
Timestamps are simulation ticks, never wall-clock.

`validate_block` is the one definition of a valid block: `Chain.append`,
`verify_chain`, `verify_copy` and the simulator's per-round check, whose
result `record_protocol.validate_proposal` takes, all call it. It is built
from two steps, `_check_structure` and the block's signature triples, which
a long full-chain check also takes on their own: the structure of every
block first, then the triples across processes (`sigpass`), and
`validate_block` of the first block either flags gives the verdict.

A `Chain` remembers how far `append` vouches for it: ``checked_from`` is
the index from which `append` validated every block against its
predecessor, so `verify_chain` checks only the blocks before it. A chain
built any other way (the constructor, `import_chain`,
`dataclasses.replace`) starts with ``checked_from == len(blocks)`` and is
checked in full. `append` in turn takes the `BlockCheck` its caller already
computed, and reuses it only when it judged this very block against this
very tip object.

Digests are once-per-object values. `record_digest` and `block_digest`
store their result on the frozen `Record` or `Block` the first time they
are asked (a `dataclasses.replace` copy, as the tamper faults make, starts
without one). `block_from_bytes` fills them in as it decodes: each record
gets the digest of the exact slice it was read from and each block the
digest of its raw header bytes, so nothing decoded is encoded again. The
slices are the decoder's own: they are hashed and dropped, and a decoded
object keeps only its fields and digest.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from . import crypto, sigpass
from .codec import U32, ByteReader, EncodingError, encode_u64, encode_var_bytes
from .crypto import Keypair, digest
from .merkle import merkle_root

ZERO_DIGEST = b"\x00" * crypto.DIGEST_LEN
MAX_DATA_CLASS_LEN = 64


class ChainError(Exception):
    """Base for chain-level failures. A block fault is one of the subclasses
    below or an EncodingError; its ``reason`` names it in a Violation."""


class LinkMismatchError(ChainError):
    reason = "link-mismatch"


class RootMismatchError(ChainError):
    reason = "root-mismatch"


class BadSignatureError(ChainError):
    reason = "bad-signature"


class DuplicateRecordError(ChainError):
    """A block lists one record twice. An odd Merkle level pairs its last
    node with itself, so appending a block's last record again can keep its
    root; this check is what rejects that copy."""

    reason = "duplicate-record"


class TimestampRegressionError(ChainError):
    reason = "timestamp-regression"


class ExportFormatError(ChainError):
    """A chain export file is not hex lines at all."""


class BlockDecodeError(ChainError):
    """One exported block's bytes do not decode to a structurally valid
    block; carries the offending block index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"block {index}: {message}")
        self.index = index


class RecordKind(Enum):
    GRID_DATA = 0
    SHARE_TRANSACTION = 1

    @property
    def label(self) -> str:
        return "grid-data" if self is RecordKind.GRID_DATA else "share-transaction"


@dataclass(frozen=True)
class RecordMetadata:
    kind: RecordKind
    data_class: str
    created_tick: int


@dataclass(frozen=True)
class Record:
    """One ledger entry: uploader key, payload digest, metadata, and the
    uploader's signature over the payload digest."""

    uploader_public_key: bytes
    payload_digest: bytes
    metadata: RecordMetadata
    uploader_signature: bytes
    _digest: bytes | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class BlockHeader:
    prev_block_digest: bytes
    timestamp_tick: int
    merkle_root: bytes
    recorder_public_key: bytes
    recorder_signature: bytes


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    records: tuple[Record, ...]
    _digest: bytes | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Violation:
    """Earliest point at which a chain breaks an invariant."""

    index: int
    reason: str


# --- canonical encoding -------------------------------------------------

def _check_fixed(name: str, data: bytes, n: int) -> bytes:
    if len(data) != n:
        raise EncodingError(f"{name} must be {n} bytes, got {len(data)}")
    return data


def _data_class_bytes(data_class: str) -> bytes:
    encoded = data_class.encode("utf-8")
    if not encoded:
        raise EncodingError("data_class must be non-empty")
    if len(encoded) > MAX_DATA_CLASS_LEN:
        raise EncodingError(f"data_class exceeds {MAX_DATA_CLASS_LEN} bytes")
    return encoded


def record_bytes(record: Record) -> bytes:
    md = record.metadata
    if md.created_tick < 0:
        raise EncodingError("created_tick must be non-negative")
    return b"".join(
        (
            _check_fixed("uploader key", record.uploader_public_key, crypto.PUBLIC_KEY_LEN),
            _check_fixed("payload digest", record.payload_digest, crypto.DIGEST_LEN),
            bytes([md.kind.value]),
            encode_var_bytes(_data_class_bytes(md.data_class)),
            encode_u64(md.created_tick),
            _check_fixed("uploader signature", record.uploader_signature, crypto.SIGNATURE_LEN),
        )
    )


# The fixed-width runs of the layouts above, each read in one `unpack`: the
# header, and a record's fields before and after its data_class bytes.
_HEADER = struct.Struct(
    f">{crypto.DIGEST_LEN}sQ{crypto.DIGEST_LEN}s{crypto.PUBLIC_KEY_LEN}s{crypto.SIGNATURE_LEN}s"
)
_RECORD_HEAD = struct.Struct(f">{crypto.PUBLIC_KEY_LEN}s{crypto.DIGEST_LEN}sBI")
_RECORD_TAIL = struct.Struct(f">Q{crypto.SIGNATURE_LEN}s")
_KIND_BY_VALUE = {kind.value: kind for kind in RecordKind}


def record_from_reader(reader: ByteReader) -> Record:
    """Read one record; it carries the digest of the bytes it was read from."""
    start = reader.mark()
    uploader, payload_digest, kind_value, class_len = reader.unpack(_RECORD_HEAD)
    kind = _KIND_BY_VALUE.get(kind_value)
    if kind is None:
        raise EncodingError(f"unknown record kind {kind_value}")
    raw_class = reader.take(class_len)
    if not 0 < class_len <= MAX_DATA_CLASS_LEN:
        raise EncodingError("data_class length out of bounds")
    try:
        data_class = raw_class.decode("utf-8")
    except UnicodeDecodeError:
        raise EncodingError("data_class is not valid UTF-8") from None
    created_tick, signature = reader.unpack(_RECORD_TAIL)
    record = Record(
        uploader_public_key=uploader,
        payload_digest=payload_digest,
        metadata=RecordMetadata(kind=kind, data_class=data_class, created_tick=created_tick),
        uploader_signature=signature,
    )
    object.__setattr__(record, "_digest", digest(reader.since(start)))
    return record


def record_digest(record: Record) -> bytes:
    """Digest of the record's canonical bytes, computed once per object."""
    if record._digest is None:
        object.__setattr__(record, "_digest", digest(record_bytes(record)))
    return record._digest


def header_signing_bytes(header: BlockHeader) -> bytes:
    """Every header field but the recorder signature, which signs them."""
    return b"".join(
        (
            _check_fixed("prev digest", header.prev_block_digest, crypto.DIGEST_LEN),
            encode_u64(header.timestamp_tick),
            _check_fixed("merkle root", header.merkle_root, crypto.DIGEST_LEN),
            _check_fixed("recorder key", header.recorder_public_key, crypto.PUBLIC_KEY_LEN),
        )
    )


def header_bytes(header: BlockHeader) -> bytes:
    return header_signing_bytes(header) + _check_fixed(
        "recorder signature", header.recorder_signature, crypto.SIGNATURE_LEN
    )


def block_bytes(block: Block) -> bytes:
    parts = [header_bytes(block.header), U32.pack(len(block.records))]
    parts.extend(record_bytes(r) for r in block.records)
    return b"".join(parts)


def block_from_bytes(data: bytes) -> Block:
    """Decode one block; it and its records carry the digests of the bytes
    they were read from."""
    reader = ByteReader(data)
    prev, tick, root, recorder, signature = reader.unpack(_HEADER)
    header_digest = digest(reader.since(0))
    count = reader.u32()
    records = tuple(record_from_reader(reader) for _ in range(count))
    reader.expect_end()
    block = Block(
        header=BlockHeader(
            prev_block_digest=prev,
            timestamp_tick=tick,
            merkle_root=root,
            recorder_public_key=recorder,
            recorder_signature=signature,
        ),
        records=records,
    )
    object.__setattr__(block, "_digest", header_digest)
    return block


def block_digest(block: Block) -> bytes:
    """Digest of the full header (signature included); records are covered
    transitively through the Merkle root. Computed once per object."""
    if block._digest is None:
        object.__setattr__(block, "_digest", digest(header_bytes(block.header)))
    return block._digest


def merkle_root_of(records: tuple[Record, ...]) -> bytes:
    return merkle_root([record_digest(r) for r in records])


def make_block(
    recorder: Keypair,
    prev_block_digest: bytes,
    timestamp_tick: int,
    records: tuple[Record, ...],
) -> Block:
    unsigned = BlockHeader(
        prev_block_digest=prev_block_digest,
        timestamp_tick=timestamp_tick,
        merkle_root=merkle_root_of(records),
        recorder_public_key=recorder.public_key,
        recorder_signature=b"",
    )
    signature = crypto.sign(recorder.private_key, header_signing_bytes(unsigned))
    return Block(header=replace(unsigned, recorder_signature=signature), records=records)


# --- chain --------------------------------------------------------------

def genesis(network_id: str = "grid") -> Block:
    """Deterministic bootstrap block for a named network: zero prev digest,
    empty record list, header signed by a key derived from the network id."""
    bootstrap = crypto.generate_keypair(digest(b"gridledger/genesis/" + network_id.encode()))
    return make_block(bootstrap, ZERO_DIGEST, 0, ())


@dataclass(frozen=True)
class Chain:
    blocks: tuple[Block, ...]
    # `append` validated each block from this index on against its predecessor
    checked_from: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "checked_from", len(self.blocks))

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def tip_digest(self) -> bytes:
        return block_digest(self.tip)

    def append(self, block: Block, check: BlockCheck | None = None) -> "Chain":
        """The chain with ``block`` added; raises the block's first fault.
        ``check`` is reused only if it is `validate_block` of this very
        block against this very tip; any other check is ignored."""
        if check is None or check.block is not block or check.prev is not self.tip:
            check = validate_block(block, self.tip)
        error = check.error()
        if error is not None:
            raise error
        grown = Chain(self.blocks + (block,))
        object.__setattr__(grown, "checked_from", self.checked_from)
        return grown


@dataclass(frozen=True)
class BlockCheck:
    """Result of `validate_block`: the first header-level fault, and the
    indices of records whose uploader signature fails (checked only when
    the header holds). ``block`` and ``prev`` are the objects it judged."""

    fault: ChainError | EncodingError | None
    bad_records: tuple[int, ...] = ()
    block: Block | None = field(default=None, compare=False, repr=False)
    prev: Block | None = field(default=None, compare=False, repr=False)

    def error(self) -> ChainError | EncodingError | None:
        """The block's first fault, header before records."""
        if self.fault is None and self.bad_records:
            return BadSignatureError(f"record {self.bad_records[0]} uploader signature invalid")
        return self.fault


def _check_structure(block: Block, prev_block: Block | None) -> bytes:
    """Raise the block's first fault other than a signature: link,
    timestamp, Merkle root, distinct records, header encoding, in that
    order. Returns the header's signing bytes."""
    header = block.header
    expected_prev = ZERO_DIGEST if prev_block is None else block_digest(prev_block)
    if header.prev_block_digest != expected_prev:
        raise LinkMismatchError("prev_block_digest does not match prior block")
    if prev_block is not None and header.timestamp_tick < prev_block.header.timestamp_tick:
        raise TimestampRegressionError("timestamp_tick decreased")
    leaves = [record_digest(r) for r in block.records]
    if header.merkle_root != merkle_root(leaves):
        raise RootMismatchError("merkle_root does not match records")
    if len(set(leaves)) != len(leaves):
        raise DuplicateRecordError("block lists a record twice")
    return header_signing_bytes(header)


def _signature_triples(block: Block, signing: bytes) -> list[sigpass.Triple]:
    """The block's (key, message, signature) triples: the recorder's over
    ``signing``, then each record's uploader's over its payload digest."""
    header = block.header
    triples = [(header.recorder_public_key, signing, header.recorder_signature)]
    triples += [(r.uploader_public_key, r.payload_digest, r.uploader_signature) for r in block.records]
    return triples


def validate_block(block: Block, prev_block: Block | None) -> BlockCheck:
    """Check one block against its predecessor: link, timestamp, Merkle
    root, distinct records and recorder signature, in that order, then
    every record's uploader signature. Genesis passes ``prev_block=None``."""

    def judged(fault: ChainError | EncodingError | None, bad: tuple[int, ...] = ()) -> BlockCheck:
        return BlockCheck(fault, bad, block=block, prev=prev_block)

    try:
        signing = _check_structure(block, prev_block)
    except (ChainError, EncodingError) as exc:
        return judged(exc)
    recorder, *records = _signature_triples(block, signing)
    if not crypto.verify(*recorder):
        return judged(BadSignatureError("recorder signature invalid"))
    return judged(None, tuple(i for i, triple in enumerate(records) if not crypto.verify(*triple)))


def verify_chain(chain: Chain) -> Violation | None:
    """Full-chain audit: returns None when every link, root, and signature
    holds, else the earliest violation. Blocks from ``chain.checked_from``
    on passed this check in `append` and are not checked again."""
    return _first_violation(chain.blocks[: chain.checked_from], 0)


def verify_copy(
    copy: Sequence[Block], verified: Chain, verdict: Violation | None
) -> Violation | None:
    """What `verify_chain` returns for ``copy``, given ``verdict``, the
    result of `verify_chain(verified)`.

    The leading blocks of ``copy`` that are the very objects at the same
    index of ``verified`` share its verdict: blocks are frozen, so such a
    block has the same bytes and the same predecessor in both chains.
    Checking resumes at the first block that differs, against the copy's
    own predecessor."""
    shared = 0
    limit = min(len(copy), len(verified.blocks))
    while shared < limit and copy[shared] is verified.blocks[shared]:
        shared += 1
    if verdict is not None and verdict.index < shared:
        return verdict
    return _first_violation(copy, shared)


def _first_violation(blocks: Sequence[Block], start: int) -> Violation | None:
    """The earliest violation in ``blocks[start:]``, each block checked
    against its predecessor in ``blocks``: what `validate_block` of each
    block in turn finds first.

    When the signatures would all be verified in this process anyway
    (`sigpass.processes`), that is what it does. Otherwise it takes three
    steps:

    1. A serial structural pass (`_check_structure`) stops at the first
       block with a fault other than a signature.
    2. `sigpass.first_failing` verifies the signature triples of the blocks
       before it, in chain order, across processes.
    3. The first block either step flags is judged again by `validate_block`,
       whose error is the verdict; `_judge_from` goes on from there."""
    if sigpass.processes(sum(len(b.records) + 1 for b in blocks[start:])) == 1:
        return _judge_from(blocks, start)
    triples: list[sigpass.Triple] = []
    owner: list[int] = []  # the block index of each triple
    flagged = len(blocks)
    prev = blocks[start - 1] if start > 0 else None
    for i in range(start, len(blocks)):
        try:
            signing = _check_structure(blocks[i], prev)
        except (ChainError, EncodingError):
            flagged = i
            break
        block_triples = _signature_triples(blocks[i], signing)
        triples += block_triples
        owner += [i] * len(block_triples)
        prev = blocks[i]
    bad = sigpass.first_failing(triples)
    return _judge_from(blocks, flagged if bad is None else owner[bad])


def _judge_from(blocks: Sequence[Block], start: int) -> Violation | None:
    """`validate_block` of each block from ``start`` on, against its
    predecessor in ``blocks``, up to the first error."""
    prev = blocks[start - 1] if start > 0 else None
    for i in range(start, len(blocks)):
        error = validate_block(blocks[i], prev).error()
        if error is not None:
            return Violation(index=i, reason=error.reason)
        prev = blocks[i]
    return None


def trace(chain: Chain, query: bytes) -> list[tuple[int, int, Record]]:
    """All records matching an uploader public key (64 bytes) or a payload
    digest (32 bytes), in chain order.

    A digest query also matches share-transaction records referencing it:
    those carry the shared digest's hex in ``metadata.data_class``.
    """
    if len(query) == crypto.PUBLIC_KEY_LEN:
        def matches(record: Record) -> bool:
            return record.uploader_public_key == query
    elif len(query) == crypto.DIGEST_LEN:
        ref_hex = query.hex()

        def matches(record: Record) -> bool:
            if record.payload_digest == query:
                return True
            return (
                record.metadata.kind is RecordKind.SHARE_TRANSACTION
                and record.metadata.data_class == ref_hex
            )
    else:
        raise ValueError("query must be a 64-byte public key or 32-byte digest")
    out = []
    for bi, block in enumerate(chain.blocks):
        for ri, record in enumerate(block.records):
            if matches(record):
                out.append((bi, ri, record))
    return out


def export_chain(chain: Chain) -> str:
    """One hex-encoded canonical block per line."""
    return "".join(block_bytes(b).hex() + "\n" for b in chain.blocks)


def import_chain(text: str) -> Chain:
    """Parse an export. Hex-level garbage raises ExportFormatError; bytes
    that fail block decoding raise BlockDecodeError with the block index."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ExportFormatError("empty chain export")
    blocks = []
    for i, line in enumerate(lines):
        try:
            raw = bytes.fromhex(line)
        except ValueError:
            raise ExportFormatError(f"line {i + 1} is not hex") from None
        try:
            blocks.append(block_from_bytes(raw))
        except EncodingError as exc:
            raise BlockDecodeError(i, str(exc)) from None
    return Chain(tuple(blocks))
