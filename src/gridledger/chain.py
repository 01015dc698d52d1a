"""Block and chain data model, canonical byte encoding, verification, and
provenance queries.

The canonical encoding is the injective, length-prefixed layout (see
`codec`) every digest and signature in the system is computed over.
Timestamps are simulation ticks, never wall-clock.

`validate_block` is the one definition of a valid block; the simulator's
per-round check calls it, and `record_protocol.validate_proposal` and
`record_protocol.commit` take its result. It is built from two steps,
`_check_structure` and the block's signature triples, which every
full-chain check (`verify_blocks`, behind `verify_chain` and `verify_copy`)
takes on their own: the structure of each block, then its triples, which
go to one signature pass (`sigpass`) while later blocks are checked. The
first block either step flags is the first block `validate_block` faults,
for the same reason.
`Chain.append` judges nothing: a block reaches it only through a check of
its own, and `verify_chain` checks every block it is given.

An export is read as a stream. `read_export` decodes one line at a time and
yields each block in order, and `import_chain` is the tuple of what it
yields. `verify_blocks` and `trace_blocks` take any iterable of blocks, so
a reader that never holds the export's text, its lines or a `Chain` can
verify or search it: the full-chain check keeps the block before the one it
checks and the signature triples it hands to `sigpass`, and a lineage query
keeps only the rows it yields.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Container, Iterable, Iterator, Mapping, NamedTuple

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


class RecordMetadata(NamedTuple):
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


class BlockHeader(NamedTuple):
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


class Violation(NamedTuple):
    """Earliest point at which a chain breaks an invariant."""

    index: int
    reason: str


# --- canonical encoding -------------------------------------------------

def _check_fixed(name: str, data: bytes, n: int) -> bytes:
    if len(data) != n:
        raise EncodingError(f"{name} must be {n} bytes, got {len(data)}")
    return data


def metadata_bytes(md: RecordMetadata) -> bytes:
    """The kind byte, the length-prefixed data_class and the u64 tick: the
    one encoding of metadata, in a record and in an upload envelope."""
    if md.created_tick < 0:
        raise EncodingError("created_tick must be non-negative")
    data_class = md.data_class.encode("utf-8")
    if not data_class:
        raise EncodingError("data_class must be non-empty")
    if len(data_class) > MAX_DATA_CLASS_LEN:
        raise EncodingError(f"data_class exceeds {MAX_DATA_CLASS_LEN} bytes")
    return bytes([md.kind.value]) + encode_var_bytes(data_class) + encode_u64(md.created_tick)


def record_bytes(record: Record) -> bytes:
    return b"".join(
        (
            _check_fixed("uploader key", record.uploader_public_key, crypto.PUBLIC_KEY_LEN),
            _check_fixed("payload digest", record.payload_digest, crypto.DIGEST_LEN),
            metadata_bytes(record.metadata),
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
    return Block(header=unsigned._replace(recorder_signature=signature), records=records)


# --- chain --------------------------------------------------------------

def genesis(network_id: str = "grid") -> Block:
    """Deterministic bootstrap block for a named network: zero prev digest,
    empty record list, header signed by a key derived from the network id."""
    bootstrap = crypto.generate_keypair(digest(b"gridledger/genesis/" + network_id.encode()))
    return make_block(bootstrap, ZERO_DIGEST, 0, ())


@dataclass(frozen=True)
class Chain:
    blocks: tuple[Block, ...]

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def tip_digest(self) -> bytes:
        return block_digest(self.tip)

    def append(self, block: Block) -> "Chain":
        """The chain with ``block`` added. It judges nothing: the caller
        has checked the block against the tip (`validate_block`)."""
        return Chain(self.blocks + (block,))


class BlockCheck(NamedTuple):
    """Result of `validate_block`: the first header-level fault, and the
    indices of records whose uploader signature fails (checked only when
    the header holds)."""

    fault: ChainError | EncodingError | None
    bad_records: tuple[int, ...] = ()

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


def signature_triple(record: Record) -> sigpass.Triple:
    """The (key, message, signature) triple of a record's uploader signature."""
    return (record.uploader_public_key, record.payload_digest, record.uploader_signature)


def _signature_triples(block: Block, signing: bytes) -> list[sigpass.Triple]:
    """The block's (key, message, signature) triples: the recorder's over
    ``signing``, then each record's uploader's over its payload digest."""
    header = block.header
    triples = [(header.recorder_public_key, signing, header.recorder_signature)]
    triples += map(signature_triple, block.records)
    return triples


def validate_block(block: Block, prev_block: Block | None, verified: Container[sigpass.Triple] = ()) -> BlockCheck:
    """Check one block against its predecessor: link, timestamp, Merkle
    root, distinct records and recorder signature, in that order, then
    every record's uploader signature. Genesis passes ``prev_block=None``.
    ``verified`` holds record triples (`signature_triple`) `crypto.verify`
    accepted in this process; a record whose exact triple is in it is not
    verified again, so the verdict is the one verifying it would give."""
    try:
        signing = _check_structure(block, prev_block)
    except (ChainError, EncodingError) as exc:
        return BlockCheck(exc)
    recorder, *records = _signature_triples(block, signing)
    if not crypto.verify(*recorder):
        return BlockCheck(BadSignatureError("recorder signature invalid"))
    return BlockCheck(None, tuple(i for i, t in enumerate(records) if t not in verified and not crypto.verify(*t)))


def verify_chain(chain: Chain) -> Violation | None:
    """Full-chain audit: returns None when every link, root, and signature
    holds, else the earliest violation."""
    return verify_blocks(chain.blocks)


def replica(verified: Chain, held: int, overrides: Mapping[int, Block]) -> Chain:
    """The copy a replica view stands for: the first ``held`` blocks of
    ``verified``, each index in ``overrides`` holding its block instead."""
    return Chain(tuple(overrides.get(i, b) for i, b in enumerate(verified.blocks[:held])))


def verify_copy(verified: Chain, held: int, overrides: Mapping[int, Block]) -> Violation | None:
    """What `verify_chain` returns for `replica(verified, held, overrides)`,
    where ``verified`` is a chain that verifies clean (the simulator's, each
    block of which passed its round's check). Raises ValueError for a
    ``held`` past the end of ``verified``.

    Up to its first override, or its end, the copy is ``verified`` and so
    clean; from its first override on, it is checked against its own
    predecessors."""
    if not 0 <= held <= len(verified.blocks):
        raise ValueError(f"a copy of a {len(verified.blocks)}-block chain cannot hold {held}")
    first = min(min(overrides, default=held), held)
    if first == held:
        return None
    blocks = replica(verified, held, overrides).blocks
    return verify_blocks(blocks[first:], first, blocks[first - 1] if first > 0 else None)


def verify_blocks(blocks: Iterable[Block], start: int = 0, prev: Block | None = None) -> Violation | None:
    """The earliest violation among ``blocks``, numbered from ``start``, the
    first checked against ``prev`` and each later one against the block
    before it: what `validate_block` of each block in turn finds first. It
    reads ``blocks`` once and holds only the block before the one it checks
    and the signature triples. It takes two steps:

    1. A structural pass (`_check_structure`) in chain order stops at the
       first block with a fault other than a signature.
    2. Each block that passes it hands its signature triples to one
       `sigpass.Stream` at once, so standing workers verify them while
       later blocks are read and checked. Reading stops as soon as the
       stream knows a triple fails: no later block can change the verdict.

    The verdict is a bad signature in the block of the first failing
    triple, else the structural fault: no block before either has one."""
    stream, n = sigpass.Stream(), 0
    ends: list[int] = []  # the end in the stream of each checked block's triples
    fault = None
    try:
        for i, block in enumerate(blocks, start):
            try:
                signing = _check_structure(block, prev)
            except (ChainError, EncodingError) as exc:
                fault = Violation(index=i, reason=exc.reason)
                break
            for triple in _signature_triples(block, signing):
                stream.append(triple)
                n += 1
            ends.append(n)
            prev = block
            if stream.failed:
                break
    finally:
        bad = stream.close()
    if bad is not None:
        return Violation(index=start + bisect_right(ends, bad), reason=BadSignatureError.reason)
    return fault


def trace(chain: Chain, query: bytes) -> list[tuple[int, int, Record]]:
    """All records matching an uploader public key (64 bytes) or a payload
    digest (32 bytes), in chain order, as (block index, record index,
    record) rows.

    A digest query also matches share-transaction records referencing it:
    those carry the shared digest's hex in ``metadata.data_class``.
    """
    return list(trace_blocks(chain.blocks, query))


def trace_blocks(blocks: Iterable[Block], query: bytes) -> Iterator[tuple[int, int, Record]]:
    """`trace` of ``blocks``, read as the rows are taken. A query of another
    length raises ValueError here, before any block is read."""
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
    return (
        (bi, ri, record)
        for bi, block in enumerate(blocks)
        for ri, record in enumerate(block.records)
        if matches(record)
    )


def export_chain(chain: Chain) -> str:
    """One hex-encoded canonical block per line."""
    return "".join(block_bytes(b).hex() + "\n" for b in chain.blocks)


def read_export(lines: Iterable[str]) -> Iterator[Block]:
    """Decode an export one block at a time, yielding each in order.
    ``lines`` is the export's text in whole lines, such as an open text
    file; each is split again as `str.splitlines` splits, and blank lines
    are skipped. A line that is not hex raises ExportFormatError with its
    number among the non-blank lines; bytes that fail block decoding raise
    BlockDecodeError with the block index; an export without a block raises
    ExportFormatError once every line is read."""
    index = 0
    for chunk in lines:
        for line in chunk.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                raw = bytes.fromhex(line)
            except ValueError:
                raise ExportFormatError(f"line {index + 1} is not hex") from None
            try:
                block = block_from_bytes(raw)
            except EncodingError as exc:
                raise BlockDecodeError(index, str(exc)) from None
            yield block
            index += 1
    if index == 0:
        raise ExportFormatError("empty chain export")


def import_chain(text: str) -> Chain:
    """Parse a whole export: the chain of `read_export`'s blocks, raising
    its errors."""
    return Chain(tuple(read_export(text.splitlines())))
