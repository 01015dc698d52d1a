import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridledger import chain as chain_mod
from gridledger import crypto
from gridledger.chain import (
    ZERO_DIGEST,
    BadSignatureError,
    Block,
    BlockDecodeError,
    BlockHeader,
    Chain,
    DuplicateRecordError,
    EncodingError,
    ExportFormatError,
    LinkMismatchError,
    Record,
    RecordKind,
    RecordMetadata,
    RootMismatchError,
    TimestampRegressionError,
    Violation,
    block_bytes,
    block_digest,
    block_from_bytes,
    export_chain,
    genesis,
    import_chain,
    merkle_root_of,
    record_bytes,
    record_digest,
    trace,
    verify_chain,
    verify_copy,
)
from gridledger.merkle import EMPTY_ROOT

from testutil import build_chain, export_with_an_empty_data_class, keypair, signed_record

FIXTURES = Path(__file__).parent / "fixtures"


class TestCanonicalBytes:
    def test_deterministic(self):
        record = signed_record(keypair(1), b"payload")
        assert record_bytes(record) == record_bytes(record)

    def test_data_class_changes_bytes(self):
        kp = keypair(1)
        a = signed_record(kp, b"payload", data_class="load")
        b = signed_record(kp, b"payload", data_class="telemetry")
        assert record_bytes(a) != record_bytes(b)

    def test_golden_record_fixture(self):
        record = Record(
            uploader_public_key=bytes(range(64)),
            payload_digest=crypto.digest(b"golden payload"),
            metadata=RecordMetadata(
                kind=RecordKind.GRID_DATA, data_class="telemetry", created_tick=1234
            ),
            uploader_signature=bytes([0xAB]) * 64,
        )
        expected = (FIXTURES / "record_golden.txt").read_text().strip()
        assert record_bytes(record).hex() == expected

    def test_oversized_data_class_rejected(self):
        record = signed_record(keypair(2), b"p", data_class="x" * 65)
        with pytest.raises(EncodingError):
            record_bytes(record)

    def test_empty_data_class_rejected(self):
        record = signed_record(keypair(2), b"p", data_class="")
        with pytest.raises(EncodingError):
            record_bytes(record)

    def test_u64_bound(self):
        header = genesis("net-a").header
        assert chain_mod.header_bytes(header._replace(timestamp_tick=2**64 - 1))[32:40] == b"\xff" * 8
        for value in (2**64, -1):
            with pytest.raises(EncodingError, match=f"^value {value} outside u64 range$"):
                chain_mod.header_bytes(header._replace(timestamp_tick=value))

    def test_block_round_trip(self):
        chain = build_chain(2)
        for block in chain.blocks:
            assert block_from_bytes(block_bytes(block)) == block

    def test_decode_rejects_truncation_and_trailing(self):
        data = block_bytes(build_chain(1).blocks[1])
        with pytest.raises(EncodingError):
            block_from_bytes(data[:-1])
        with pytest.raises(EncodingError):
            block_from_bytes(data + b"\x00")


class TestGenesis:
    def test_prev_is_zero_digest(self):
        assert genesis("net-a").header.prev_block_digest == ZERO_DIGEST

    def test_root_is_empty_sentinel(self):
        assert genesis("net-a").header.merkle_root == EMPTY_ROOT

    def test_same_config_byte_identical(self):
        assert block_bytes(genesis("net-a")) == block_bytes(genesis("net-a"))

    def test_distinct_networks_differ(self):
        assert block_bytes(genesis("net-a")) != block_bytes(genesis("net-b"))

    def test_genesis_verifies(self):
        assert verify_chain(Chain((genesis("net-a"),))) is None


def fault_of(block: Block, tip: Block):
    """The first fault `validate_block` finds in ``block`` on ``tip``: the
    one `record_protocol.commit` raises before the block is appended."""
    return chain_mod.validate_block(block, tip).error()


class TestAppend:
    """What a block must pass against the tip before it is appended;
    `Chain.append` itself judges nothing."""

    def test_valid_block_appends(self):
        chain = build_chain(3)
        assert len(chain) == 4
        assert verify_chain(chain) is None

    def test_link_mismatch(self):
        chain = build_chain(3)
        stale_prev = chain_mod.block_digest(chain.blocks[1])  # N-2, not the tip
        block = chain_mod.make_block(keypair(1000), stale_prev, 9999, ())
        assert isinstance(fault_of(block, chain.tip), LinkMismatchError)

    def test_root_mismatch_after_record_swap(self):
        chain = build_chain(2)
        tip = chain.tip
        swapped = (tip.records[1], tip.records[0]) + tip.records[2:]
        bad = Block(header=tip.header, records=swapped)
        assert isinstance(fault_of(bad, chain.blocks[-2]), RootMismatchError)

    def test_timestamp_regression(self):
        chain = build_chain(2)
        block = chain_mod.make_block(keypair(1000), chain.tip_digest, 5, ())
        assert isinstance(fault_of(block, chain.tip), TimestampRegressionError)

    def test_equal_timestamp_allowed(self):
        chain = build_chain(1)
        tick = chain.tip.header.timestamp_tick
        block = chain_mod.make_block(keypair(1000), chain.tip_digest, tick, ())
        assert fault_of(block, chain.tip) is None
        assert verify_chain(chain.append(block)) is None

    def test_bad_header_signature(self):
        chain = build_chain(1)
        good = chain_mod.make_block(keypair(1000), chain.tip_digest, 700, ())
        forged = Block(
            header=good.header._replace(recorder_public_key=keypair(1001).public_key),
            records=good.records,
        )
        assert isinstance(fault_of(forged, chain.tip), BadSignatureError)

    def test_bad_record_signature(self):
        chain = build_chain(1)
        record = signed_record(keypair(5), b"data", tick=700)
        record = replace(record, payload_digest=crypto.digest(b"other"))
        block = chain_mod.make_block(keypair(1000), chain.tip_digest, 700, (record,))
        assert isinstance(fault_of(block, chain.tip), BadSignatureError)

    def test_a_retimed_header_fails_its_signature(self):
        # nothing but the recorder's signature guards a header's timestamp:
        # a later one keeps the link, the order and the Merkle root
        chain = build_chain(2)
        tip = chain.tip
        retimed = Block(tip.header._replace(timestamp_tick=tip.header.timestamp_tick + 1), tip.records)
        assert isinstance(fault_of(retimed, chain.blocks[1]), BadSignatureError)
        assert verify_chain(Chain(chain.blocks[:2] + (retimed,))) == Violation(2, "bad-signature")


class TestVerifyChain:
    def test_untampered_ten_block_chain(self):
        assert verify_chain(build_chain(10)) is None

    def test_record_byte_flip_detected_at_its_block(self):
        chain = build_chain(5)
        target = chain.blocks[3]
        record = target.records[0]
        bad_digest = bytearray(record.payload_digest)
        bad_digest[0] ^= 1
        mutated = replace(record, payload_digest=bytes(bad_digest))
        blocks = list(chain.blocks)
        blocks[3] = Block(header=target.header, records=(mutated,) + target.records[1:])
        violation = verify_chain(Chain(tuple(blocks)))
        assert violation is not None
        assert violation.index == 3
        assert violation.reason == "root-mismatch"

    def test_resigned_with_other_key_detected(self):
        chain = build_chain(5)
        target = chain.blocks[3]
        other = keypair(777)
        # recompute root and re-sign with a different key, keep the stated key
        resigned = chain_mod.make_block(
            other, target.header.prev_block_digest, target.header.timestamp_tick, target.records
        )
        forged = Block(
            header=resigned.header._replace(recorder_public_key=target.header.recorder_public_key),
            records=target.records,
        )
        blocks = list(chain.blocks)
        blocks[3] = forged
        violation = verify_chain(Chain(tuple(blocks)))
        assert violation is not None
        assert violation.index == 3
        assert violation.reason == "bad-signature"

    def test_tamper_propagation_bound(self):
        # any single-byte mutation of any block is reported at index <= i+1
        chain = build_chain(6, records_per_block=2)
        rng = random.Random(1234)
        for i, block in enumerate(chain.blocks):
            raw = block_bytes(block)
            for _ in range(30):
                pos = rng.randrange(len(raw))
                mutated = bytearray(raw)
                mutated[pos] ^= 1 << rng.randrange(8)
                try:
                    candidate = block_from_bytes(bytes(mutated))
                except EncodingError:
                    continue  # structurally dead at block i itself
                blocks = list(chain.blocks)
                blocks[i] = candidate
                violation = verify_chain(Chain(tuple(blocks)))
                assert violation is not None, f"block {i} byte {pos} undetected"
                assert violation.index <= i + 1


def duplicated_last_record(chain: Chain, index: int) -> Chain:
    """``chain`` with block ``index``'s last record listed a second time,
    under the same header."""
    target = chain.blocks[index]
    blocks = list(chain.blocks)
    blocks[index] = Block(header=target.header, records=target.records + target.records[-1:])
    return Chain(tuple(blocks))


class TestDuplicateRecord:
    def test_repeated_last_record_keeps_root_but_is_rejected(self):
        chain = build_chain(2)  # three records per block: an odd Merkle level
        mutated = duplicated_last_record(chain, 1)
        assert merkle_root_of(mutated.blocks[1].records) == chain.blocks[1].header.merkle_root
        assert verify_chain(mutated) == Violation(1, "duplicate-record")

    def test_signed_block_with_a_repeated_record_cannot_append(self):
        chain = build_chain(1)
        record = signed_record(keypair(5), b"data", tick=700)
        block = chain_mod.make_block(keypair(1000), chain.tip_digest, 700, (record, record))
        assert isinstance(fault_of(block, chain.tip), DuplicateRecordError)


def flipped_root(block: Block) -> Block:
    root = bytearray(block.header.merkle_root)
    root[0] ^= 1
    return replace(block, header=block.header._replace(merkle_root=bytes(root)))


class TestAppendedMark:
    """`append` leaves no mark for `verify_chain` to trust: every chain is
    checked in full, however it was built."""

    @pytest.mark.parametrize("index", range(5))
    def test_appended_chain_with_a_flipped_recorder_signature_fails_verify(self, index):
        chain = build_chain(4)
        assert len(chain) == 5 and verify_chain(chain) is None
        block = chain.blocks[index]
        signature = bytearray(block.header.recorder_signature)
        signature[0] ^= 0x01
        blocks = list(chain.blocks)
        blocks[index] = replace(block, header=block.header._replace(recorder_signature=bytes(signature)))
        assert verify_chain(Chain(tuple(blocks))) == Violation(index, "bad-signature")

    @pytest.mark.parametrize("rebuild", [
        lambda chain, blocks: Chain(blocks),
        lambda chain, blocks: replace(chain, blocks=blocks),
    ])
    def test_rebuilt_chain_is_checked_in_full(self, rebuild):
        chain = build_chain(4)
        blocks = list(chain.blocks)
        record = blocks[2].records[0]
        blocks[2] = replace(blocks[2], records=(
            replace(record, payload_digest=crypto.digest(b"flipped")),
        ) + blocks[2].records[1:])
        assert verify_chain(rebuild(chain, tuple(blocks))) == Violation(2, "root-mismatch")

    def test_appending_to_a_broken_chain_keeps_its_violation(self):
        chain = build_chain(3)
        broken = Chain(chain.blocks[:1] + (flipped_root(chain.blocks[1]),) + chain.blocks[2:])
        block = chain_mod.make_block(keypair(1000), broken.tip_digest, 9000, ())
        assert verify_chain(broken.append(block)) == Violation(1, "root-mismatch")


def equal_copy(block: Block) -> Block:
    """A block equal to ``block`` but a distinct object, digested afresh."""
    return Block(header=block.header._replace(), records=tuple(block.records))


COPY_OF = build_chain(4)


class TestVerifyCopy:
    """`verify_copy` of a view (a held count and the blocks that override
    the clean verified chain's) must give exactly what a full `verify_chain`
    of the copy the view stands for gives."""

    @staticmethod
    def assert_matches_full_verify(verified, held, overrides):
        verdict = verify_copy(verified, held, overrides)
        assert verdict == verify_chain(chain_mod.replica(verified, held, overrides))
        return verdict

    @settings(max_examples=100, database=None, deadline=None, derandomize=True)
    @given(
        held=st.integers(0, len(COPY_OF)),
        overrides=st.dictionaries(st.integers(0, len(COPY_OF) - 1), st.booleans()),
    )
    def test_any_view_matches_full_verify(self, held, overrides):
        # each override is a flipped root (True) or an equal-but-distinct copy
        blocks = COPY_OF.blocks
        replaced = {i: flipped_root(blocks[i]) if flip else equal_copy(blocks[i]) for i, flip in overrides.items()}
        self.assert_matches_full_verify(COPY_OF, held, replaced)

    def test_untouched_copy_ok(self):
        chain = build_chain(4)
        assert self.assert_matches_full_verify(chain, len(chain), {}) is None

    def test_tampered_genesis(self):
        chain = build_chain(4)
        overrides = {0: flipped_root(chain.blocks[0])}
        assert self.assert_matches_full_verify(chain, 5, overrides) == Violation(0, "root-mismatch")

    def test_tampered_last_block(self):
        chain = build_chain(4)
        overrides = {4: flipped_root(chain.tip)}
        assert self.assert_matches_full_verify(chain, 5, overrides) == Violation(4, "root-mismatch")

    def test_crashed_node_prefix(self):
        chain = build_chain(4)
        assert self.assert_matches_full_verify(chain, 2, {}) is None
        assert self.assert_matches_full_verify(chain, 0, {}) is None

    def test_equal_but_distinct_block_still_ok(self):
        chain = build_chain(4)
        equal = equal_copy(chain.blocks[2])
        assert equal == chain.blocks[2] and equal is not chain.blocks[2]
        assert self.assert_matches_full_verify(chain, 5, {2: equal}) is None

    def test_violation_past_a_shorter_copy_is_not_the_copy_violation(self):
        # a block replaced past the end of the copy is not in it
        chain = build_chain(4)
        assert self.assert_matches_full_verify(chain, 3, {3: flipped_root(chain.blocks[3])}) is None
        tampered = {1: flipped_root(chain.blocks[1]), 3: flipped_root(chain.blocks[3])}
        assert self.assert_matches_full_verify(chain, 3, tampered) == Violation(1, "root-mismatch")

    def test_copy_longer_than_verified_chain(self):
        # a copy holds a prefix of the verified chain, never more
        chain = build_chain(4)
        for held in (len(chain) + 1, -1):
            with pytest.raises(ValueError):
                verify_copy(chain, held, {})


class TestTrace:
    def test_unknown_digest_empty(self):
        chain = build_chain(2)
        assert trace(chain, crypto.digest(b"never recorded")) == []

    def test_uploader_key_finds_only_its_records(self):
        alice, bob = keypair(1), keypair(2)
        recorder = keypair(1000)
        chain = Chain((genesis("t"),))
        records = (
            signed_record(alice, b"a1", tick=600),
            signed_record(bob, b"b1", tick=600),
            signed_record(alice, b"a2", tick=600),
        )
        chain = chain.append(chain_mod.make_block(recorder, chain.tip_digest, 600, records))
        rows = trace(chain, alice.public_key)
        assert [r.payload_digest for _, _, r in rows] == [
            crypto.digest(b"a1"),
            crypto.digest(b"a2"),
        ]

    def test_digest_lineage_includes_share_records(self):
        alice = keypair(1)
        recorder = keypair(1000)
        shared = crypto.digest(b"the payload")
        origin = signed_record(alice, b"the payload", tick=600)
        share1 = signed_record(
            alice, b"tx-1", data_class=shared.hex(), tick=1200, kind=RecordKind.SHARE_TRANSACTION
        )
        share2 = signed_record(
            alice, b"tx-2", data_class=shared.hex(), tick=1800, kind=RecordKind.SHARE_TRANSACTION
        )
        chain = Chain((genesis("t"),))
        chain = chain.append(chain_mod.make_block(recorder, chain.tip_digest, 600, (origin,)))
        chain = chain.append(chain_mod.make_block(recorder, chain.tip_digest, 1200, (share1,)))
        chain = chain.append(chain_mod.make_block(recorder, chain.tip_digest, 1800, (share2,)))
        rows = trace(chain, shared)
        assert len(rows) == 3
        assert [(b, r) for b, r, _ in rows] == [(1, 0), (2, 0), (3, 0)]
        assert rows[0][2].metadata.kind is RecordKind.GRID_DATA

    def test_bad_query_length(self):
        with pytest.raises(ValueError):
            trace(build_chain(1), b"\x00" * 16)


class TestExportImport:
    def test_round_trip(self):
        chain = build_chain(4)
        assert import_chain(export_chain(chain)).blocks == chain.blocks

    def test_empty_export_rejected(self):
        with pytest.raises(ExportFormatError):
            import_chain("")
        with pytest.raises(ExportFormatError):
            import_chain("\n  \n")

    def test_non_hex_rejected(self):
        with pytest.raises(ExportFormatError):
            import_chain("zzzz\n")

    def test_record_with_an_empty_data_class_is_undecodable(self):
        with pytest.raises(BlockDecodeError) as exc_info:
            import_chain(export_with_an_empty_data_class())
        assert exc_info.value.index == 1

    def test_block_decode_error_carries_index(self):
        text = export_chain(build_chain(2))
        lines = text.splitlines()
        lines[1] = lines[1][:-10]  # truncate block 1's bytes (keep hex valid)
        with pytest.raises(BlockDecodeError) as exc_info:
            import_chain("\n".join(lines))
        assert exc_info.value.index == 1


def fresh_chain(chain: Chain) -> Chain:
    """An equal chain of newly constructed objects, none of them digested."""
    blocks = []
    for block in chain.blocks:
        records = tuple(
            Record(
                uploader_public_key=r.uploader_public_key,
                payload_digest=r.payload_digest,
                metadata=RecordMetadata(
                    kind=r.metadata.kind,
                    data_class=r.metadata.data_class,
                    created_tick=r.metadata.created_tick,
                ),
                uploader_signature=r.uploader_signature,
            )
            for r in block.records
        )
        h = block.header
        header = BlockHeader(
            prev_block_digest=h.prev_block_digest,
            timestamp_tick=h.timestamp_tick,
            merkle_root=h.merkle_root,
            recorder_public_key=h.recorder_public_key,
            recorder_signature=h.recorder_signature,
        )
        blocks.append(Block(header=header, records=records))
    return Chain(tuple(blocks))


FLIP_EXPORT = export_chain(build_chain(3))
FLIP_LINES = [bytes.fromhex(line) for line in FLIP_EXPORT.splitlines()]


@settings(max_examples=300, database=None, deadline=None, derandomize=True)
@given(line=st.integers(0, len(FLIP_LINES) - 1), bit=st.integers(0, 8 * max(map(len, FLIP_LINES)) - 1))
def test_flipped_export_verdict_is_that_of_fresh_objects(line, bit):
    # A decoded block and its records carry digests of the bytes they were
    # read from; the verdict must be the one re-encoding fresh objects gives.
    raw = bytearray(FLIP_LINES[line])
    bit %= 8 * len(raw)
    raw[bit // 8] ^= 1 << (bit % 8)
    lines = [b.hex() for b in FLIP_LINES]
    lines[line] = raw.hex()
    try:
        decoded = import_chain("\n".join(lines))
    except BlockDecodeError as exc:
        assert exc.index == line
        return
    fresh = fresh_chain(decoded)
    assert all(b._digest is None and all(r._digest is None for r in b.records) for b in fresh.blocks)
    verdict = verify_chain(decoded)
    assert verdict is not None and verdict.index == line
    assert verify_chain(fresh) == verdict


@pytest.mark.xfail(
    strict=True, reason="ROADMAP 2: a record's signature covers only its payload digest, and no check refuses a replay"
)
def test_a_relabelled_and_replayed_record_fails_verification():
    # a recorder relabels block 1's first record as a share transaction and
    # copies its second one verbatim into a block of its own; each uploader
    # signature still verifies, and the export round-trips
    chain = build_chain(2)
    first, second = chain.blocks[1].records[:2]
    relabelled = replace(first, metadata=RecordMetadata(RecordKind.SHARE_TRANSACTION, "forged", 1150))
    forged = chain.append(chain_mod.make_block(keypair(1000), chain.tip_digest, 1800, (relabelled, second)))
    assert import_chain(export_chain(forged)) == forged
    assert len(trace(forged, second.payload_digest)) == 2
    violation = verify_chain(forged)
    assert violation is not None and violation.index == 3


MEMO_CHAIN = build_chain(2)


@settings(max_examples=300, database=None, deadline=None, derandomize=True)
@given(
    index=st.integers(1, len(MEMO_CHAIN) - 1),
    position=st.integers(0, len(block_bytes(MEMO_CHAIN.tip)) - 1),
    mask=st.integers(1, 255),
    reseal=st.booleans(),
)
def test_verified_triples_of_the_unflipped_block_change_no_verdict(index, position, mask, reseal):
    # validate_block skips a record whose exact triple it is given as
    # verified. Given the triples of the block before one byte was flipped,
    # its verdict on the flipped block is the one it reaches verifying all.
    # A resealed block is signed afresh over the flipped records, so its
    # record signatures, not its Merkle root, decide.
    block, prev = MEMO_CHAIN.blocks[index], MEMO_CHAIN.blocks[index - 1]
    verified = {chain_mod.RECORD.triple(r) for r in block.records}
    raw = bytearray(block_bytes(block))
    raw[position % len(raw)] ^= mask
    try:
        flipped = block_from_bytes(bytes(raw))
    except EncodingError:
        return
    if reseal:
        header = flipped.header
        flipped = chain_mod.make_block(keypair(1000), header.prev_block_digest, header.timestamp_tick, flipped.records)

    def verdict(check):
        return type(check.fault), str(check.fault), check.bad_records

    assert verdict(chain_mod.validate_block(flipped, prev, verified)) == verdict(chain_mod.validate_block(flipped, prev))


class TestDigestOnce:
    def test_import_digests_are_those_of_fresh_objects(self):
        decoded = import_chain(FLIP_EXPORT)
        fresh = fresh_chain(decoded)
        for got, want in zip(decoded.blocks, fresh.blocks):
            assert got._digest is not None and got._digest == block_digest(want)
            assert [r._digest for r in got.records] == [record_digest(r) for r in want.records]
        assert verify_chain(decoded) is None and verify_chain(fresh) is None

    def test_verify_of_an_import_encodes_nothing(self, monkeypatch):
        decoded = import_chain(FLIP_EXPORT)
        encoded = []
        record_bytes_, header_bytes_ = chain_mod.record_bytes, chain_mod.header_bytes

        def counting_record_bytes(record):
            encoded.append(record)
            return record_bytes_(record)

        def counting_header_bytes(header):
            encoded.append(header)
            return header_bytes_(header)

        monkeypatch.setattr(chain_mod, "record_bytes", counting_record_bytes)
        monkeypatch.setattr(chain_mod, "header_bytes", counting_header_bytes)
        assert verify_chain(decoded) is None
        assert encoded == []
        # the counters do count: fresh objects encode every record and every
        # header but the tip's, which no block links to
        assert verify_chain(fresh_chain(decoded)) is None
        assert len(encoded) == len(decoded) - 1 + sum(len(b.records) for b in decoded.blocks)

    def test_digest_is_computed_once_per_object(self, monkeypatch):
        block = fresh_chain(build_chain(1)).tip
        hashed = []
        digest_ = chain_mod.digest

        def counting_digest(data):
            hashed.append(data)
            return digest_(data)

        monkeypatch.setattr(chain_mod, "digest", counting_digest)
        first = [record_digest(r) for r in block.records], block_digest(block)
        assert len(hashed) == len(block.records) + 1
        assert ([record_digest(r) for r in block.records], block_digest(block)) == first
        assert len(hashed) == len(block.records) + 1

    def test_replace_copy_is_digested_afresh(self):
        block = build_chain(1).tip
        record = block.records[0]
        record_digest(record)
        block_digest(block)
        forged = replace(record, payload_digest=crypto.digest(b"other"))
        assert record_digest(forged) == crypto.digest(record_bytes(forged)) != record_digest(record)
        moved = replace(block, header=block.header._replace(timestamp_tick=1))
        assert block_digest(moved) == crypto.digest(chain_mod.header_bytes(moved.header))
        assert block_digest(moved) != block_digest(block)
