"""Shared builders for tests: deterministic keypairs, signed records, and
multi-block chains assembled outside the protocol layer."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator
from unittest import mock

import pytest

from gridledger import chain as chain_mod
from gridledger import crypto, record_protocol, sigpass
from gridledger.chain import Chain, Record, RecordKind, RecordMetadata
from gridledger.crypto import Keypair


def assert_no_children() -> None:
    """Every forked worker was reaped: this process has no child, live or zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_worker(how: str):
    """A `sigpass._scan` that, in a worker, raises or exits without writing."""
    parent, scan = os.getpid(), sigpass._scan

    def scan_or_fail(triples):
        if os.getpid() != parent:
            if how == "raise":
                raise RuntimeError("worker failed")
            os._exit(0)
        return scan(triples)

    return scan_or_fail


def stream_verdict(triples) -> int | None:
    """The index of the first triple that does not verify, from one
    `sigpass.Stream` fed all of ``triples``, each tagged with its index."""
    stream = sigpass.Stream()
    try:
        for index, triple in enumerate(triples):
            stream.append(triple, index)
    finally:
        failing = stream.close()
    return failing


@contextmanager
def sealed_payloads() -> Iterator[list[bytes]]:
    """A list that gets each grid-data payload `record_protocol.prepare_upload`
    seals to a recorder inside the block, as it seals them: the plaintexts
    of a run's granted ``upload`` and ``forge-record`` uploads."""
    payloads: list[bytes] = []
    prepare = record_protocol.prepare_upload

    def recording(uploader, recorder_public_key, payload, metadata, rng=None):
        if metadata.kind is RecordKind.GRID_DATA:
            payloads.append(payload)
        return prepare(uploader, recorder_public_key, payload, metadata, rng)

    with mock.patch.object(record_protocol, "prepare_upload", recording):
        yield payloads


def keypair(tag: int) -> Keypair:
    return crypto.generate_keypair(crypto.digest(b"test-key-%d" % tag))


def signed_record(
    uploader: Keypair,
    payload: bytes,
    data_class: str = "load",
    tick: int = 0,
    kind: RecordKind = RecordKind.GRID_DATA,
) -> Record:
    metadata = RecordMetadata(kind=kind, data_class=data_class, created_tick=tick)
    unsigned = Record(uploader.public_key, crypto.digest(payload), metadata, b"")
    signature = crypto.sign(uploader.private_key, chain_mod.RECORD.signing_bytes(unsigned))
    return replace(unsigned, uploader_signature=signature)


def build_chain(n_blocks: int, records_per_block: int = 3, interval: int = 600) -> Chain:
    """Genesis plus n_blocks sealed blocks with valid links and signatures."""
    recorder = keypair(1000)
    uploader = keypair(2000)
    chain = Chain((chain_mod.genesis("test-net"),))
    for b in range(n_blocks):
        tick = (b + 1) * interval
        records = tuple(
            signed_record(uploader, b"payload-%d-%d" % (b, i), tick=tick - 50 + i)
            for i in range(records_per_block)
        )
        block = chain_mod.make_block(recorder, chain.tip_digest, tick, records)
        chain = chain.append(block)
    return chain


def export_with_an_empty_data_class() -> str:
    """The export of a two-block chain whose block 1 holds a record with an
    empty data_class. `record_bytes` refuses to encode such a record, so the
    class bytes are cut from an honest one: its u32 length, after the
    uploader key, the payload digest and the kind byte, becomes 0."""
    chain = build_chain(2, records_per_block=1)
    record = chain_mod.record_bytes(chain.blocks[1].records[0])
    at = crypto.PUBLIC_KEY_LEN + crypto.DIGEST_LEN + 1
    class_len = int.from_bytes(record[at : at + 4], "big")
    emptied = record[:at] + bytes(4) + record[at + 4 + class_len :]
    lines = chain_mod.export_chain(chain).splitlines()
    lines[1] = lines[1].replace(record.hex(), emptied.hex())
    return "\n".join(lines) + "\n"


def ciphertext_span(kind: str, data: bytes) -> tuple[int, int]:
    """Where the payload ciphertext lies in an upload or share envelope's
    bytes, parsed by hand: the sealed envelope is the var-bytes after the
    upload's key, digest and signature (160 bytes) or the share's two keys,
    digest and signature (224), and its ciphertext is the last of its three
    var-bytes fields."""
    start = {"upload-envelope": 160, "share-envelope": 224}[kind] + 4
    for _ in range(2):  # the encrypted key and the nonce
        start += 4 + int.from_bytes(data[start : start + 4], "big")
    return start + 4, start + 4 + int.from_bytes(data[start : start + 4], "big")
