"""Shared builders for tests: deterministic keypairs, signed records, and
multi-block chains assembled outside the protocol layer."""

from __future__ import annotations

import os

import pytest

from gridledger import chain as chain_mod
from gridledger import crypto, sigpass
from gridledger.chain import Chain, Record, RecordKind, RecordMetadata
from gridledger.crypto import Keypair


def assert_no_children() -> None:
    """Every forked worker was reaped: this process has no child, live or zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_worker(how: str):
    """A `sigpass._scan` that, in a worker, raises or exits without writing."""
    parent, scan = os.getpid(), sigpass._scan

    def scan_or_fail(triples, lo, hi):
        if os.getpid() != parent:
            if how == "raise":
                raise RuntimeError("worker failed")
            os._exit(0)
        return scan(triples, lo, hi)

    return scan_or_fail


def stream_verdict(triples) -> int | None:
    """The index of the first triple that does not verify, from one
    `sigpass.Stream` fed all of ``triples``."""
    stream = sigpass.Stream()
    try:
        for triple in triples:
            stream.append(triple)
    finally:
        failing = stream.close()
    return failing


def keypair(tag: int) -> Keypair:
    return crypto.generate_keypair(crypto.digest(b"test-key-%d" % tag))


def signed_record(
    uploader: Keypair,
    payload: bytes,
    data_class: str = "load",
    tick: int = 0,
    kind: RecordKind = RecordKind.GRID_DATA,
) -> Record:
    payload_digest = crypto.digest(payload)
    return Record(
        uploader_public_key=uploader.public_key,
        payload_digest=payload_digest,
        metadata=RecordMetadata(kind=kind, data_class=data_class, created_tick=tick),
        uploader_signature=crypto.sign(uploader.private_key, payload_digest),
    )


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
