"""Every declared byte layout: both round-trip directions, fixed widths on
encode, and README's byte-layout tables.

Run ``PYTHONPATH=src python tests/test_layouts.py`` to rewrite README's "Byte layouts"
section from the declarations; `test_readme_tables_match_the_declarations`
fails until it is rewritten after a layout changes.
"""

import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridledger import chain, codec, crypto, record_protocol, share_protocol, simnet
from gridledger.codec import EncodingError, Enum8, Fixed, Layout, ListOf, Nested, Text, UInt, VarBytes
from gridledger.crypto import Envelope, MalformedEnvelopeError
from gridledger.record_protocol import UPLOAD_ENVELOPE, VOTE, SignedVerdict, UploadEnvelope
from gridledger.share_protocol import SHARE_ENVELOPE, ShareEnvelope, ShareTransaction, transaction_bytes

from testutil import ciphertext_span

README = Path(__file__).resolve().parent.parent / "README.md"
BEGIN = (
    "<!-- byte layouts: generated by `PYTHONPATH=src python tests/test_layouts.py` from the declarations -->\n"
)
END = "<!-- end of byte layouts -->\n"

# every declared layout, by the module that declares it
LAYOUTS = {
    "chain": ("METADATA", "RECORD", "HEADER", "BLOCK"),
    "crypto": ("ENVELOPE",),
    "record_protocol": ("UPLOAD_REQUEST", "UPLOAD_GRANT", "UPLOAD_ENVELOPE", "VOTE"),
    "share_protocol": ("SHARE_ENVELOPE", "SHARE_TRANSACTION"),
}
MODULES = {"chain": chain, "crypto": crypto, "record_protocol": record_protocol, "share_protocol": share_protocol}
DECLARED = [(f"{m}.{name}", getattr(MODULES[m], name)) for m, names in LAYOUTS.items() for name in names]
IDS = [name for name, _ in DECLARED]
# a decoded record is built with the digest of its bytes; a generated one without
BUILD = {chain.RECORD: chain.Record}


def test_every_layout_is_listed():
    modules = (chain, codec, crypto, record_protocol, share_protocol, simnet)
    found = {value for m in modules for value in vars(m).values() if isinstance(value, Layout)}
    assert found == {layout for _, layout in DECLARED}


def values(kind) -> st.SearchStrategy:
    """Every value ``kind`` encodes."""
    if isinstance(kind, Fixed):
        return st.binary(min_size=kind.size, max_size=kind.size)
    if isinstance(kind, UInt):
        return st.integers(0, 2**kind.bits - 1)
    if isinstance(kind, Enum8):
        return st.sampled_from(list(kind.members.values()))
    if isinstance(kind, Text):  # a character takes 1 to 4 bytes of UTF-8
        return st.text(min_size=1, max_size=kind.max_len // 4) | st.text("abc", min_size=1, max_size=kind.max_len)
    if isinstance(kind, VarBytes):
        return st.binary(max_size=64) if kind.layout is None else objects(kind.layout)
    if isinstance(kind, Nested):
        return objects(kind.layout)
    item = objects(kind.item) if isinstance(kind.item, Layout) else values(kind.item)
    return st.lists(item, max_size=3).map(tuple)


def objects(layout: Layout) -> st.SearchStrategy:
    make = BUILD.get(layout, layout.make)
    return st.tuples(*map(values, layout.fields.values())).map(lambda fields: make(*fields))


def edited(data: bytes) -> st.SearchStrategy:
    """``data`` with a slice cut out and other bytes put in its place."""
    return st.tuples(st.integers(0, len(data)), st.integers(0, 8), st.binary(max_size=8)).map(
        lambda e: data[: e[0]] + e[2] + data[e[0] + e[1] :]
    )


@pytest.mark.parametrize("layout", [layout for _, layout in DECLARED], ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decode_of_encode_is_identity(layout, data):
    value = data.draw(objects(layout))
    assert layout.decode(layout.encode(value)) == value


@pytest.mark.parametrize("layout", [layout for _, layout in DECLARED], ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_of_any_accepted_input_is_that_input(layout, data):
    raw = data.draw(st.one_of(st.binary(max_size=300), objects(layout).map(layout.encode).flatmap(edited)))
    try:
        value = layout.decode(raw)
    except (EncodingError, MalformedEnvelopeError):
        return
    assert layout.encode(value) == raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"\x00" + bytes(4) + bytes(8), "data_class length out of bounds"),  # an empty data_class
        (b"\x00" + b"\x00\x00\x00\x01\xff" + bytes(8), "data_class is not valid UTF-8"),
        (b"\x07" + b"\x00\x00\x00\x01a" + bytes(8), "unknown record kind 7"),
    ],
)
def test_metadata_that_cannot_round_trip_is_refused(raw, message):
    with pytest.raises(EncodingError, match=f"^{message}$"):
        chain.METADATA.decode(raw)


def test_a_value_with_no_code_is_refused():
    with pytest.raises(EncodingError, match="^record kind 'grid-data' has no code$"):
        chain.METADATA.encode(chain.RecordMetadata("grid-data", "load", 0))


# what each signed layout's signature covers today: the bytes every golden
# and tap hash was made with
SIGNED_TODAY = {
    chain.RECORD: lambda record: record.payload_digest,
    chain.HEADER: lambda header: chain.HEADER.encode(header)[: chain.HEADER.offset("recorder_signature")],
    VOTE: VOTE.encode,
    SHARE_ENVELOPE: lambda envelope: envelope.claimed_digest,
}


@pytest.mark.parametrize("layout", list(SIGNED_TODAY), ids=[layout.name for layout in SIGNED_TODAY])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_signing_bytes_are_the_declared_fields_encoded(layout, data):
    # the statement a signature covers is each declared field's own
    # encoding, in declared order, and nothing else; a derived triple pairs
    # it with the declared key and signature fields
    value = data.draw(objects(layout))
    signed = layout.signed
    fields = [Layout(attr, tuple, {attr: layout.fields[attr]}).encode(value) for attr in signed.covers]
    assert layout.signing_bytes(value) == b"".join(fields) == SIGNED_TODAY[layout](value)
    if signed.key is not None:
        key, signature = getattr(value, signed.key), getattr(value, signed.signature)
        assert layout.triple(value) == (key, layout.signing_bytes(value), signature)


def test_every_signed_layout_is_pinned():
    assert {layout for _, layout in DECLARED if layout.signed is not None} == set(SIGNED_TODAY)


K1, K2 = bytes(range(64)), bytes(range(64, 128))
D = bytes(range(128, 160))
SIG = bytes(64)
SEALED = Envelope(b"k" * crypto.ENCRYPTED_KEY_LEN, b"n" * crypto.NONCE_LEN, b"c" * 20)
MD = chain.RecordMetadata(chain.RecordKind.GRID_DATA, "load", 5)


@pytest.mark.parametrize(
    "encode, honest, split, message",
    [
        (
            transaction_bytes,
            ShareTransaction(K1, K2, D, 5),
            ShareTransaction(K1[:63], K1[63:] + K2, D, 5),
            "sender key must be 64 bytes, got 63",
        ),
        (
            SHARE_ENVELOPE.encode,
            ShareEnvelope(K1, K2, D, SIG, SEALED),
            ShareEnvelope(K1[:63], K1[63:] + K2, D, SIG, SEALED),
            "sender key must be 64 bytes, got 63",
        ),
        (
            UPLOAD_ENVELOPE.encode,
            UploadEnvelope(chain.Record(K1, D, MD, SIG), SEALED),
            UploadEnvelope(chain.Record(K1[:63], K1[63:] + D, MD, SIG), SEALED),
            "uploader key must be 64 bytes, got 63",
        ),
        (
            VOTE.signing_bytes,
            SignedVerdict(D, True, ()),
            SignedVerdict(D[:31], True, ()),
            "block digest must be 32 bytes, got 31",
        ),
    ],
    ids=["share-transaction", "share-envelope", "upload-envelope", "vote"],
)
def test_a_field_of_the_wrong_width_is_refused(encode, honest, split, message):
    # the split value's bytes, concatenated unchecked, are the honest one's
    # (the vote's 31-byte digest would put a byte of the count where the
    # verdict is read)
    encode(honest)
    with pytest.raises(EncodingError, match=f"^{message}$"):
        encode(split)


@pytest.mark.parametrize(
    "kind, layout", [("upload-envelope", UPLOAD_ENVELOPE), ("share-envelope", SHARE_ENVELOPE)], ids=["upload", "share"]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_tamper_of_the_decoded_envelope_is_one_of_its_bytes(kind, layout, data):
    # the simulator flips a ciphertext bit of the value it decoded; that is
    # the decode of the sent bytes with the same bit flipped in them
    value = data.draw(objects(layout).filter(lambda v: v.payload_envelope.ciphertext))
    pos = data.draw(st.integers(0, len(value.payload_envelope.ciphertext) - 1))
    sent = layout.encode(value)
    lo, hi = ciphertext_span(kind, sent)
    assert hi - lo == len(value.payload_envelope.ciphertext)
    flipped = sent[: lo + pos] + bytes([sent[lo + pos] ^ 1]) + sent[lo + pos + 1 :]
    assert layout.decode(flipped) == simnet._tampered(layout.decode(sent), pos)


# --- README ------------------------------------------------------------------


def describe(kind) -> tuple[str, str]:
    """The kind column and the bytes column of a field of ``kind``."""
    if isinstance(kind, Fixed):
        return "fixed", str(kind.size)
    if isinstance(kind, UInt):
        return f"u{kind.bits}", str(kind.bits // 8)
    if isinstance(kind, Enum8):
        codes = ", ".join(f"{code} = {getattr(v, 'name', v)}" for code, v in kind.members.items())
        return f"u8 enum ({codes})", "1"
    if isinstance(kind, Text):
        return "UTF-8 text", f"4 + 1..{kind.max_len}"
    if isinstance(kind, VarBytes):
        return ("var-bytes" if kind.layout is None else f"var-bytes: {kind.layout.name}"), "4 + n"
    if isinstance(kind, Nested):
        width = "variable" if kind.fmt is None else str(struct.calcsize(">" + kind.fmt))
        return f"{kind.layout.name}, inline", width
    item = kind.item.name if isinstance(kind.item, Layout) else f"u{kind.item.bits}"
    return f"u32-counted list of {item}", "4 + n × item"


def render() -> str:
    out = [BEGIN]
    for name, layout in DECLARED:
        out.append(f"\n**{layout.name}** (`{name}`)")
        signed = layout.signed
        if signed is not None:
            covers = ", ".join(f"`{attr}`" for attr in signed.covers)
            if signed.key is None:
                out.append(f"; signed over {covers}, by a key and into a signature kept outside it")
            else:
                out.append(f"; signed by `{signed.key}` over {covers}, into `{signed.signature}`")
        out.append("\n\n| field | kind | bytes |\n| --- | --- | --- |\n")
        for attr, kind in layout.fields.items():
            out.append("| `{}` | {} | {} |\n".format(attr, *describe(kind)))
    return "".join(out) + "\n" + END


def test_readme_tables_match_the_declarations():
    text = README.read_text()
    assert text.count(BEGIN) == 1 and text.count(END) == 1
    assert text[text.index(BEGIN) : text.index(END) + len(END)] == render()


if __name__ == "__main__":
    text = README.read_text()
    new = re.sub(re.escape(BEGIN) + ".*?" + re.escape(END), lambda _: render(), text, flags=re.S)
    README.write_text(new)
    print("README rewritten" if new != text else "README already matches the declarations")
