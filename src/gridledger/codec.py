"""Declared byte layouts: the one length-prefixed codec every digest,
signature and simulated message is computed over.

A `Layout` is an ordered mapping of fields to kinds: `Fixed(n)` raw bytes,
an `Enum8` byte, a big-endian `UInt` of 32 or 64 bits, `Text` (UTF-8 of
1..max_len bytes), `VarBytes` (raw, or a layout's encoding), a `Nested`
layout's fields inline, or a `ListOf` layouts or `UInt`s. `Text`,
`VarBytes` and `ListOf` follow a u32 length or count.

From that one mapping a layout derives `encode`, `read` (and `decode`, of a
whole input). A signed layout also declares, as `Signed`, the fields its
signature covers, the field holding the signer's key and the signature
field. From that one declaration it derives `signing_bytes`, the encoding
of the covered fields in order (a lone `Fixed` field encodes as its raw
bytes), which every signer signs, and `triple`, the (key, signed bytes,
signature) that `crypto.verify` checks. They are compiled once to Python
source, as `dataclasses` compiles ``__init__``, and a run of fixed-width
fields with the length prefix that ends it is one `struct.Struct`.
`encode` raises `EncodingError` naming the first field its kind refuses; a
read raises the layout's error for truncated input, trailing bytes or a
field its kind refuses.

`ByteReader` is the one strict parser. It only borrows its input: every
field it returns (`take`, `unpack`, `since`) is a copy, so the caller
decides what outlives the parse.
"""

from __future__ import annotations

import struct
from typing import Callable, Mapping, NamedTuple, Sequence

U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")


class EncodingError(Exception):
    """A field violates its declared size or value bounds."""

    reason = "encoding-error"


def encode_var_bytes(data: bytes) -> bytes:
    return U32.pack(len(data)) + data


class ByteReader:
    """Strict sequential reader; malformed input raises ``error``."""

    def __init__(self, data: bytes, error: type[Exception] = EncodingError):
        self._data = data
        self._pos = 0
        self.error = error

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise self.error("truncated input")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def unpack(self, layout: struct.Struct) -> tuple:
        """The next ``layout.size`` bytes, unpacked by ``layout``."""
        start = self._pos
        if start + layout.size > len(self._data):
            raise self.error("truncated input")
        self._pos = start + layout.size
        return layout.unpack_from(self._data, start)

    def mark(self) -> int:
        """The read position, for `since`."""
        return self._pos

    def since(self, mark: int) -> bytes:
        """The bytes read from ``mark`` up to the read position."""
        return self._data[mark : self._pos]

    def var_bytes(self) -> bytes:
        return self.take(self.unpack(U32)[0])

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise self.error("trailing bytes")


# --- field kinds ---------------------------------------------------------


class _Kind:
    """A kind with a struct ``fmt`` is one fixed-width value: ``encode``
    checks it and ``decode``, if set, maps the unpacked value. Another kind
    follows a u32: ``encode`` returns that u32 and the bytes after it, and
    ``read`` reads those bytes. ``label`` names the field in errors, where
    its attribute does not."""

    fmt: str | None = None
    decode = None
    label = ""


class Fixed(_Kind):
    def __init__(self, size: int, label: str = ""):
        self.size, self.fmt, self.label = size, f"{size}s", label

    def encode(self, value: bytes, label: str) -> bytes:
        if len(value) != self.size:
            raise EncodingError(f"{label} must be {self.size} bytes, got {len(value)}")
        return value


class UInt(_Kind):
    def __init__(self, bits: int):
        self.bits, self.fmt = bits, {32: "I", 64: "Q"}[bits]

    def encode(self, value: int, label: str) -> int:
        if not 0 <= value < 1 << self.bits:
            raise EncodingError(f"value {value} outside u{self.bits} range")
        return value


class Enum8(_Kind):
    fmt = "B"

    def __init__(self, members: Mapping[int, object], label: str = ""):
        self.members, self.label = dict(members), label
        self._codes = {value: code for code, value in members.items()}

    def encode(self, value: object, label: str) -> int:
        if value not in self._codes:
            raise EncodingError(f"{label} {value!r} has no code")
        return self._codes[value]

    def decode(self, code: int, label: str, reader: ByteReader) -> object:
        if code not in self.members:
            raise reader.error(f"unknown {label} {code}")
        return self.members[code]


class Text(_Kind):
    def __init__(self, max_len: int):
        self.max_len = max_len

    def encode(self, value: str, label: str) -> tuple[int, bytes]:
        data = value.encode("utf-8")
        if not data:
            raise EncodingError(f"{label} must be non-empty")
        if len(data) > self.max_len:
            raise EncodingError(f"{label} exceeds {self.max_len} bytes")
        return len(data), data

    def read(self, reader: ByteReader, n: int, label: str) -> str:
        data = reader.take(n)
        if not 0 < n <= self.max_len:
            raise reader.error(f"{label} length out of bounds")
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            raise reader.error(f"{label} is not valid UTF-8") from None


class VarBytes(_Kind):
    def __init__(self, layout: Layout | None = None):
        self.layout = layout

    def encode(self, value, label: str) -> tuple[int, bytes]:
        data = value if self.layout is None else self.layout.encode(value)
        return len(data), data

    def read(self, reader: ByteReader, n: int, label: str):
        data = reader.take(n)
        return data if self.layout is None else self.layout.decode(data)


class Nested(_Kind):
    def __init__(self, layout: Layout):
        self.layout, self.fmt = layout, layout.fmt


class ListOf(_Kind):
    def __init__(self, item: Layout | UInt):
        self.item = item

    def encode(self, value: Sequence, label: str) -> tuple[int, bytes]:
        if isinstance(self.item, Layout):
            return len(value), b"".join(map(self.item.encode, value))
        items = [self.item.encode(v, label) for v in value]
        return len(items), struct.pack(f">{len(items)}{self.item.fmt}", *items)

    def read(self, reader: ByteReader, n: int, label: str) -> tuple:
        if isinstance(self.item, Layout):
            # From a list, the tuple is made at its length. One grown from a
            # generator is resized, and once freed it waits on the free list
            # of its length, which only a tuple made at that length takes.
            return tuple([self.item.read(reader) for _ in range(n)])
        return reader.unpack(struct.Struct(f">{n}{self.item.fmt}"))


BOOL = Enum8({0: False, 1: True})


class Signed(NamedTuple):
    """What a layout's signature covers: the ``covers`` fields, in order,
    signed by the key in field ``key`` into field ``signature``. A statement
    whose key and signature travel apart from its layout's value (a vote)
    names neither, and its layout derives no `triple`."""

    covers: tuple[str, ...]
    key: str | None = None
    signature: str | None = None


class Layout:
    """One byte format: ``fields`` maps each attribute of a value (dotted
    for an attribute of one) to its kind, in encoding order. ``make`` builds
    a decoded value from the fields' values in order; a layout read
    ``with_bytes``, unless `Nested`, also passes it the bytes it was read
    from, as ``raw``."""

    def __init__(
        self, name: str, make: Callable, fields: Mapping[str, _Kind], *,
        error: type[Exception] = EncodingError, signed: Signed | None = None, with_bytes: bool = False,
    ):
        self.name, self.make, self.fields, self.error, self.signed = name, make, dict(fields), error, signed
        fmts = [kind.fmt for kind in self.fields.values()]
        self.fmt = None if None in fmts else "".join(fmts)  # set when every field is fixed-width
        self.encode, self.read = _compile(self.fields, make, with_bytes)
        if signed is not None:
            self.signing_bytes, _ = _compile({attr: self.fields[attr] for attr in signed.covers})
            if signed.key is not None:
                triple = f"lambda obj: (obj.{signed.key}, signing_bytes(obj), obj.{signed.signature})"
                self.triple = eval(triple, {"signing_bytes": self.signing_bytes})

    def decode(self, data: bytes):
        reader = ByteReader(data, self.error)
        value = self.read(reader)
        reader.expect_end()
        return value

    def offset(self, attr: str) -> int:
        """Where field ``attr`` starts in every encoding: the fields before
        it have fixed widths."""
        kinds = list(self.fields.values())[: list(self.fields).index(attr)]
        return struct.calcsize(">" + "".join(k.fmt for k in kinds))


def _compile(fields: dict, make: Callable = tuple, with_bytes: bool = False) -> tuple[Callable, Callable]:
    """The ``encode(obj)`` and ``read(reader)`` functions of ``fields``."""
    names: dict[str, object] = {}
    enc, dec, parts = [], [], []  # encode's lines, read's lines, the pieces encode joins
    run, names_in_run, after = [], [], []  # the pending struct, its values, read's lines that wait on it

    def bind(obj: object) -> str:
        names[f"g{len(names)}"] = obj
        return f"g{len(names) - 1}"

    def flush() -> None:
        if run:
            fmt = bind(struct.Struct(">" + "".join(run)))
            parts.append(f"{fmt}.pack({', '.join(names_in_run)})")
            dec.append(f"{', '.join(names_in_run)}, = reader.unpack({fmt})")
            del run[:], names_in_run[:]
        dec.extend(after)
        after.clear()

    def walk(fields: dict, obj: str) -> list[str]:
        values = []
        for attr, kind in fields.items():
            v, k, label = f"v{len(enc)}", bind(kind), repr(kind.label or attr)
            enc.append(f"{v} = {obj}.{attr}")
            if isinstance(kind, Nested):
                after.append(f"{v} = {bind(kind.layout.make)}({', '.join(walk(kind.layout.fields, v))})")
            elif kind.fmt is not None:
                enc.append(f"{v} = {k}.encode({v}, {label})")
                run.append(kind.fmt)
                names_in_run.append(v)
                if kind.decode is not None:
                    after.append(f"{v} = {k}.decode({v}, {label}, reader)")
            else:
                enc.append(f"{v}n, {v} = {k}.encode({v}, {label})")
                run.append("I")
                names_in_run.append(f"{v}n")
                flush()
                parts.append(v)
                dec.append(f"{v} = {k}.read(reader, {v}n, {label})")
            values.append(v)
        return values

    values = walk(fields, "obj")
    flush()
    if with_bytes:
        dec.insert(0, "start = reader.mark()")
        values.append("raw=reader.since(start)")
    source = "def encode(obj):\n{}    return {}\ndef read(reader):\n{}    return {}({})\n".format(
        "".join(f"    {line}\n" for line in enc), " + ".join(parts) or 'b""',
        "".join(f"    {line}\n" for line in dec), bind(make), ", ".join(values),
    )
    exec(source, names)
    return names["encode"], names["read"]
