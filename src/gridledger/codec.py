"""The length-prefixed byte layout every canonical encoding is built from.

Fixed-width fields are written raw, integers big-endian, and variable
fields get a u32 length prefix. `ByteReader` is the one strict parser of
that layout: it rejects truncated input and, at `expect_end`, trailing
bytes. A reader only borrows its input: every field it returns (`take`,
`unpack`, `since`) is a copy, so the caller decides what outlives the parse.
"""

from __future__ import annotations

import struct

U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")


class EncodingError(Exception):
    """A field violates its declared size or value bounds."""

    reason = "encoding-error"


def encode_u64(value: int) -> bytes:
    if not 0 <= value < 2**64:
        raise EncodingError(f"value {value} outside u64 range")
    return U64.pack(value)


def encode_var_bytes(data: bytes) -> bytes:
    return U32.pack(len(data)) + data


class ByteReader:
    """Strict sequential reader; malformed input raises ``error``."""

    def __init__(self, data: bytes, error: type[Exception] = EncodingError):
        self._data = data
        self._pos = 0
        self._error = error

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise self._error("truncated input")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def unpack(self, layout: struct.Struct) -> tuple:
        """The next ``layout.size`` bytes, unpacked by ``layout``."""
        start = self._pos
        if start + layout.size > len(self._data):
            raise self._error("truncated input")
        self._pos = start + layout.size
        return layout.unpack_from(self._data, start)

    def mark(self) -> int:
        """The read position, for `since`."""
        return self._pos

    def since(self, mark: int) -> bytes:
        """The bytes read from ``mark`` up to the read position."""
        return self._data[mark : self._pos]

    def u32(self) -> int:
        return self.unpack(U32)[0]

    def u64(self) -> int:
        return self.unpack(U64)[0]

    def var_bytes(self) -> bytes:
        return self.take(self.u32())

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise self._error("trailing bytes")
