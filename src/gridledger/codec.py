"""The length-prefixed byte layout every canonical encoding is built from.

Fixed-width fields are written raw, integers big-endian, and variable
fields get a u32 length prefix. `ByteReader` is the one strict parser of
that layout: it rejects truncated input and, at `expect_end`, trailing
bytes.
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

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return U64.unpack(self.take(8))[0]

    def var_bytes(self) -> bytes:
        return self.take(self.u32())

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise self._error("trailing bytes")
