"""Canonical byte encodings.

Fiat–Shamir security depends on every transcript message having exactly one
byte representation, so all encoders here are canonical and injective:
integers are fixed-width big-endian, composite messages are length-prefixed.
"""

from __future__ import annotations

from repro.errors import EncodingError

__all__ = [
    "int_to_bytes",
    "bytes_to_int",
    "encode_length_prefixed",
    "decode_length_prefixed",
    "byte_length",
    "decode_utf8",
]


def byte_length(n: int) -> int:
    """Number of bytes needed to represent the non-negative integer ``n``."""
    return max(1, (n.bit_length() + 7) // 8)


def int_to_bytes(value: int, width: int | None = None) -> bytes:
    """Big-endian encoding of a non-negative integer.

    ``width`` pins the output length (canonical form); without it the
    minimal length is used.
    """
    if value < 0:
        raise EncodingError(f"cannot encode negative integer {value}")
    if width is None:
        width = byte_length(value)
    try:
        return value.to_bytes(width, "big")
    except OverflowError as exc:
        raise EncodingError(f"{value} does not fit in {width} bytes") from exc


def bytes_to_int(data: bytes) -> int:
    """Inverse of :func:`int_to_bytes`."""
    return int.from_bytes(data, "big")


def decode_utf8(data: bytes, what: str) -> str:
    """``data`` as UTF-8 text; :class:`EncodingError` naming ``what`` if it
    is not (a peer's bytes must never raise a bare ``UnicodeDecodeError``)."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{what} is not valid UTF-8") from exc


def encode_length_prefixed(*parts: bytes) -> bytes:
    """Concatenate byte strings unambiguously with 4-byte length prefixes."""
    out = bytearray()
    for part in parts:
        if len(part) >= 1 << 32:
            raise EncodingError("part too long for 4-byte length prefix")
        out += len(part).to_bytes(4, "big")
        out += part
    return bytes(out)


def decode_length_prefixed(data: bytes) -> list[bytes]:
    """Inverse of :func:`encode_length_prefixed`."""
    parts: list[bytes] = []
    i = 0
    while i < len(data):
        if i + 4 > len(data):
            raise EncodingError("truncated length prefix")
        n = int.from_bytes(data[i : i + 4], "big")
        i += 4
        if i + n > len(data):
            raise EncodingError("truncated payload")
        parts.append(data[i : i + n])
        i += n
    return parts
