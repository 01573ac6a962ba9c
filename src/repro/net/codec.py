"""Deterministic binary codec for channel payloads.

Every message of the two-party protocol is built from a small set of
shapes — label bytes, garbled-table batches, OT ciphertexts, control
records — and this module gives each a canonical binary form so that

* :class:`~repro.gc.channel.ChannelStats` can count **actual encoded
  bytes** instead of trusting a declared size, and
* the TCP transport ships the exact same bytes the in-memory channel
  accounts, making the two interchangeable.

The format is a minimal tagged encoding (one type byte per value,
varint lengths) over the closed type set the protocol uses:

=========  ====  =======================================================
type       byte  encoding
=========  ====  =======================================================
None       `N`   nothing
False      `F`   nothing
True       `T`   nothing
int        `i`   varint(len) + two's-complement little-endian bytes
float      `f`   8 bytes IEEE-754 binary64, big-endian
bytes      `b`   varint(len) + raw bytes
str        `s`   varint(len) + UTF-8 bytes
list       `l`   varint(n) + encoded items
tuple      `t`   varint(n) + encoded items
dict       `d`   varint(n) + sorted (str key, value) pairs
=========  ====  =======================================================

Encoding is deterministic: equal values produce identical bytes (dict
entries are sorted by key), so communication totals are reproducible
run to run.  Protocol code keeps label material as fixed-width
``bytes`` on the wire precisely so that sizes cannot leak or wobble
with the random label values (a 128-bit label always costs 18 encoded
bytes regardless of leading zeros).

Containers nest at most :data:`MAX_DEPTH` deep, on both sides: a
hostile payload of a few kilobytes (one-item lists nested 1,000 deep)
is a :class:`CodecError`, not a ``RecursionError`` out of the parser.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple


#: Deepest container nesting :func:`encode` writes and :func:`decode`
#: reads.  The deepest payload the system sends is 7 (a fleet
#: ``stats`` reply: per-shard records with per-worker counters).
MAX_DEPTH = 32


class CodecError(ValueError):
    """Raised when a payload cannot be encoded or decoded."""


def _nest(depth: int) -> int:
    """Depth of a container's items; raises past :data:`MAX_DEPTH`."""
    if depth >= MAX_DEPTH:
        raise CodecError(f"payload nests deeper than MAX_DEPTH={MAX_DEPTH}")
    return depth + 1


def _write_varint(out: List[bytes], n: int) -> None:
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(bytes((b | 0x80,)))
        else:
            out.append(bytes((b,)))
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


def _encode_into(out: List[bytes], obj: Any, depth: int = 0) -> None:
    if obj is None:
        out.append(b"N")
    elif obj is True:
        out.append(b"T")
    elif obj is False:
        out.append(b"F")
    elif type(obj) is int:
        raw = obj.to_bytes((obj.bit_length() + 8) // 8, "little", signed=True)
        out.append(b"i")
        _write_varint(out, len(raw))
        out.append(raw)
    elif type(obj) is float:
        # Fixed-width binary64: bit-exact round trip, deterministic
        # size (timeout/backoff hints in serve control frames).
        out.append(b"f")
        out.append(struct.pack(">d", obj))
    elif type(obj) in (bytes, bytearray):
        out.append(b"b")
        _write_varint(out, len(obj))
        out.append(bytes(obj))
    elif type(obj) is str:
        raw = obj.encode("utf-8")
        out.append(b"s")
        _write_varint(out, len(raw))
        out.append(raw)
    elif type(obj) is list:
        depth = _nest(depth)
        out.append(b"l")
        _write_varint(out, len(obj))
        for item in obj:
            _encode_into(out, item, depth)
    elif type(obj) is tuple:
        depth = _nest(depth)
        out.append(b"t")
        _write_varint(out, len(obj))
        for item in obj:
            _encode_into(out, item, depth)
    elif type(obj) is dict:
        depth = _nest(depth)
        out.append(b"d")
        _write_varint(out, len(obj))
        try:
            keys = sorted(obj)
        except TypeError as exc:
            raise CodecError("dict keys must be sortable strings") from exc
        for key in keys:
            if type(key) is not str:
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            _encode_into(out, key, depth)
            _encode_into(out, obj[key], depth)
    else:
        raise CodecError(f"cannot encode {type(obj).__name__} values")


def encode(obj: Any) -> bytes:
    """Encode a payload into its canonical binary form."""
    out: List[bytes] = []
    _encode_into(out, obj)
    return b"".join(out)


def encoded_size(obj: Any) -> int:
    """Wire size of ``obj`` under :func:`encode`."""
    return len(encode(obj))


def _decode_at(data: bytes, pos: int, depth: int = 0) -> Tuple[Any, int]:
    if pos >= len(data):
        raise CodecError("truncated value")
    kind = data[pos : pos + 1]
    pos += 1
    if kind == b"N":
        return None, pos
    if kind == b"T":
        return True, pos
    if kind == b"F":
        return False, pos
    if kind == b"f":
        end = pos + 8
        if end > len(data):
            raise CodecError("truncated float")
        return struct.unpack(">d", data[pos:end])[0], end
    if kind in (b"i", b"b", b"s"):
        n, pos = _read_varint(data, pos)
        end = pos + n
        if end > len(data):
            raise CodecError("truncated payload body")
        raw = data[pos:end]
        if kind == b"i":
            return int.from_bytes(raw, "little", signed=True), end
        if kind == b"b":
            return raw, end
        try:
            return raw.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 string") from exc
    if kind in (b"l", b"t"):
        depth = _nest(depth)
        n, pos = _read_varint(data, pos)
        items = []
        for _ in range(n):
            item, pos = _decode_at(data, pos, depth)
            items.append(item)
        return (items if kind == b"l" else tuple(items)), pos
    if kind == b"d":
        depth = _nest(depth)
        n, pos = _read_varint(data, pos)
        result = {}
        for _ in range(n):
            key, pos = _decode_at(data, pos, depth)
            if type(key) is not str:
                raise CodecError("dict keys must decode to str")
            value, pos = _decode_at(data, pos, depth)
            result[key] = value
        return result, pos
    raise CodecError(f"unknown type byte {kind!r}")


def decode(data: bytes) -> Any:
    """Decode one payload; rejects trailing garbage."""
    obj, pos = _decode_at(data, 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after payload")
    return obj
