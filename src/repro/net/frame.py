"""Length-prefixed frames with tag header, sequence numbers and CRC32.

Everything a :class:`~repro.net.transport.FramedEndpoint` puts on a
byte pipe is one frame::

    +---------+-------+---------+--------+-----+---------+--------+
    | len u32 | type  | seq u32 | taglen | tag | payload | crc u32|
    +---------+-------+---------+--------+-----+---------+--------+
      4 bytes  1 byte  4 bytes   1 byte   ...    ...       4 bytes

* ``len`` is the big-endian byte count of everything after itself.
* ``type`` is :data:`FRAME_DATA`, :data:`FRAME_HEARTBEAT` or
  :data:`FRAME_ABORT`.
* ``seq`` is the per-direction DATA sequence number; heartbeat and
  abort frames carry 0 and do not consume sequence numbers, so a
  keepalive can never desynchronize the data stream.
* ``tag`` is the protocol message tag (UTF-8, ≤ 255 bytes).
* ``crc`` is the CRC32 of ``type..payload``.

A CRC mismatch, a truncated or oversized frame, an unknown type byte
or a sequence gap raises :class:`FrameCorruption` — a subclass of
:class:`~repro.gc.channel.ProtocolDesync`, because the two ends no
longer agree on the byte stream.  The distinction matters to the
resume layer: frame corruption is a *transport* integrity failure
that a :class:`~repro.net.session.ResumableSession` may recover from
by reconnecting, whereas a plain tag-level ``ProtocolDesync`` is a
protocol bug and always fatal.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, List, NamedTuple, Optional

from ..gc.channel import FrameCorruption

FRAME_DATA = 0x01
FRAME_HEARTBEAT = 0x02
FRAME_ABORT = 0x03

_FRAME_TYPES = (FRAME_DATA, FRAME_HEARTBEAT, FRAME_ABORT)

#: Upper bound on one frame's post-length size.  Large enough for any
#: realistic per-cycle table batch (millions of tables), small enough
#: that a corrupted length prefix cannot make the receiver allocate or
#: wait on gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEAD = struct.Struct(">BIB")  # type, seq, taglen
_LEN = struct.Struct(">I")
_CRC = struct.Struct(">I")


class Frame(NamedTuple):
    """One decoded frame."""

    ftype: int
    seq: int
    tag: str
    payload: bytes

    @property
    def wire_size(self) -> int:
        """Total on-the-wire size of this frame, including the length
        prefix and CRC trailer."""
        return _LEN.size + _HEAD.size + len(self.tag.encode("utf-8")) + len(
            self.payload
        ) + _CRC.size


def encode_frame(ftype: int, seq: int, tag: str, payload: bytes = b"") -> bytes:
    """Serialize one frame."""
    tag_raw = tag.encode("utf-8")
    if len(tag_raw) > 255:
        raise ValueError(f"tag too long ({len(tag_raw)} bytes): {tag[:40]!r}...")
    body = _HEAD.pack(ftype, seq & 0xFFFFFFFF, len(tag_raw)) + tag_raw + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    total = len(body) + _CRC.size
    if total > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {total} bytes exceeds MAX_FRAME_BYTES")
    return _LEN.pack(total) + body + _CRC.pack(crc)


def frame_tag(frame_bytes: bytes) -> str:
    """Tag of an encoded frame (no integrity checks; b'' if cut short).

    Used by the fault injector to target specific protocol messages
    without fully decoding them.
    """
    off = _LEN.size
    if len(frame_bytes) < off + _HEAD.size:
        return ""
    _, _, taglen = _HEAD.unpack_from(frame_bytes, off)
    raw = frame_bytes[off + _HEAD.size : off + _HEAD.size + taglen]
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return ""


class FrameDecoder:
    """Incremental frame reassembler.

    Feed arbitrary byte chunks (TCP segments split frames wherever
    they like); complete frames come out.  All integrity failures
    raise :class:`FrameCorruption`; once corrupted, the decoder
    refuses further input — there is no way to resynchronize a length-
    prefixed stream after a bad length.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._dead = False

    def feed(self, data: bytes, limit: Optional[int] = None) -> List[Frame]:
        """Absorb ``data``; return every frame completed by it — or, at
        most ``limit`` of them, the bytes past those left buffered and
        unexamined (a reader that wants one control frame must not
        have its verdict depend on what else rode the same segment)."""
        if self._dead:
            raise FrameCorruption("decoder poisoned by earlier corruption")
        self._buf.extend(data)
        frames: List[Frame] = []
        try:
            while len(frames) != limit:
                frame = self._next_frame()
                if frame is None:
                    break
                frames.append(frame)
        except FrameCorruption:
            self._dead = True
            raise
        return frames

    def _next_frame(self) -> "Frame | None":
        buf = self._buf
        if len(buf) < _LEN.size:
            return None
        (total,) = _LEN.unpack_from(buf, 0)
        if total > MAX_FRAME_BYTES:
            raise FrameCorruption(
                f"frame length {total} exceeds MAX_FRAME_BYTES "
                "(corrupted length prefix?)"
            )
        if total < _HEAD.size + _CRC.size:
            raise FrameCorruption(f"frame length {total} below minimum")
        if len(buf) < _LEN.size + total:
            return None
        body = bytes(buf[_LEN.size : _LEN.size + total - _CRC.size])
        (crc,) = _CRC.unpack_from(buf, _LEN.size + total - _CRC.size)
        del buf[: _LEN.size + total]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise FrameCorruption("frame CRC mismatch")
        ftype, seq, taglen = _HEAD.unpack_from(body, 0)
        if ftype not in _FRAME_TYPES:
            raise FrameCorruption(f"unknown frame type {ftype:#04x}")
        if _HEAD.size + taglen > len(body):
            raise FrameCorruption("frame tag extends past frame end")
        try:
            tag = body[_HEAD.size : _HEAD.size + taglen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameCorruption("frame tag is not valid UTF-8") from exc
        payload = body[_HEAD.size + taglen :]
        return Frame(ftype, seq, tag, payload)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buf)

    @property
    def buffered(self) -> bytes:
        """The undecoded residual buffer.

        The serve handshake reads its control frames with a throwaway
        decoder, then hands the link (plus whatever bytes of the next
        frame were already read) to a fresh
        :class:`~repro.net.transport.FramedEndpoint`.
        """
        return bytes(self._buf)

    def __iter__(self) -> Iterator[Frame]:  # pragma: no cover - convenience
        return iter(self.feed(b""))
