"""Serve-layer control handshake: one hello, one welcome, then GC.

Before a connection joins the garbled-circuit protocol proper, the
evaluator introduces itself with a single ``serve-hello`` control
frame naming the *program* it wants garbled and its *session id*; the
server answers with one ``serve-welcome`` frame that either admits the
session (carrying the authoritative cycle count and checkpoint
cadence), routes a reconnect to its live session, or rejects it with a
structured status (``busy``, ``draining``, ``error``).  A hello may
also carry ``op: "stats"``, turning the connection into a one-shot
stats probe.

Two optional hello fields arm the serve layer's per-client caches:
``"client"`` names a stable client identity (sessions of one identity
may share cached key material; distinct identities never do), and
``"base_ot": "<session id>"`` advertises that this client still holds
the receiver side of that earlier session's base-OT phase.  When the
server runs extension OT its welcome answers with ``"base_ot":
"cached"`` (its stored sender side came from the same session — both
parties skip the base phase and re-derive fresh pools under a
session-unique PRG salt) or ``"fresh"`` (run the base phase again).  Absence of ``"base_ot"`` in
the welcome means the server predates the negotiation; the client
then behaves exactly as before.  Unknown hello fields are ignored, so
old and new peers interoperate in both directions.

The control frames ride the same wire format as everything else
(:mod:`repro.net.frame` + :mod:`repro.net.codec`) but are read with a
throwaway :class:`~repro.net.frame.FrameDecoder` *outside* any
:class:`~repro.net.transport.FramedEndpoint`: both sides exchange
exactly one frame each, so the per-direction sequence numbers of the
session endpoints created afterwards start fresh at 1 on both sides.
Bytes of the peer's *next* frame that the control read may have
already pulled off the link are preserved by returning them as a
leftover, which callers wrap into a
:class:`~repro.net.links.PrefacedLink`.

The server side parses hellos with :class:`HelloParser`, an
incremental, *bounded* state machine: it classifies every way an
adversarial client can fail the handshake — garbage bytes, a frame
that never completes, an oversized hello, a non-hello tag, a payload
that does not decode — into a :class:`HandshakeReject` with a stable
``kind``, so the edge can answer each with a structured
``serve-welcome`` reject and a counter instead of an exception on the
accept path.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Tuple

from ..gc.channel import ChannelClosed, ChannelTimeout, FrameCorruption
from ..net.codec import CodecError, decode, encode
from ..net.frame import (
    FRAME_ABORT,
    FRAME_DATA,
    FrameDecoder,
    encode_frame,
)
from ..net.links import Link, LinkClosed, LinkTimeout

#: Control-frame tags.  Sequence number 1 on both; each side sends at
#: most one control frame per connection, then hands the link to a
#: fresh FramedEndpoint.
HELLO = "serve-hello"
WELCOME = "serve-welcome"

#: Upper bound on one hello control frame, leftover included.  A real
#: hello is well under a kilobyte; anything growing past this is a
#: client streaming garbage (or a giant frame) at the handshake and is
#: rejected before it can hold buffer memory hostage.
MAX_HELLO_BYTES = 64 * 1024


class ServeError(Exception):
    """The server rejected the request (unknown program, bad hello,
    finished session, ...).  Not retryable."""


class ServerBusy(ServeError):
    """Admission control rejected the session: worker pool saturated
    and the accept queue is full (or the server is draining)."""

    def __init__(self, message: str, welcome: Optional[dict] = None) -> None:
        super().__init__(message)
        #: The structured ``serve-welcome`` reject payload.
        self.welcome = welcome or {}


class ResultPending(ServeError):
    """A result probe hit a session that is still running — retry
    after the welcome's ``retry_after_s``."""

    def __init__(self, message: str, welcome: Optional[dict] = None) -> None:
        super().__init__(message)
        self.welcome = welcome or {}


class HandshakeReject(Exception):
    """A hello failed to parse.  ``kind`` is the failure class the
    edge counts and reports: ``garbage`` (bytes that are not a frame),
    ``oversized`` (grew past :data:`MAX_HELLO_BYTES`), ``bad-tag``
    (first data frame is not a ``serve-hello``), ``malformed`` (the
    payload does not decode to a record) or ``aborted`` (the peer sent
    an abort frame instead of a hello)."""

    def __init__(self, kind: str, reason: str) -> None:
        super().__init__(f"{kind}: {reason}")
        self.kind = kind
        self.reason = reason


class HelloParser:
    """Incremental, bounded parser for one ``serve-hello`` frame.

    Feed raw chunks as they arrive; returns ``None`` while the hello
    is incomplete and ``(hello_dict, leftover_bytes)`` once it parsed.
    Heartbeat frames are skipped (a keepalive cannot desync the
    handshake); every adversarial input raises
    :class:`HandshakeReject` with its failure class.  After a reject
    the parser refuses further input.
    """

    def __init__(self, max_bytes: int = MAX_HELLO_BYTES) -> None:
        self._decoder = FrameDecoder()
        self._max_bytes = max_bytes
        self._seen = 0
        self._dead = False

    @property
    def started(self) -> bool:
        """Whether any bytes have arrived (arms the hello deadline)."""
        return self._seen > 0

    @property
    def pending_bytes(self) -> int:
        return self._decoder.pending_bytes

    def feed(self, data: bytes) -> Optional[Tuple[dict, bytes]]:
        if self._dead:
            raise HandshakeReject("garbage", "parser already rejected")
        self._seen += len(data)
        if self._seen > self._max_bytes:
            self._dead = True
            raise HandshakeReject(
                "oversized",
                f"hello exceeds {self._max_bytes} bytes "
                f"({self._seen} received)",
            )
        # One frame at a time: the verdict on the hello must not
        # depend on what else rode the same TCP segment, so bytes past
        # it stay in the decoder, unexamined, and leave as the leftover.
        while True:
            try:
                frames = self._decoder.feed(data, limit=1)
            except FrameCorruption as exc:
                self._dead = True
                raise HandshakeReject("garbage", str(exc)) from exc
            if not frames:
                return None
            frame, data = frames[0], b""
            if frame.ftype == FRAME_ABORT:
                self._dead = True
                raise HandshakeReject(
                    "aborted", "peer aborted during handshake"
                )
            if frame.ftype != FRAME_DATA:
                continue  # stray heartbeat
            if frame.tag != HELLO:
                self._dead = True
                raise HandshakeReject(
                    "bad-tag",
                    f"expected {HELLO!r}, got {frame.tag!r}",
                )
            try:
                payload = decode(frame.payload)
            except CodecError as exc:
                self._dead = True
                raise HandshakeReject(
                    "malformed",
                    f"hello payload does not decode: {exc}",
                ) from exc
            if not isinstance(payload, dict):
                self._dead = True
                raise HandshakeReject(
                    "malformed",
                    f"hello payload is {type(payload).__name__}, "
                    "expected a record",
                )
            return payload, self._decoder.buffered


def send_control(link: Link, tag: str, payload: Any) -> None:
    """Write one control frame to a raw link."""
    try:
        link.send_bytes(encode_frame(FRAME_DATA, 1, tag, encode(payload)))
    except LinkClosed as exc:
        raise ChannelClosed(f"connection lost: {exc}") from exc


def recv_control(
    link: Link, timeout: Optional[float] = None
) -> Tuple[str, Any, bytes]:
    """Read one control frame from a raw link.

    Returns ``(tag, payload, leftover)`` where ``leftover`` is any
    bytes past the frame that were already read off the link (the
    beginning of the peer's next frame — see module docstring).
    """
    decoder = FrameDecoder()
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChannelTimeout(
                    f"no control frame within {timeout}s"
                )
        try:
            chunk = link.recv_bytes(timeout=remaining)
        except LinkTimeout as exc:
            raise ChannelTimeout(
                f"no control frame within {timeout}s"
            ) from exc
        if chunk == b"":
            raise ChannelClosed("connection closed during handshake")
        frames = decoder.feed(chunk)
        for i, frame in enumerate(frames):
            if frame.ftype == FRAME_ABORT:
                raise ChannelClosed("peer aborted during handshake")
            if frame.ftype != FRAME_DATA:
                continue  # a stray heartbeat cannot desync the control read
            try:
                payload = decode(frame.payload)
            except CodecError as exc:
                raise FrameCorruption(
                    f"control frame {frame.tag!r} does not decode: {exc}"
                ) from exc
            # One chunk can carry frames *past* the control frame (the
            # peer's first protocol frame rides the same TCP segment).
            # Re-serialize them — encode_frame is deterministic, so the
            # byte stream is reconstructed exactly — ahead of whatever
            # partial frame the decoder still buffers.
            leftover = b"".join(
                encode_frame(f.ftype, f.seq, f.tag, f.payload)
                for f in frames[i + 1:]
            ) + decoder.buffered
            return frame.tag, payload, leftover
