"""Channel abstraction: tag-disciplined duplex message transport.

The two parties of the protocol exchange tagged messages through an
:class:`Endpoint`.  Two implementations exist:

* :class:`InMemoryEndpoint` (via :func:`channel_pair`) — the two
  parties are threads in one process and messages travel through a
  pair of unbounded queues.  Payloads are passed by reference, but
  every message is still priced through the deterministic binary codec
  (:mod:`repro.net.codec`), so the reported communication — the GC
  bottleneck [7] — counts the bytes a real network would carry.
* :class:`repro.net.transport.FramedEndpoint` — the payload really is
  encoded, framed with sequence numbers and a CRC32, and shipped over
  a byte pipe (an in-memory pipe or a TCP socket).

The receive path accounts the time spent blocked on the peer
(``channel.wait``), which is where pipelining wins show up.

Failure modes are distinguished by exception type:

* :class:`ChannelClosed` — the peer aborted or the connection died.
* :class:`ChannelTimeout` — an opt-in receive deadline expired.  The
  peer may simply be slow; this is *not* a :class:`ChannelClosed`
  (callers handling "peer is gone" must not silently swallow "peer is
  late" — the resume layer treats the two very differently).
* :class:`ProtocolDesync` — a message arrived with the wrong tag: the
  two state machines disagree.  This is a protocol *bug*, not a peer
  failure; the receiver aborts the peer before raising so the other
  side does not stay blocked forever.
* :class:`FrameCorruption` — a framed transport failed an integrity
  check (CRC, length, sequence).  A subclass of
  :class:`ProtocolDesync`, but retryable: a
  :class:`~repro.net.session.ResumableSession` responds by
  reconnecting and replaying from the last checkpoint.

By default ``recv`` blocks indefinitely: in-process channels rely on
the abort mechanism (not a timer) to unblock the survivor on failure.
Large circuits (the AES/SHA3 benches) legitimately exceed any fixed
deadline, so timeouts are opt-in, per endpoint or per call.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..obs import NULL_OBS


class ChannelError(Exception):
    """Base class for channel failures."""


class ChannelClosed(ChannelError):
    """Raised when receiving from a channel whose peer has aborted."""


class ChannelTimeout(ChannelError):
    """Raised when an opt-in receive timeout expires.

    Deliberately *not* a :class:`ChannelClosed`: a timeout means the
    peer is late, not that it is known dead, and handlers for "peer
    aborted" must not silently swallow it.
    """


class ProtocolDesync(ChannelError):
    """Raised when a message's tag does not match the expected one.

    Distinct from :class:`ChannelClosed` so callers can tell "peer
    aborted" (expected under failure injection) from "the two protocol
    state machines disagree" (a bug to fix).
    """


class FrameCorruption(ProtocolDesync):
    """A framed transport failed an integrity check (CRC, length,
    sequence number, undecodable payload).

    Subclasses :class:`ProtocolDesync` — the two ends no longer agree
    on the byte stream — but is raised only for *transport-level*
    integrity failures, which the resume layer may recover from by
    reconnecting, while a genuine tag mismatch stays fatal.
    """


def check_blob(payload: Any, nbytes: int, tag: str) -> bytes:
    """``payload`` if it is a ``bytes`` blob of exactly ``nbytes``.

    Run frames carry no count: both parties derive each frame's length
    from the public trace and run lengths, so a blob of any other shape
    means the two byte streams disagree — :class:`FrameCorruption`,
    never an ``IndexError`` or unpacking error further down.
    """
    if type(payload) is not bytes or len(payload) != nbytes:
        got = (f"{len(payload)} bytes" if type(payload) is bytes
               else type(payload).__name__)
        raise FrameCorruption(f"{tag!r} frame: expected {nbytes} bytes, got {got}")
    return payload


_SENTINEL = object()
_UNSET = object()

# Lazily bound repro.net.codec.encoded_size (breaks the import cycle:
# repro.net.frame imports this module for the exception types).
_encoded_size = None


def payload_wire_size(payload: Any) -> int:
    """Actual encoded wire size of a payload under the binary codec."""
    global _encoded_size
    if _encoded_size is None:
        from ..net.codec import encoded_size

        _encoded_size = encoded_size
    return _encoded_size(payload)


@dataclass
class ChannelStats:
    """Traffic in one direction plus receive-side wait time."""

    messages: int = 0
    #: Encoded payload bytes (the codec size of every message body).
    payload_bytes: int = 0
    #: Total on-the-wire bytes including frame headers, CRCs and
    #: heartbeats.  Equal to ``payload_bytes`` on unframed in-memory
    #: channels, strictly larger on framed transports.
    wire_bytes: int = 0
    #: Seconds the receiver spent blocked waiting for these messages.
    wait_seconds: float = 0.0

    def record(self, nbytes: int, wire_bytes: Optional[int] = None) -> None:
        self.messages += 1
        self.payload_bytes += nbytes
        self.wire_bytes += nbytes if wire_bytes is None else wire_bytes

    def record_overhead(self, nbytes: int) -> None:
        """Count non-message wire bytes (heartbeats, aborts)."""
        self.wire_bytes += nbytes

    def record_wait(self, seconds: float) -> None:
        self.wait_seconds += seconds

    def merge(self, other: "ChannelStats") -> None:
        """Fold another stats object into this one (session totals
        across reconnected transports)."""
        self.messages += other.messages
        self.payload_bytes += other.payload_bytes
        self.wire_bytes += other.wire_bytes
        self.wait_seconds += other.wait_seconds


class Endpoint:
    """One side of a duplex tagged-message channel (abstract).

    Subclasses implement :meth:`send`, :meth:`_next_message` and
    :meth:`abort`; this base class owns the shared contract — stats,
    default timeouts, receive-wait accounting and the tag discipline
    (a mismatched tag aborts the peer and raises
    :class:`ProtocolDesync`).

    Args:
        timeout: default receive timeout in seconds; ``None`` (the
            default) blocks until a message or an abort arrives.
        obs: optional :class:`repro.obs.Obs`; receive waits are
            attributed to the ``channel.wait`` phase when enabled.
        sent / received: stats objects to record into (fresh ones by
            default; sessions inject persistent ones so totals survive
            reconnects).
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        obs=NULL_OBS,
        sent: Optional[ChannelStats] = None,
        received: Optional[ChannelStats] = None,
    ) -> None:
        self.sent = sent if sent is not None else ChannelStats()
        self.received = received if received is not None else ChannelStats()
        self.timeout = timeout
        self.obs = obs

    # -- subclass responsibilities -------------------------------------------

    def send(self, tag: str, payload: Any) -> None:
        """Send one tagged message; its wire size is the codec size."""
        raise NotImplementedError

    def _next_message(self, timeout: Optional[float]) -> Tuple[str, Any, int]:
        """Block for the next message; return ``(tag, payload, nbytes)``.

        Raises :class:`ChannelTimeout` when the deadline expires,
        :class:`ChannelClosed` on peer abort / connection loss, and
        :class:`FrameCorruption` on integrity failures.
        """
        raise NotImplementedError

    def abort(self) -> None:
        """Wake up a peer blocked on ``recv`` after a local failure."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources; idempotent."""

    # -- the shared receive contract -----------------------------------------

    def recv(self, expected_tag: str, timeout: Any = _UNSET) -> Any:
        """Receive the next message, asserting its tag matches.

        ``timeout`` overrides the endpoint default for this call;
        ``None`` blocks forever.
        """
        if timeout is _UNSET:
            timeout = self.timeout
        t0 = time.perf_counter()
        try:
            tag, payload, nbytes = self._next_message(timeout)
        finally:
            waited = time.perf_counter() - t0
            self.received.record_wait(waited)
            if self.obs.enabled:
                self.obs.add_time("channel.wait", waited)
        if tag != expected_tag:
            # Abort the peer: a desync means both state machines are
            # wrong, and the other side would otherwise block forever.
            self.abort()
            raise ProtocolDesync(f"expected {expected_tag!r}, got {tag!r}")
        self.received.record(nbytes)
        return payload


class InMemoryEndpoint(Endpoint):
    """In-process endpoint: a pair of unbounded queues.

    Payloads travel by reference (no serialization on the hot path),
    but each message is priced at its actual encoded size so the
    communication totals match what a framed transport would ship.
    """

    def __init__(
        self,
        out_q: "queue.Queue",
        in_q: "queue.Queue",
        timeout: Optional[float] = None,
        obs=NULL_OBS,
        sent: Optional[ChannelStats] = None,
        received: Optional[ChannelStats] = None,
    ) -> None:
        super().__init__(timeout=timeout, obs=obs, sent=sent, received=received)
        self._out = out_q
        self._in = in_q

    def send(self, tag: str, payload: Any) -> None:
        nbytes = payload_wire_size(payload)
        self.sent.record(nbytes)
        self._out.put((tag, payload, nbytes))

    def _next_message(self, timeout: Optional[float]) -> Tuple[str, Any, int]:
        try:
            item = self._in.get(timeout=timeout)
        except queue.Empty as exc:
            raise ChannelTimeout(
                f"timed out after {timeout}s waiting for a message"
            ) from exc
        if item is _SENTINEL:
            raise ChannelClosed("peer aborted")
        return item

    def abort(self) -> None:
        self._out.put(_SENTINEL)


def channel_pair(
    timeout: Optional[float] = None, obs=NULL_OBS
) -> Tuple[InMemoryEndpoint, InMemoryEndpoint]:
    """Create the two connected endpoints (alice_end, bob_end).

    ``timeout`` is the default receive timeout for both endpoints
    (``None`` blocks forever; tests opt into short deadlines).
    """
    a2b: "queue.Queue" = queue.Queue()
    b2a: "queue.Queue" = queue.Queue()
    alice = InMemoryEndpoint(a2b, b2a, timeout=timeout, obs=obs)
    bob = InMemoryEndpoint(b2a, a2b, timeout=timeout, obs=obs)
    return alice, bob
