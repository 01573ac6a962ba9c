"""Asyncio front door: the one listener of the serve tier.

In ARM2GC the function is a *public* input to one fixed garbled
processor, so the whole public control surface of the service is one
``serve-hello`` answered by one ``serve-welcome``.  :class:`AsyncEdge`
is the only code in ``repro.serve`` that owns a listening socket, an
event-loop thread, a :class:`~repro.serve.handshake.HelloParser`, the
pre-hello deadlines and the pre-admission reject payloads.  It has two
owners — :class:`~repro.serve.server.GarbleServer` (a shard) and
:class:`~repro.serve.router.SessionRouter` — which is why a shard and
a router are indistinguishable to a client until the hello is parsed.

What the edge guarantees *before* a hello is parsed:

* **Accept** is non-blocking; each connection gets an
  :class:`_EdgeConnection` protocol whose state machine is driven
  entirely by loop callbacks.  Ten thousand idle connections cost ten
  thousand sockets and zero threads.
* **Handshake parsing** happens incrementally in ``data_received`` via
  :class:`~repro.serve.handshake.HelloParser` — malformed, oversized
  or truncated hellos become structured ``serve-welcome`` rejects plus
  counters, never an exception anywhere near the accept path.
* **Per-state deadlines** are ``loop.call_later`` timers: a connection
  that sends nothing is closed at ``idle_timeout``; once the first
  hello byte arrives the clock tightens to ``handshake_timeout`` and is
  *not* re-armed by later bytes — the slow-loris is rejected at the
  deadline no matter how diligently it trickles.  Heartbeats, when
  enabled, are timer callbacks too.
* **Overload sheds idle before refusing new**: at ``max_connections``
  the oldest connection still in the no-bytes idle state is shed (a
  structured ``shed-idle`` reject) to make room; only when nobody is
  sheddable does the newcomer get an ``overloaded`` reject, carrying
  exponential-backoff guidance in ``retry_after_s``.
* **Drain** answers every not-yet-admitted connection with a
  structured ``draining`` reject, synchronously.

The edge's job ends at a parsed hello, which it hands *on the loop
thread* to its owner's single callback ``on_hello(conn, hello,
leftover)``.  The owner then owes ``conn`` exactly one of two things:

* :meth:`_EdgeConnection.detach` (the shard): the socket leaves the
  loop.  The transport owns a non-blocking socket, and ``dup()``
  shares file-status flags, so the edge pauses reading, dups the fd,
  closes the transport (its copy), and builds a
  :class:`~repro.net.tcp.TcpLink` from the duplicate —
  ``TcpLink.from_fd`` restores blocking mode, and because the loop
  never reads again and has nothing buffered to write, the handler
  (run on a small executor, so a slow admission decision never blocks
  the loop) sees a clean byte stream starting exactly at the leftover.
  A detached connection leaves the connection table.
* :meth:`_EdgeConnection.answer` (the router): the loop side's one
  ``serve-welcome`` writer — write the welcome, close.  The owner may
  answer *later*, from a task of its own on :attr:`AsyncEdge.loop`
  (``fleet-stats`` probes the shards first).  Until then the
  connection sits in state ``open``: bytes are ignored, it counts
  against ``max_connections``, a peer that hangs up frees the slot
  (``answer`` tolerates the closed transport), and :meth:`AsyncEdge.
  stop` closes it and cancels the task.

Accepted sockets inherit ``TCP_NODELAY`` from the listening socket: a
heartbeat then a welcome is write-write, and the second small segment
would wait ~40 ms for a delayed ACK.  asyncio sets the option itself
only when ``sock.proto == IPPROTO_TCP``; ``socket(AF_INET,
SOCK_STREAM)`` and everything it accepts has ``proto == 0``.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional

from ..net.codec import encode
from ..net.frame import FRAME_DATA, FRAME_HEARTBEAT, encode_frame
from ..net.tcp import TcpLink
from .handshake import WELCOME, HandshakeReject, HelloParser

#: The owner's callback, invoked on the loop thread for every parsed
#: hello: ``on_hello(conn, hello_dict, leftover_bytes)``.
OnHello = Callable[["_EdgeConnection", dict, bytes], None]

#: What a detached connection is completed by, on an executor thread:
#: ``handler(link, hello_dict, leftover_bytes)``.
HelloHandler = Callable[[TcpLink, dict, bytes], None]

#: Counter callback: ``counter(name)`` bumps a per-owner stat.
Counter = Callable[[str], None]

#: Executor threads completing detached handshakes, and the listen
#: backlog.  No caller ever set either, so they are not options.
HANDSHAKE_WORKERS = 4
BACKLOG = 512


def _welcome_frame(payload: dict) -> bytes:
    return encode_frame(FRAME_DATA, 1, WELCOME, encode(payload))


_HEARTBEAT_FRAME = encode_frame(FRAME_HEARTBEAT, 0, "hb", b"")


class _EdgeConnection(asyncio.Protocol):
    """Per-connection handshake state machine.

    States: ``idle`` (no bytes yet; sheddable; idle-timeout clock) →
    ``hello`` (bytes arriving; handshake-timeout clock) → ``open``
    (hello parsed; the owner's, no edge clock) → ``handoff`` (socket
    detached to a handler) or ``closed`` (answered / rejected / lost).
    """

    def __init__(self, edge: "AsyncEdge") -> None:
        self._edge = edge
        self._parser = HelloParser(max_bytes=edge.config.max_hello_bytes)
        self.transport: Optional[asyncio.Transport] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._beat: Optional[asyncio.TimerHandle] = None
        self.state = "idle"

    # -- lifecycle ----------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        edge = self._edge
        if edge.draining:
            self.reject_draining()
            return
        if len(edge._conns) >= edge.config.max_connections:
            if not edge._shed_one():
                self.answer(
                    {"status": "overloaded",
                     "reason": f"{edge.config.max_connections} connections "
                               "open and none sheddable",
                     "retry_after_s": edge.retry_after(pressure=True)},
                    counter="rejected_overload",
                )
                return
        edge._conns[self] = None
        edge._idle[self] = None
        self._arm(edge.config.idle_timeout, self._on_idle_deadline)
        if edge.heartbeat is not None:
            self._beat = edge.loop.call_later(
                edge.heartbeat, self._on_heartbeat
            )

    def connection_lost(self, exc) -> None:
        if self.state == "hello":
            # The peer hung up mid-hello: a truncated handshake.
            self._edge.counter("handshake_rejects")
        self._teardown()

    def data_received(self, data: bytes) -> None:
        if self.state not in ("idle", "hello"):
            return
        edge = self._edge
        if self.state == "idle":
            self.state = "hello"
            edge._idle.pop(self, None)
            self._arm(edge.config.handshake_timeout,
                      self._on_handshake_deadline)
        try:
            done = self._parser.feed(data)
        except HandshakeReject as exc:
            edge.counter("handshake_rejects")
            self.answer(
                {"status": "bad-hello", "error": exc.kind,
                 "reason": exc.reason,
                 "retry_after_s": edge.retry_after()},
            )
            return
        if done is None:
            return
        # Parsed: the edge's clocks stop, the table slot stays until
        # the owner detaches the socket or the connection closes.
        self.state = "open"
        self._disarm()
        edge.on_hello(self, *done)

    # -- deadlines ----------------------------------------------------

    def _arm(self, timeout: Optional[float], callback) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if timeout is not None and timeout > 0:
            self._timer = self._edge.loop.call_later(timeout, callback)

    def _on_idle_deadline(self) -> None:
        self._edge.counter("idle_timeouts")
        self.answer(
            {"status": "idle-timeout",
             "reason": f"no hello within {self._edge.config.idle_timeout}s "
                       "of connecting"},
        )

    def _on_handshake_deadline(self) -> None:
        edge = self._edge
        edge.counter("handshake_timeouts")
        edge.counter("handshake_rejects")
        self.answer(
            {"status": "handshake-timeout",
             "reason": "hello incomplete after "
                       f"{edge.config.handshake_timeout}s "
                       f"({self._parser.pending_bytes} bytes pending)",
             "retry_after_s": edge.retry_after()},
        )

    def _on_heartbeat(self) -> None:
        if self.state not in ("idle", "hello"):
            return
        self.transport.write(_HEARTBEAT_FRAME)
        self._beat = self._edge.loop.call_later(
            self._edge.heartbeat, self._on_heartbeat
        )

    # -- transitions --------------------------------------------------

    def detach(self, handler: HelloHandler, hello: dict,
               leftover: bytes) -> None:
        """Surrender the socket: it leaves the loop and the table, and
        ``handler(link, hello, leftover)`` completes the handshake on
        the edge's executor (see the module docstring for why the
        ``dup()`` dance is safe)."""
        transport = self.transport
        self.state = "handoff"
        self._teardown()
        try:
            transport.pause_reading()
            dup = transport.get_extra_info("socket").dup()
        except OSError:
            transport.close()
            return
        transport.close()
        self._edge._submit(handler, dup, hello, leftover)

    def shed(self) -> None:
        """Close this (idle) connection to make room for a newcomer."""
        self._edge.counter("idle_shed")
        self.answer(
            {"status": "shed-idle",
             "reason": "connection shed under overload before sending "
                       "a hello",
             "retry_after_s": self._edge.retry_after(pressure=True)},
        )

    def reject_draining(self) -> None:
        """Drain fired before this connection was admitted."""
        self.answer(
            {"status": "draining", "reason": "server is draining",
             "retry_after_s": self._edge.retry_after()},
            counter="rejected_busy",
        )

    def answer(self, payload: dict, counter: Optional[str] = None) -> None:
        """The loop side's one welcome writer: bump ``counter``, write
        ``payload`` as the connection's ``serve-welcome``, close.  Every
        pre-admission reject goes through here, and so does an owner
        that answers — now or later — instead of detaching."""
        if counter is not None:
            self._edge.counter(counter)
        transport = self.transport
        self._teardown()
        if transport.is_closing():
            return
        try:
            transport.write(_welcome_frame(payload))
        except OSError:
            pass
        transport.close()

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._beat is not None:
            self._beat.cancel()
            self._beat = None

    def _teardown(self) -> None:
        self._disarm()
        self._edge._conns.pop(self, None)
        self._edge._idle.pop(self, None)
        if self.state != "handoff":
            self.state = "closed"


class AsyncEdge:
    """Single-threaded asyncio listener feeding its owner parsed hellos.

    ``config`` is the owner's :class:`~repro.serve.config.ServeConfig`
    or :class:`~repro.serve.config.RouterConfig` — the edge reads the
    listener fields the two share (``host``, ``port``,
    ``handshake_timeout``, ``idle_timeout``, ``max_connections``,
    ``max_hello_bytes``) plus ``heartbeat`` where there is one.  The
    listening socket is bound in the constructor (so ``host`` /
    ``port`` are known before :meth:`start`); the event loop runs in
    one daemon thread, and an owner may run tasks of its own on
    :attr:`loop` — :meth:`stop` cancels and awaits them.
    """

    def __init__(self, config, on_hello: OnHello,
                 counter: Optional[Counter] = None) -> None:
        self.config = config
        self.on_hello = on_hello
        self.counter = counter if counter is not None else (lambda name: None)
        self.heartbeat: Optional[float] = getattr(config, "heartbeat", None)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.bind((config.host, config.port))
        sock.listen(BACKLOG)
        sock.setblocking(False)
        self._sock = sock
        self.host, self.port = sock.getsockname()[:2]
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.draining = False
        # Loop-thread-only state: insertion-ordered connection sets
        # (dict-as-ordered-set), so "oldest idle" is the first key.
        self._conns: Dict[_EdgeConnection, None] = {}
        self._idle: Dict[_EdgeConnection, None] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._ready = threading.Event()
        self._stopped = False
        self._pressure = 0

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=HANDSHAKE_WORKERS,
            thread_name_prefix="serve-edge-hs",
        )
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-edge", daemon=True
        )
        self._thread.start()
        self._ready.wait()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self.loop = loop
        try:
            self._server = loop.run_until_complete(
                loop.create_server(
                    lambda: _EdgeConnection(self),
                    sock=self._sock,
                    backlog=BACKLOG,
                )
            )
            self._ready.set()
            loop.run_forever()
            self._drain_on_loop()
            # What the drain left is post-hello and owes an answer.
            for conn in list(self._conns):
                conn.transport.close()
            loop.run_until_complete(self._server.wait_closed())
            # Cancel every task an owner still has on the loop and
            # await it: a task still pending when the loop closes is
            # destroyed with a warning and never runs its cleanup.
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:  # an empty gather looks up the *current* loop
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            self._ready.set()  # unblock start() if create_server blew up
            loop.close()

    def begin_drain(self) -> None:
        """Stop accepting and reject every not-yet-admitted connection
        with a structured ``draining`` welcome.  Idempotent; safe from
        any thread; synchronous (pending handshakes are answered by
        the time this returns)."""
        self.draining = True
        loop = self.loop
        if loop is None or not loop.is_running():
            return
        done = threading.Event()

        def _drain() -> None:
            try:
                self._drain_on_loop()
            finally:
                done.set()

        loop.call_soon_threadsafe(_drain)
        done.wait(timeout=5.0)

    def _drain_on_loop(self) -> None:
        self.draining = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            if conn.state != "open":
                conn.reject_draining()

    def stop(self) -> None:
        """Drain, close what owners have yet to answer, cancel and await
        their tasks, stop the loop, join the thread and the executor."""
        if self._stopped:
            return
        self._stopped = True
        self.begin_drain()
        loop = self.loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._thread is None:
            # Never started: the bound socket is still ours to close.
            self._sock.close()

    # -- overload / backoff -------------------------------------------

    def retry_after(self, pressure: bool = False) -> float:
        """Exponential-backoff guidance for reject payloads.

        Each overload event doubles the suggested delay (capped at
        5 s); the streak resets once the connection table drops below
        half capacity.  Non-pressure rejects suggest the floor.
        """
        if pressure:
            self._pressure = min(self._pressure + 1, 7)
        elif len(self._conns) < self.config.max_connections // 2:
            self._pressure = 0
        return round(min(5.0, 0.1 * (2 ** self._pressure)), 3)

    def _shed_one(self) -> bool:
        for conn in list(self._idle):
            conn.shed()
            return True
        return False

    # -- handoff ------------------------------------------------------

    def _submit(self, handler: HelloHandler, sock: socket.socket,
                hello: dict, leftover: bytes) -> None:
        try:
            self._executor.submit(
                self._run_handler, handler, sock, hello, leftover)
        except RuntimeError:
            sock.close()  # drain raced the handoff; the client redials

    def _run_handler(self, handler: HelloHandler, sock: socket.socket,
                     hello: dict, leftover: bytes) -> None:
        link = TcpLink.from_fd(sock.detach())
        try:
            handler(link, hello, leftover)
        except Exception:
            # Hostile or unlucky input must never take down the edge;
            # the admission path already answered (or the peer is
            # gone) — drop the connection and move on.
            link.close()

    # -- introspection ------------------------------------------------

    def connection_counts(self) -> Dict[str, int]:
        """Loop-thread-unsafe approximate counts (stats only)."""
        return {"open": len(self._conns), "idle": len(self._idle)}
