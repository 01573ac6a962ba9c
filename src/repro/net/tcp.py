"""TCP links: run the two parties as separate OS processes.

:class:`TcpLink` adapts a connected socket to the
:class:`~repro.net.links.Link` byte-pipe interface the framed
transport consumes.  :class:`TcpListener` (garbler side by
convention) stays open across the life of a session so a disconnected
evaluator can dial back in for checkpoint/resume;
:class:`TcpDialer` / :func:`connect_with_backoff` retry with
exponential backoff plus jitter so a party started slightly before its
peer — or reconnecting after a fault — does not give up or stampede.

``TCP_NODELAY`` is set on every connection: the protocol is
request/response-shaped at OT time (many small frames back and forth
per input bit) and Nagle's algorithm would serialize each round trip
against the delayed-ACK timer.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Optional, Tuple

from .links import Link, LinkClosed, LinkTimeout

_RECV_CHUNK = 1 << 16


def parse_hostport(text: str) -> Tuple[str, int]:
    """``"127.0.0.1:9200"`` -> ``("127.0.0.1", 9200)``."""
    host, _, port = text.rpartition(":")
    if not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


class TcpLink(Link):
    """A connected TCP socket as a byte pipe."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._closed = False

    @classmethod
    def from_fd(cls, fd: int) -> "TcpLink":
        """Adopt a connected-socket descriptor (e.g. one received over
        an ``SCM_RIGHTS`` handoff).  The link owns the fd from here."""
        sock = socket.socket(fileno=fd)
        sock.settimeout(None)
        return cls(sock)

    def detach(self) -> int:
        """Surrender the underlying descriptor without shutting the
        connection down.

        This is the send half of a cross-process handoff: ``close()``
        does ``shutdown(SHUT_RDWR)``, which would kill the connection
        for *every* process holding a duplicate of the fd, so a parent
        that has passed the socket to a worker must relinquish its copy
        this way instead.  The link is unusable afterwards.
        """
        self._closed = True
        return self._sock.detach()

    def settimeout(self, timeout: Optional[float]) -> None:
        """Arm a socket-level deadline for the *next* blocking call.

        ``recv_bytes`` re-arms its own timeout on every call, so the
        practical use is bounding a send against a peer that stops
        reading (e.g. the serve edge's welcome-ack deadline): a full
        send buffer turns into ``LinkClosed`` instead of a stuck
        thread.
        """
        if not self._closed:
            self._sock.settimeout(timeout)

    def send_bytes(self, data: bytes) -> None:
        if self._closed:
            raise LinkClosed("link is closed")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise LinkClosed(str(exc)) from exc

    def recv_bytes(self, timeout: Optional[float] = None) -> bytes:
        if self._closed:
            return b""
        try:
            self._sock.settimeout(timeout)
            return self._sock.recv(_RECV_CHUNK)
        except socket.timeout as exc:
            raise LinkTimeout(f"no data within {timeout}s") from exc
        except OSError:
            # Reset or concurrent local close: either way the pipe is
            # finished; EOF is the uniform signal.
            return b""

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpListener:
    """Listening socket that survives reconnects.

    The session accepts one connection at a time; after a fault it
    simply accepts again — the bound port (``.port``, useful with
    ``port=0`` for tests) does not change.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 2):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(backlog)
        self._srv = srv
        self.host, self.port = srv.getsockname()[:2]

    def accept(self, timeout: Optional[float] = None) -> TcpLink:
        try:
            self._srv.settimeout(timeout)
            sock, _addr = self._srv.accept()
        except socket.timeout as exc:
            raise LinkTimeout(f"no connection within {timeout}s") from exc
        except OSError as exc:
            raise LinkClosed(str(exc)) from exc
        sock.settimeout(None)
        return TcpLink(sock)

    # Uniform connector interface (sessions call ``connect()``).
    def connect(self, timeout: Optional[float] = None) -> TcpLink:
        return self.accept(timeout=timeout)

    def close(self) -> None:
        self._srv.close()

    def __enter__(self) -> "TcpListener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect_with_backoff(
    host: str,
    port: int,
    attempts: int = 10,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    connect_timeout: float = 5.0,
    rng: Optional[random.Random] = None,
) -> TcpLink:
    """Dial with exponential backoff and jitter.

    Sleeps ``delay * (1 + U[0,1))`` between attempts, doubling
    ``delay`` up to ``max_delay`` — full jitter keeps two parties that
    failed together from redialing in lockstep.  Raises
    :class:`LinkTimeout` after the final attempt.
    """
    rand = rng.random if rng is not None else random.random
    delay = base_delay
    last: Optional[Exception] = None
    for i in range(attempts):
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
            sock.settimeout(None)
            return TcpLink(sock)
        except OSError as exc:
            last = exc
            if i == attempts - 1:
                break
            time.sleep(delay * (1.0 + rand()))
            delay = min(delay * 2.0, max_delay)
    raise LinkTimeout(
        f"could not connect to {host}:{port} after {attempts} attempts: {last}"
    )


class TcpDialer:
    """Reconnectable dialer (evaluator side by convention)."""

    def __init__(
        self,
        host: str,
        port: int,
        attempts: int = 10,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._rng = rng

    def connect(self, timeout: Optional[float] = None) -> TcpLink:
        return connect_with_backoff(
            self.host,
            self.port,
            attempts=self.attempts,
            base_delay=self.base_delay,
            max_delay=self.max_delay,
            connect_timeout=timeout if timeout is not None else 5.0,
            rng=self._rng,
        )

    def close(self) -> None:  # symmetry with TcpListener
        pass
