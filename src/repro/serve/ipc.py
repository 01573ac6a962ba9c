"""Parent <-> worker control-plane messaging with fd passing.

The serve pool (:mod:`repro.serve.server` parent,
:mod:`repro.serve.worker` workers) needs two things a plain
``multiprocessing.Queue`` cannot provide:

* **Socket handoff.**  The accept loop lives in the parent; the
  session protocol runs in a worker, normally another process.  A
  (re)connected TCP socket must therefore cross a process boundary
  *as a file descriptor* (``SCM_RIGHTS`` via
  :func:`socket.send_fds`), not as bytes — the worker then owns the
  live connection and the parent closes its copy.  (A worker started
  as a thread receives its sockets the same way; descriptor passing
  works within one process.)
* **Ordered control + data on one wire.**  Session assignment, link
  handoff, completion records and the stop sentinel must arrive in
  send order so a worker never sees a link for a session it was never
  assigned (or a stop ahead of an assignment).

:class:`MsgChannel` wraps one end of an ``AF_UNIX`` stream socketpair
with length-prefixed pickled dict messages; a message that carries
descriptors declares ``nfds`` and the descriptors ride the ancillary
data of its first byte.  Receive-side descriptors are collected in
arrival order and handed out per message, which is correct because
SCM_RIGHTS ancillary payloads never cross a ``recvmsg`` boundary into
a later segment's data.

These channels connect processes of one UID on one host (the pool is
spawned by the server itself), so pickle is an implementation detail,
not an attack surface.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import List, Sequence, Tuple

__all__ = ["IpcClosed", "MsgChannel", "channel_pair"]

_HDR = struct.Struct("<I")
_CHUNK = 1 << 16
#: Upper bound on descriptors per message (a handoff carries one).
MAX_FDS = 8


class IpcClosed(Exception):
    """The peer end of the control channel is gone (EOF or reset)."""


class MsgChannel:
    """One end of a duplex control channel carrying ``(msg, fds)``.

    ``send`` is thread-safe (the parent's handshake and reader threads
    all write to a worker's channel); ``recv`` is single-reader by
    design — each end runs exactly one reader thread.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._buf = bytearray()
        self._fds: List[int] = []
        self._closed = False

    def send(self, msg: dict, fds: Sequence[int] = ()) -> None:
        """Send one message, optionally attaching file descriptors.

        The ``nfds`` key is stamped onto the message so the receiver
        knows how many descriptors belong to it.
        """
        if fds:
            msg = dict(msg, nfds=len(fds))
        payload = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        data = _HDR.pack(len(payload)) + payload
        try:
            with self._send_lock:
                if fds:
                    # Ancillary data rides the first segment; finish the
                    # tail with plain sends if the kernel took less.
                    sent = socket.send_fds(self._sock, [data], list(fds))
                    while sent < len(data):
                        sent += self._sock.send(data[sent:])
                else:
                    self._sock.sendall(data)
        except OSError as exc:
            raise IpcClosed(str(exc)) from exc

    def recv(self) -> Tuple[dict, List[int]]:
        """Next ``(msg, fds)`` pair; raises :class:`IpcClosed` on EOF."""
        (n,) = _HDR.unpack(self._read(_HDR.size))
        msg = pickle.loads(self._read(n))
        nfds = msg.get("nfds", 0)
        # Descriptors attach to the message's own bytes, so by the time
        # the payload is fully read they have been collected; the loop
        # is a guard against a short ancillary delivery.
        while len(self._fds) < nfds:
            self._fill()
        fds, self._fds = self._fds[:nfds], self._fds[nfds:]
        return msg, fds

    def _read(self, n: int) -> bytes:
        while len(self._buf) < n:
            self._fill()
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def _fill(self) -> None:
        try:
            data, fds, _flags, _addr = socket.recv_fds(
                self._sock, _CHUNK, MAX_FDS
            )
        except OSError as exc:
            raise IpcClosed(str(exc)) from exc
        if fds:
            self._fds.extend(fds)
        if not data and not fds:
            raise IpcClosed("peer closed the control channel")
        self._buf += data

    def close(self) -> None:
        """Tear down; wakes a peer blocked in :meth:`recv` with EOF."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()


def channel_pair() -> Tuple[MsgChannel, MsgChannel]:
    """A connected (parent_end, worker_end) channel pair."""
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    return MsgChannel(a), MsgChannel(b)
