"""`repro.serve`: a long-lived multi-session garbling server.

One :class:`GarbleServer` owns the garbler role for many concurrent
evaluator sessions.  The paper's premise — a fixed public circuit
garbled afresh per private input — makes one garbler loop the serving
unit, and there is exactly one: :func:`repro.serve.worker.worker_main`.
This module is the *parent* of N such workers: it terminates hellos,
admits sessions, hands each to an idle worker and books its outcome.

Architecture::

    AsyncEdge (1 loop thread) ── hello parsed off-loop, per-state
         │                       deadlines, structured rejects
         │   new session ──> reserve ──> answer ──> commit
         │                  (no room:   (welcome;   idle worker? run + fd
         │                   "busy")    fails ->    else wait in a deque
         │                              release)    for the next free one
         │   reconnect ───── fd passed (SCM_RIGHTS) ──────────> workers
         │   stats probe ──> snapshot reply, close             (1 session
         └── result probe / redial of finished session          at a time)
                  └──> replay buffer (bounded, TTL'd)

* **One worker, two ways to start it** — every worker runs
  ``worker_main`` at the far end of an AF_UNIX control channel
  (:mod:`repro.serve.ipc`) and speaks one message protocol:
  ``run``/``link``/``handoff``/``handoff-release``/``stop`` down,
  ``ready``/``done``/``failed``/``handed-off``/``material`` up; every
  (re)connected socket crosses as a file descriptor via
  ``socket.send_fds``.  Each worker records its own residual traces
  and builds its own material caches.  ``pool="process"`` starts it in
  a forkserver process (garbling runs on ``min(workers, cores)``
  cores); ``pool="thread"`` starts the *same function* in a
  ``threading.Thread`` of this process, handing it by reference only
  ``obs``.  The thread kind is not a second implementation:
  it exists because unpicklable programs (callable bit sources) and an
  un-spawnable ``__main__`` are supported inputs only threads can run
  (``pool="auto"`` picks it for exactly those).  Past
  :meth:`GarbleServer._resolve_pool` the kind is consulted only where
  a worker is spawned or joined, and in the stats echo.
* **Admission control** — reserve, answer, commit
  (:meth:`GarbleServer._admit`).  *Reserve*: under the server lock a
  new session is registered iff the sessions no worker has been handed
  yet are fewer than ``queue_depth`` plus the idle workers; otherwise
  the hello gets an immediate structured ``{"status": "busy", ...}``
  welcome and the connection is closed.  *Answer*: the welcome is
  written; a client that vanished mid-handshake releases the
  reservation, and nothing else ever knew of the session.  *Commit*:
  only now is the session counted ``accepted`` and handed, link and
  all, to an idle worker by the handshake thread — or left in a deque
  for the next worker to report ``ready`` or an outcome
  (:meth:`GarbleServer._pair`).  Reconnects for live sessions bypass
  admission; every hello naming a session is answered from one table,
  ``_ANSWERS``.
* **Session lifecycle** — the worker runs each admitted session as a
  :class:`~repro.net.session.ResumableSession` around a garbler party.
  A dropped evaluator redials the same server, names its session id in
  the hello, and the parent passes the fresh socket to the owning
  worker, which resumes against the checkpoints it holds.  Every
  terminal outcome — done, failed, handed off, worker died — is booked
  by :meth:`GarbleServer._book`: state flip, terminal counter, ring
  record and drain accounting move together, so a finished-counter
  observation implies the finished state is visible, and ``accepted
  + adopted == completed + failed + handed_off + open``.
* **Stats** — the parent is the only bookkeeper: one counter dict
  under one lock (:class:`ServeStats`), moved from the messages the
  workers send (``ready`` and ``material`` carry the epochs garbled
  offline, each outcome its material hit or miss).  Per-session
  records come back in the outcome message into the parent's ring and
  the obs layer (``serve.*`` counters, ``serve-session`` trace
  events), and are served over the wire to any ``op: "stats"`` hello.
* **Drain** — :meth:`GarbleServer.shutdown` (wired to SIGTERM/SIGINT
  by the CLI) drains the edge (stops accepting; every connection that
  had not been admitted yet — including one still mid-hello — gets a
  structured ``draining`` reject instead of a hang), waits on a
  condition variable for the open-session count — raised by a
  reservation, lowered only by ``_book`` or the release — to reach
  zero (a hard stop first books the sessions still waiting as
  failed), then stops the workers.
* **Result replay** — every finished session's decoded output is
  parked in a bounded TTL'd :class:`~repro.serve.replay.ReplayBuffer`
  keyed by session id + evaluator identity; a client that died after
  the final frame redials (or sends ``op: "result"``) and recovers
  its result bit-identically instead of an ``already finished``
  dead end.
* **Per-session garbler inputs** — a program built with
  ``alice_by_key`` lets each hello pick its garbler operand by key
  (``garbler_key``), turning one :class:`ServeProgram` into a keyed
  lookup service instead of a single fixed operand.
"""

from __future__ import annotations

import os
import pickle
import socket as socket_mod
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..circuit.netlist import Netlist
from ..gc.channel import ChannelClosed, ChannelTimeout, FrameCorruption
from ..gc.ot import BaseOTCache
from ..net.links import Link, LinkClosed, LinkTimeout, PrefacedLink
from ..net.session import SessionResult, net_digest
from ..net.tcp import TcpLink, connect_with_backoff
from ..obs import NULL_OBS
from .config import ServeConfig
from .edge import AsyncEdge
from .fleet import aggregate_shard_stats, rendezvous_select
from .handshake import HELLO, WELCOME, recv_control, send_control
from .ipc import IpcClosed, MsgChannel
from .replay import DENIED, HIT, ReplayBuffer
from .worker import session_record, worker_main

BitSource = Union[Sequence[int], Callable[[int], Sequence[int]]]

#: set_forkserver_preload must happen before the forkserver boots;
#: guard so repeated server construction doesn't re-set it.
_FORKSERVER_PRELOADED = False


def _forkserver_context():
    import multiprocessing as mp

    global _FORKSERVER_PRELOADED
    ctx = mp.get_context("forkserver")
    if not _FORKSERVER_PRELOADED:
        try:
            ctx.set_forkserver_preload(["repro.serve.worker"])
        except Exception:
            # Forkserver already running (or transiently unable to take
            # the preload): workers import lazily.  Do NOT latch the
            # flag — a later fresh forkserver context should retry the
            # preload instead of silently never getting it.
            pass
        else:
            _FORKSERVER_PRELOADED = True
    return ctx


def _main_module_spawnable() -> bool:
    """Whether worker processes can boot in this interpreter.

    Spawn/forkserver re-prepare ``__main__`` in the child from its
    module name or file path; a ``__main__`` that is neither (a stdin
    script, some embedded interpreters) makes every worker die during
    bootstrap, so ``pool="auto"`` must fall back to threads.
    """
    import sys

    main = sys.modules.get("__main__")
    if main is None:
        return True
    if getattr(getattr(main, "__spec__", None), "name", None):
        return True
    path = getattr(main, "__file__", None)
    if path is None:
        return True  # interactive: nothing to re-run, spawn skips it
    return os.path.exists(path)


@dataclass(frozen=True)
class ServeProgram:
    """One program the server is willing to garble.

    The server plays Alice, so the program bundles the circuit with
    the garbler-side inputs; the evaluator brings only its own private
    bits.  ``net`` is shared by every session over this program —
    nothing mutates the netlist, and the plan and residual-trace caches
    are thread-safe — which is exactly what makes N sessions pay one
    trace build per process.
    """

    net: Netlist
    cycles: int
    alice: BitSource = ()
    alice_init: Sequence[int] = ()
    public: BitSource = ()
    public_init: Sequence[int] = ()
    #: Optional per-session garbler inputs: a hello carrying
    #: ``garbler_key`` selects its operand from this table instead of
    #: the fixed ``alice`` source (a keyed lookup service rather than
    #: one operand for everybody).  Keyed sessions garble fresh — the
    #: recorded material transcripts bind the default operand.
    alice_by_key: Optional[Dict[str, BitSource]] = None


def registry_program(name: str, value: int = 0) -> ServeProgram:
    """Build a :class:`ServeProgram` from the bench-circuit registry
    (the same registry ``python -m repro party`` serves), with
    ``value`` as the garbler operand."""
    from ..net.cli import _registry

    entry = _registry()[name]
    net, cycles = entry.build()
    return ServeProgram(
        net=net, cycles=cycles, alice=entry.alice_source(value, cycles)
    )


def registry_keyed_program(
    name: str,
    values: Dict[str, int],
    value: int = 0,
) -> ServeProgram:
    """A registry program whose garbler operand is selected per
    session: a hello with ``garbler_key: k`` computes against
    ``values[k]``; a hello without a key uses ``value``."""
    from ..net.cli import _registry

    entry = _registry()[name]
    net, cycles = entry.build()
    return ServeProgram(
        net=net,
        cycles=cycles,
        alice=entry.alice_source(value, cycles),
        alice_by_key={
            k: entry.alice_source(v, cycles) for k, v in values.items()
        },
    )


#: The serve counters, in snapshot order.
STAT_FIELDS = (
    "accepted",
    "rejected_busy",
    "rejected_error",
    "completed",
    "failed",
    "active",
    "stats_probes",
    "material_epochs",   # delta epochs garbled offline (prewarm + refill)
    "material_hits",     # sessions served from pre-garbled material
    "material_misses",   # sessions that garbled material synchronously
    "rejected_overload",  # connections refused at max_connections
    "handshake_rejects",  # malformed/truncated/oversized/timed-out hellos
    "handshake_timeouts",  # hellos that missed the handshake deadline
    "idle_timeouts",     # connections that never sent a byte in time
    "idle_shed",         # idle connections shed to admit newcomers
    "replay_hits",       # finished-session redials served from replay
    "replay_misses",     # redials whose result expired or never parked
    "handed_off",        # in-flight sessions transferred to a peer shard
    "adopted",           # sessions adopted from a draining peer shard
)


class ServeStats:
    """Serve counters plus a ring of per-session records, under one
    lock and written only by the parent.  Each counter also reads as a
    plain attribute (``stats.completed``)."""

    def __init__(self, keep_sessions: int = 64) -> None:
        self._counters = dict.fromkeys(STAT_FIELDS, 0)
        self._lock = threading.Lock()
        self._recent: "deque" = deque(maxlen=keep_sessions)

    def __getattr__(self, name: str) -> int:
        if name not in STAT_FIELDS:
            raise AttributeError(name)
        with self._lock:
            return self._counters[name]

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] += n

    def done_snapshot(self) -> int:
        """``completed + failed`` as one atomic read (the
        ``max_sessions`` trigger must not see a torn pair)."""
        with self._lock:
            return self._counters["completed"] + self._counters["failed"]

    def record_session(self, record: dict) -> None:
        with self._lock:
            self._recent.append(dict(record))

    def snapshot(self) -> dict:
        """Codec-safe snapshot (ints / strings / lists / dicts only)."""
        with self._lock:
            snap = dict(self._counters)
            snap["sessions"] = [dict(r) for r in self._recent]
        return snap


#: Finished sessions the registry keeps.  Their only use is to answer
#: a late redial "already finished" rather than re-run it; older ones
#: are evicted first, and an evicted id is one this shard never saw.
#: The default ``replay_capacity``: by then a session's parked result
#: has normally gone the same way.
FINISHED_SESSIONS_KEPT = 256

#: Terminal session states and the counter each one moves.
_TERMINAL = {"done": "completed", "failed": "failed",
             "handed-off": "handed_off"}

#: The answer to a hello that names a session: one row per state this
#: shard holds the session in (``None``: never admitted here), one
#: column per hello kind — session (re)dial, ``op: "result"`` probe.
#: ``result`` is ``unknown-session`` when nothing replayable is parked.
_ANSWERS = {
    None: ("admit", "result"),
    "queued": ("resume", "pending"),
    "active": ("resume", "pending"),
    "done": ("result", "result"),
    "failed": ("result", "result"),
    "handed-off": ("moved", "moved"),
}


@dataclass
class _ServeSession:
    """Parent-side record of one evaluator session.  The session
    itself — party, checkpoints, link mailbox — lives in its worker."""

    id: str
    program: str
    prog: ServeProgram
    #: queued -> active -> done | failed | handed-off.
    state: str = "queued"
    result: Optional[SessionResult] = None
    error: Optional[BaseException] = None
    #: Index of the worker running this session (None until one is
    #: committed to it).
    owner: Optional[int] = None
    #: Client identity from the hello (material epoch audit trail and
    #: base-OT cache key); None for anonymous sessions.
    client: Optional[str] = None
    #: Sender-side base-OT material negotiated at welcome time (the
    #: decision is snapshotted here so welcome and ``run`` agree).
    ot_base: Optional[tuple] = None
    #: Key into the program's ``alice_by_key`` table (per-session
    #: garbler inputs); None runs the program's fixed operand.
    garbler_key: Optional[str] = None
    #: Fleet handoff: the adoption bundle an ``op: "adopt"`` hello
    #: delivered (this shard continues a session a draining peer
    #: started); rides the worker's ``run`` message.
    bundle: Optional[dict] = None
    #: Where a handed-off session went — redials of this session are
    #: answered with a ``moved`` welcome naming this (host, port).
    peer: Optional[tuple] = None
    #: ``(link, leftover)`` pairs held while the session waits for a
    #: worker (server lock); None once its worker has them — redials
    #: then go straight there — and after the session ended.
    links: Optional[List[tuple]] = field(default_factory=list)


class GarbleServer:
    """Multi-session garbling service (the garbler side, long-lived).

    Construct with the programs to serve, :meth:`start` the accept
    loop and worker pool, then either :meth:`serve_forever` (blocks
    until :meth:`request_shutdown`, e.g. from a signal handler) or
    drive clients directly in tests and call :meth:`shutdown`.

    Tuning knobs are one frozen :class:`ServeConfig` (echoed verbatim
    in every ``op: "stats"`` reply); keyword ``overrides`` name its
    fields and fold into it, so ``GarbleServer(programs, workers=2)``
    and ``GarbleServer(programs, config=ServeConfig(workers=2))`` are
    the same server.  ``pool`` selects how workers are started:
    ``"process"`` (one OS process each — true multi-core garbling),
    ``"thread"`` (the same worker in threads of this process), or
    ``"auto"`` (default: processes when the programs can cross a
    process boundary, threads otherwise).
    """

    def __init__(
        self,
        programs: Dict[str, ServeProgram],
        config: Optional[ServeConfig] = None,
        obs=NULL_OBS,
        **overrides,
    ) -> None:
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        if config.workers < 1:
            raise ValueError("workers must be >= 1")
        if config.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.programs = dict(programs)
        if not self.programs:
            raise ValueError("a server needs at least one program")
        self._replay = ReplayBuffer(
            ttl=config.replay_ttl, capacity=config.replay_capacity
        )
        #: Affinity keys: the router routes a program to shards by this
        #: digest, and a draining shard picks each session's adoption
        #: peer by the same rendezvous hash over the same key.
        self.program_digests = {
            name: net_digest(prog.net, prog.cycles)
            for name, prog in self.programs.items()
        }
        self._handoff_peers: List[tuple] = []
        #: Sender-side base-OT material per client identity, stored as
        #: ``(session id of the fresh base phase, base)`` so a hello
        #: can prove its receiver side came from that very phase.
        #: Survives worker churn — the parent owns it, workers get it
        #: in the ``run`` message and return fresh exports with ``done``.
        self._client_bases = BaseOTCache()
        self.obs = obs
        self.pool = self._resolve_pool(config.pool)
        self.stats = ServeStats()
        workers = config.workers
        #: Worker handles (``Process`` or ``Thread``) and the parent
        #: end of each one's control channel.
        self._procs: List[Optional[object]] = [None] * workers
        self._chans: List[Optional[MsgChannel]] = [None] * workers
        #: Workers that completed their pre-warm at least once; a
        #: worker dying *before* ready means spawning is broken in
        #: this environment, and respawning would loop forever.
        self._worker_ready: List[bool] = [False] * workers
        self._edge = AsyncEdge(config, self._on_hello, counter=self._count)
        self.host, self.port = self._edge.host, self._edge.port
        self._sessions: Dict[str, _ServeSession] = {}
        #: Ids of the booked sessions still in ``_sessions``, oldest first.
        self._finished: "deque[str]" = deque()
        self._lock = threading.Lock()
        #: Admission state, all under ``_lock``.  ``_open``: sessions
        #: reserved and not yet booked — the drain barrier, waited on
        #: through ``_drained``.  ``_unplaced``: those of them no worker
        #: has been handed yet (welcome in flight, or in ``_waiting``).
        #: ``_waiting`` and ``_idle_workers`` are never both non-empty.
        self._drained = threading.Condition(self._lock)
        self._open = 0
        self._unplaced = 0
        self._waiting: "deque[_ServeSession]" = deque()
        self._idle_workers: "deque[int]" = deque()
        self._busy_streak = 0
        self._draining = False
        self._stopped = False
        self._shutdown_requested = threading.Event()
        self._threads: List[threading.Thread] = []
        self._started = False

    def _resolve_pool(self, pool: str) -> str:
        if pool == "thread":
            return "thread"
        if pool not in ("auto", "process"):
            raise ValueError(
                f"unknown pool {pool!r} (use 'auto', 'process' or 'thread')"
            )
        try:
            pickle.dumps(self.programs)
        except Exception as exc:
            if pool == "process":
                raise ValueError(
                    "pool='process' needs picklable programs (callable "
                    f"bit sources cannot cross the process boundary): {exc}"
                ) from exc
            return "thread"
        if not _main_module_spawnable():
            if pool == "process":
                raise ValueError(
                    "pool='process' cannot boot workers: __main__ is not "
                    "importable (run from a file or module, or use "
                    "pool='thread')"
                )
            return "thread"
        try:
            _forkserver_context()
        except Exception:
            if pool == "process":
                raise
            return "thread"
        return "process"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "GarbleServer":
        if self._started:
            return self
        self._started = True
        self._edge.start()
        for i in range(self.config.workers):
            self._spawn_worker(i)
        return self

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to drain and exit (signal-safe)."""
        self._shutdown_requested.set()

    def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown`, then drain and stop."""
        self._shutdown_requested.wait()
        self.shutdown(drain=True)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the server.

        ``drain=True`` (graceful, the SIGTERM path): stop accepting,
        let queued and active sessions run to completion, then stop
        the workers.  ``drain=False``: additionally fail the sessions
        still waiting for a worker (booked like any other failure;
        their evaluators see EOF); active sessions still finish.
        """
        with self._lock:
            if self._stopped:
                return
            self._draining = True
        # Drain the edge first: stops accepting and answers every
        # connection still pre-admission (even mid-hello) with a
        # structured "draining" reject — no stalled-client hang.
        self._edge.begin_drain()
        if not drain:
            with self._lock:
                discarded = list(self._waiting)
                self._waiting.clear()
                self._unplaced -= len(discarded)
            for sess in discarded:
                self._book(sess, "failed",
                           error=ChannelClosed("server shut down"))
        # One count from reservation to `_book` (or the release): no
        # gap between "left the waiting line" and "running".
        with self._drained:
            self._drained.wait_for(lambda: not self._open, timeout)
        chans = [chan for chan in self._chans if chan is not None]
        procs = [proc for proc in self._procs if proc is not None]
        for chan in chans:
            try:
                chan.send({"type": "stop"})
            except IpcClosed:
                pass
        for proc in procs:
            proc.join(timeout=10.0)
        for chan in chans:
            chan.close()
        if self.pool == "process":
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
        for t in self._threads:
            t.join(timeout=10.0)
        self._edge.stop()
        with self._lock:
            self._stopped = True
        self._shutdown_requested.set()
        if self.obs.enabled:
            self.obs.event("serve-shutdown", **self.counters())

    def __enter__(self) -> "GarbleServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=True)

    # -- introspection -------------------------------------------------------

    def counters(self) -> dict:
        snap = self.stats.snapshot()
        del snap["sessions"]
        return snap

    def stats_snapshot(self) -> dict:
        config = self.config
        snap = self.stats.snapshot()
        snap.update(
            queued=self._unplaced,
            queue_depth=config.queue_depth,
            workers=config.workers,
            pool=self.pool,
            draining=self._draining,
            programs=sorted(self.programs),
            handshake_timeout=config.handshake_timeout,
            idle_timeout=config.idle_timeout,
            replay_ttl=config.replay_ttl,
            replay_buffered=len(self._replay),
            max_connections=config.max_connections,
            fleet=config.fleet,
            config=config.to_dict(),
            program_digests=dict(self.program_digests),
        )
        return snap

    def fleet_stats_snapshot(self) -> dict:
        """Single-shard answer to ``op: "fleet-stats"``: the same shape
        the router aggregates, with this shard as the only member."""
        snap = self.stats_snapshot()
        return {
            "router": None,
            "shards": [{
                "id": f"{self.host}:{self.port}",
                "healthy": True,
                "draining": bool(snap.get("draining")),
                "stats": snap,
            }],
            "aggregate": aggregate_shard_stats([snap]),
        }

    def session_result(self, session_id: str) -> Optional[SessionResult]:
        with self._lock:
            sess = self._sessions.get(session_id)
        return None if sess is None else sess.result

    # -- accept path ---------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        """Move one ``STAT_FIELDS`` counter and its ``serve.*`` obs
        twin together (also the edge's counter hook, where it runs on
        the loop thread)."""
        self.stats.bump(name, n)
        if self.obs.enabled:
            self.obs.inc(f"serve.{name}", n)

    def _on_hello(self, conn, hello: dict, leftover: bytes) -> None:
        """Edge callback (loop thread).  Admission blocks — on the
        server lock, on the welcome send — so the socket leaves the
        loop and :meth:`_edge_handshake` runs on the edge's executor."""
        conn.detach(self._edge_handshake, hello, leftover)

    def _edge_handshake(self, link: TcpLink, hello: dict,
                        leftover: bytes) -> None:
        """Detach handler: a fully parsed hello arriving off the loop.

        The welcome-ack deadline is a socket-level send timeout — a
        client that stops reading before its welcome turns into
        ``LinkClosed`` on the send, which releases the reservation,
        instead of a stuck handshake thread."""
        link.settimeout(self.config.handshake_timeout)
        try:
            self._complete_handshake(link, hello, leftover)
        except (ChannelClosed, ChannelTimeout, FrameCorruption,
                LinkClosed, LinkTimeout, OSError):
            link.close()

    def _answer(self, link: Link, welcome: dict) -> None:
        """One-shot reply: the welcome is the whole conversation."""
        send_control(link, WELCOME, welcome)
        link.close()

    def _reject_error(self, link: Link, reason: str, **extra) -> None:
        self._count("rejected_error")
        self._answer(link, {"status": "error", "reason": reason, **extra})

    def _reject_busy(self, link: Link, status: str, reason: str,
                     **extra) -> None:
        self._count("rejected_busy")
        self._answer(link, {
            "status": status, "reason": reason,
            "retry_after_s": self._retry_after(grew=True), **extra})

    def _retry_after(self, grew: bool) -> float:
        """Backoff guidance for busy/draining rejects: doubles with
        each consecutive reject, resets when admission succeeds."""
        with self._lock:
            if grew:
                self._busy_streak = min(self._busy_streak + 1, 8)
            streak = self._busy_streak
        return round(min(10.0, 0.1 * (2 ** max(streak - 1, 0))), 3)

    def _complete_handshake(self, link: Link, hello: dict,
                            leftover: bytes) -> None:
        op = hello.get("op", "session")
        if op == "stats":
            self._count("stats_probes")
            self._answer(link, {"status": "stats",
                                "stats": self.stats_snapshot()})
            return
        if op == "fleet-stats":
            self._count("stats_probes")
            self._answer(link, {"status": "fleet-stats",
                                **self.fleet_stats_snapshot()})
            return
        if op in ("drain", "adopt") and not self.config.fleet:
            self._reject_error(
                link, f"op {op!r} needs fleet mode (start the server "
                      "with fleet=True / --fleet)")
            return
        if op == "drain":
            try:
                handoffs = self.drain_handoff(hello.get("peers") or [])
            except (TypeError, ValueError):
                self._reject_error(
                    link, "drain peers must be [host, port] pairs")
                return
            self._answer(link, {"status": "ok", "draining": True,
                                "handoffs": handoffs})
            return
        sid = hello.get("session")
        name = hello.get("program")
        if not isinstance(sid, str) or not sid:
            self._reject_error(link, "hello carries no session id")
            return
        if op == "adopt":
            self._handle_adopt(link, hello, leftover, sid, name)
            return
        # Snapshot the session under the lock: `_book` transitions
        # sessions to done/failed under this same lock, so the routing
        # decision below never reads a torn state (an unlocked read
        # could welcome a redial into a session that sealed a
        # microsecond later).
        probe = op == "result"
        with self._lock:
            sess = self._sessions.get(sid)
            state, program, peer = (
                (None, name, None) if sess is None
                else (sess.state, sess.program, sess.peer))
        if not probe and program != name:
            self._reject_error(
                link, f"session {sid!r} is bound to program {program!r}")
            return
        answer = _ANSWERS[state][probe]
        if answer == "admit":
            self._new_session(link, hello, leftover, sid, name)
        elif answer == "resume":
            if self.obs.enabled:
                self.obs.inc("serve.reconnects")
            # Welcome first, then feed the link: the worker writes to
            # the socket the moment it sees the link, and the welcome
            # must be the first thing the client reads.
            send_control(link, WELCOME, self._welcome(sess, resumed=True))
            self._deliver_link(sess, link, leftover)
        elif answer == "pending":
            # Still running: the probe retries, it never (re)joins.
            self._answer(link, {
                "status": answer, "session": sid, "state": state,
                "retry_after_s": self._retry_after(grew=False)})
        elif answer == "moved":
            # Drain-time handoff: the session now lives on a peer
            # shard.  Tell the evaluator where so it can redial there
            # and resume — this is what makes handoff work even
            # without a router in front.
            self._answer(link, {"status": answer, "session": sid,
                                "program": program, "peer": list(peer)})
        else:
            self._answer_result(link, hello, sid, state, program)

    def _new_session(self, link: Link, hello: dict, leftover: bytes,
                     sid: str, name) -> None:
        """A hello naming a session this shard has never seen: build
        its welcome, then :meth:`_admit` it — link and all — or reject."""
        prog = self._served_program(link, name)
        if prog is None:
            return
        sess = _ServeSession(id=sid, program=name, prog=prog)
        client = hello.get("client")
        if isinstance(client, str) and client:
            sess.client = client
        welcome = self._welcome(sess, resumed=False)
        gkey = hello.get("garbler_key")
        if gkey is not None:
            table = prog.alice_by_key or {}
            if not isinstance(gkey, str) or gkey not in table:
                self._reject_error(
                    link, f"unknown garbler key {gkey!r} for program "
                          f"{name!r}", garbler_keys=sorted(table))
                return
            sess.garbler_key = welcome["garbler_key"] = gkey
        # Base-OT reuse negotiation: a returning client advertises the
        # session id whose fresh base phase produced the receiver
        # material it holds ("base_ot" in the hello) and gets "cached"
        # back iff the sender side stored here came from that same
        # phase; anything else — nothing stored, or a base from a
        # session this client ran against another shard or endpoint in
        # between — answers "fresh" and both sides run the base phase
        # again.  Decided here, snapshotted on the session, so the
        # welcome and the worker's ``run`` message agree even if the
        # cache churns.
        stored = self._client_bases.get(sess.client)
        if stored is not None and stored[0] == hello.get("base_ot"):
            sess.ot_base = stored[1]
        welcome["base_ot"] = "cached" if sess.ot_base is not None else "fresh"
        if self._admit(sess, link, welcome, "accepted"):
            self._deliver_link(sess, link, leftover)

    def _welcome(self, sess: _ServeSession, resumed: bool) -> dict:
        """The welcome that (re)joins an evaluator to ``sess``."""
        return {"status": "ok", "session": sess.id, "program": sess.program,
                "cycles": sess.prog.cycles, "resumed": resumed,
                "checkpoint_every": self.config.checkpoint_every}

    def _served_program(self, link: Link, name) -> Optional[ServeProgram]:
        """The served program a new or adopted session names, or None
        after the structured reject."""
        prog = self.programs.get(name)
        if prog is None:
            self._reject_error(link, f"unknown program {name!r}",
                               programs=sorted(self.programs))
        return prog

    def _admit(self, sess: _ServeSession, link: Link, welcome: dict,
               counter: str) -> bool:
        """Reserve -> answer -> commit for a new or adopted session;
        False once rejected (draining, no room) or released (sender
        gone)."""
        with self._lock:
            draining, queued = self._draining, self._unplaced
            admitted = not draining and queued < (
                self.config.queue_depth + len(self._idle_workers))
            if admitted:
                self._sessions[sess.id] = sess
                self._unplaced += 1
                self._open += 1
                self._busy_streak = 0
        if draining:
            self._reject_busy(link, "draining", "server is draining")
            return False
        if not admitted:
            self._reject_busy(
                link, "busy", "accept queue is full",
                active=self.stats.active, queued=queued,
                queue_depth=self.config.queue_depth)
            return False
        # No worker can learn of the session before its welcome is
        # written, so a sender that vanished in between costs this
        # reservation and nothing else: no resume window waited out,
        # no delta epoch spent, and the id is free to be dialled again.
        try:
            send_control(link, WELCOME, welcome)
        except (ChannelClosed, LinkClosed, OSError):
            with self._drained:
                self._sessions.pop(sess.id, None)
                self._unplaced -= 1
                self._open -= 1
                self._drained.notify_all()
                # A redial may have found the id in the meantime.
                staged, sess.links = sess.links, None
            link.close()
            for held, _leftover in staged:
                held.close()
            return False
        self._count(counter)
        self._pair(sess=sess)
        return True

    def _answer_result(self, link: Link, hello: dict, sid: str, state,
                       program) -> None:
        """Asking after a finished session is the replay path — the
        client most likely died after the final frame and wants its
        result back, not a re-run: the parked result, a structured
        denial on an evaluator identity mismatch, or ``unknown-session``."""
        status, entry = self._replay.fetch(sid, hello.get("client"))
        if status == HIT:
            self._count("replay_hits")
            self._answer(link, {"status": "result", "session": sid,
                                "program": program, **entry.payload})
            return
        self._count("replay_misses")
        if status == DENIED:
            self._reject_error(
                link, f"session {sid!r} already finished; result replay "
                      "denied: evaluator identity does not match")
            return
        finished = f"already finished ({state})" if state else "not known here"
        self._reject_error(
            link, f"session {sid!r} {finished}; no replayable result",
            status="unknown-session")

    def _deliver_link(self, sess: _ServeSession, link: Link,
                      leftover: bytes) -> None:
        """Route a (re)connected link to its session: held on the
        session while it waits for a worker, fd-passed to the worker
        once one has it, closed if the session ended meanwhile."""
        with self._lock:
            if sess.links is not None:
                sess.links.append((link, leftover))
                return
            owner = sess.owner if sess.state == "active" else None
        if owner is None:
            link.close()
        else:
            self._send_link(owner, sess.id, link, leftover)

    def _send_link(self, owner: int, sid: str, link: Link,
                   leftover: bytes) -> None:
        """fd-pass one connected socket to a worker.  ``send_fds``
        duplicates the descriptor into the message, so the parent
        detaches (not closes — ``close()`` would shut the connection
        down for the worker too) and drops its copy."""
        if isinstance(link, TcpLink):
            fd = link.detach()
        else:  # pragma: no cover - accept loop only produces TcpLinks
            link.close()
            return
        try:
            self._chans[owner].send(
                {"type": "link", "session": sid, "preface": leftover},
                fds=[fd],
            )
        except IpcClosed:
            pass  # worker died; _on_worker_exit fails the session
        finally:
            os.close(fd)

    # -- fleet: drain-time session handoff -----------------------------------

    def drain_handoff(self, peers: Sequence[tuple]) -> int:
        """Begin a soft drain, handing active sessions to peer shards.

        Marks the server draining at the *admission* level only — new
        sessions are rejected with the structured ``draining`` welcome,
        but the edge keeps accepting connections so reconnects, result
        probes and ``moved`` redirects still flow (a hard edge drain
        would strand the evaluators we are about to redirect).  Every
        active session's worker is signalled to stop at its next
        checkpoint boundary; each interrupted session's bundle is
        shipped to the peer that the rendezvous hash owns for its
        program digest — the same hash the router uses, so routing and
        handoff agree.  Returns the number of sessions signalled
        (sessions that finish before their next boundary simply
        complete here).
        """
        cleaned = []
        for h, p in peers:
            addr = (str(h), int(p))
            if addr != (self.host, self.port):
                cleaned.append(addr)
        with self._lock:
            self._draining = True
            self._handoff_peers = cleaned
            active = [s for s in self._sessions.values()
                      if s.state == "active"]
        if self.obs.enabled:
            self.obs.inc("serve.drains")
        if not cleaned:
            return 0
        signalled = 0
        for sess in active:  # active: a worker owns it (see _pair)
            try:
                self._chans[sess.owner].send(
                    {"type": "handoff", "session": sess.id})
            except IpcClosed:
                continue
            signalled += 1
        return signalled

    def _handle_adopt(self, link: Link, hello: dict, leftover: bytes,
                      sid: str, name) -> None:
        """``op: "adopt"``: a draining peer hands over a mid-session
        checkpoint bundle.

        Three-phase exchange: the small hello is answered with an
        ``adopt-send`` welcome (the hello parser's byte cap is far
        below a material bundle, so the bundle cannot ride the hello),
        the peer then ships the pickled bundle as one ordinary control
        frame (the frame layer's cap applies), and the final welcome
        confirms the session is registered *before* the peer releases
        the evaluator — whose instant redial must never beat the
        bundle here.
        """
        prog = self._served_program(link, name)
        if prog is None:
            return
        if hello.get("digest") != self.program_digests[name]:
            self._reject_error(
                link, f"program {name!r} digest mismatch (fleet shards "
                      "must serve identical netlists)")
            return
        with self._lock:
            known = sid in self._sessions
        if known:
            self._reject_error(link, f"session {sid!r} already exists here")
            return
        send_control(link, WELCOME, {"status": "adopt-send",
                                     "session": sid})
        chan = PrefacedLink(link, leftover) if leftover else link
        tag, blob, _rest = recv_control(
            chan, timeout=max(self.config.handshake_timeout, 10.0)
        )
        if tag != "serve-bundle" or not isinstance(blob, (bytes, bytearray)):
            self._reject_error(
                link, f"expected a serve-bundle frame, got {tag!r}")
            return
        try:
            bundle = pickle.loads(bytes(blob))
        except Exception:
            self._reject_error(link, "adoption bundle did not unpickle")
            return
        if (not isinstance(bundle, dict)
                or bundle.get("session") != sid
                or bundle.get("program") != name):
            self._reject_error(
                link, "adoption bundle does not match its hello")
            return
        sess = _ServeSession(id=sid, program=name, prog=prog)
        client = bundle.get("client")
        if isinstance(client, str) and client:
            sess.client = client
        gkey = bundle.get("garbler_key")
        if isinstance(gkey, str):
            sess.garbler_key = gkey
        base = bundle.get("ot_base")
        if base is not None:
            sess.ot_base = tuple(base)
        sess.bundle = bundle
        # A confirm that never arrives releases the reservation like
        # any failed welcome: the peer books the handoff as failed and
        # never releases the evaluator toward us.
        if self._admit(sess, link, {"status": "ok", "adopted": True,
                                    "session": sid}, "adopted"):
            link.close()

    def _adopt_on_peer(self, host: str, port: int, bundle: dict) -> bool:
        """Dialer side of the adoption exchange (see
        :meth:`_handle_adopt` for the three phases).  True iff the peer
        confirmed it registered the session."""
        try:
            blob = pickle.dumps(bundle)
        except Exception:
            return False
        link = None
        timeout = self.config.handshake_timeout
        try:
            link = connect_with_backoff(host, port, attempts=3)
            send_control(link, HELLO, {
                "op": "adopt",
                "session": bundle["session"],
                "program": bundle["program"],
                "digest": bundle["digest"],
                "client": bundle.get("client"),
                "size": len(blob),
            })
            tag, welcome, leftover = recv_control(link, timeout=timeout)
            if (tag != WELCOME or not isinstance(welcome, dict)
                    or welcome.get("status") != "adopt-send"):
                return False
            chan = PrefacedLink(link, leftover) if leftover else link
            send_control(chan, "serve-bundle", blob)
            tag, welcome, _rest = recv_control(
                chan, timeout=max(timeout, 10.0)
            )
            return (tag == WELCOME and isinstance(welcome, dict)
                    and welcome.get("status") == "ok"
                    and bool(welcome.get("adopted")))
        except (ChannelClosed, ChannelTimeout, FrameCorruption,
                LinkClosed, LinkTimeout, OSError):
            return False
        finally:
            if link is not None:
                link.close()

    # -- worker pool ---------------------------------------------------------

    def _spawn_worker(self, index: int) -> None:
        """Start ``worker_main`` at the far end of a fresh control
        channel — the one place (with the join in :meth:`shutdown`)
        where the two pool kinds differ."""
        parent_sock, child_sock = socket_mod.socketpair(
            socket_mod.AF_UNIX, socket_mod.SOCK_STREAM
        )
        chan = MsgChannel(parent_sock)
        args = (index, child_sock, self.programs, self.config)
        name = f"serve-worker-{index}"
        if self.pool == "process":
            proc = _forkserver_context().Process(
                target=worker_main, args=args, name=name, daemon=True)
            proc.start()
            child_sock.close()  # the worker holds the only live copy now
        else:
            proc = threading.Thread(
                target=worker_main, args=args, name=name, daemon=True,
                kwargs={"obs": self.obs},
            )
            proc.start()
        self._procs[index] = proc
        self._chans[index] = chan
        reader = threading.Thread(
            target=self._reader_loop, args=(index, chan),
            name=f"serve-reader-{index}", daemon=True,
        )
        reader.start()
        self._threads.append(reader)

    def _reader_loop(self, index: int, chan: MsgChannel) -> None:
        """Parent-side drain of one worker's control channel."""
        while True:
            try:
                msg, fds = chan.recv()
            except IpcClosed:
                # A replaced worker's channel has no other owner.
                chan.close()
                self._on_worker_exit(index)
                return
            for fd in fds:  # pragma: no cover - workers never send fds
                os.close(fd)
            mtype = msg.get("type")
            if mtype in ("ready", "material"):
                self.stats.bump("material_epochs", msg["epochs"])
            if mtype == "ready":
                self._worker_ready[index] = True
                self._pair(index=index)
            elif mtype in ("done", "failed", "handed-off"):
                # A cached epoch consumed (hit), or one garbled on the
                # spot because the pool was empty (miss).
                hit = msg.get("material_hit")
                if hit is not None:
                    self.stats.bump(
                        "material_hits" if hit else "material_misses")
                if hit is False:
                    self.stats.bump("material_epochs")
                # A session a worker was handed never leaves the registry.
                with self._lock:
                    sess = self._sessions[msg["session"]]
                if mtype == "handed-off":
                    self._finish_handoff(index, sess, msg)
                else:
                    self._finish_session(sess, msg)
                self._pair(index=index)

    def _pair(self, sess: Optional[_ServeSession] = None,
              index: Optional[int] = None) -> None:
        """The commit point: a welcomed session (from its handshake
        thread) or a free worker (from its reader thread) joins its
        line and the heads of the two lines pair off — under one lock,
        so a session never waits while a worker idles."""
        with self._lock:
            if sess is not None:
                self._waiting.append(sess)
            else:
                self._idle_workers.append(index)
            if not (self._waiting and self._idle_workers):
                return
            sess = self._waiting.popleft()
            index = self._idle_workers.popleft()
            self._unplaced -= 1
            sess.state, sess.owner = "active", index
            self.stats.bump("active")
            # The worker is the bundle's only reader: the registry
            # must not pin a peer's whole GarbledMaterial.
            bundle, sess.bundle = sess.bundle, None
        try:
            self._chans[index].send({"type": "run", "session": sess.id,
                                     "program": sess.program,
                                     "client": sess.client,
                                     "ot_base": sess.ot_base,
                                     "garbler_key": sess.garbler_key,
                                     "bundle": bundle})
        except IpcClosed:
            # Worker died between going idle and the handoff; fail
            # the session (the evaluator redials into an error).
            self._book(sess, "failed",
                       error=ChannelClosed("worker died at dispatch"))
            return
        # Redials go straight to the worker from here on; the links
        # the session collected while it waited follow its ``run``.
        with self._lock:
            links, sess.links = sess.links or (), None
        for link, leftover in links:
            self._send_link(index, sess.id, link, leftover)

    def _book(self, sess: _ServeSession, state: str,
              record: Optional[dict] = None, *, error=None, result=None,
              replay: Optional[dict] = None, peer: Optional[tuple] = None,
              flipped=None) -> None:
        """The one place a reserved session reaches a terminal state,
        so ``accepted + adopted == completed + failed + handed_off +
        open`` always holds (``open`` is ``_open``; zero after any
        :meth:`shutdown`).

        The state flip and the terminal counter move together; a
        session already terminal is left alone (a worker's death can be
        seen by both its reader and a thread sending to it).
        ``flipped`` runs once the new state is visible and before the
        outcome is counted toward the drain, which is when a handoff
        may release its evaluator."""
        with self._lock:
            if sess.state in _TERMINAL:
                return
            left_active = sess.state == "active"
            # Park before the state flips: a redial that observes the
            # finished state must find the entry already there.  The
            # payload is None when the session died before the garbler
            # ever decoded outputs — nothing to replay.
            if replay is not None and self._replay.enabled:
                self._replay.park(sess.id, sess.client, replay)
            sess.state = state
            sess.result, sess.error, sess.peer = result, error, peer
            links, sess.links = sess.links or (), None  # seal
            self._finished.append(sess.id)
            if len(self._finished) > FINISHED_SESSIONS_KEPT:
                self._sessions.pop(self._finished.popleft(), None)
        if left_active:
            self.stats.bump("active", -1)
        self._count(_TERMINAL[state])
        if flipped is not None:
            flipped()
        for link, _leftover in links:
            link.close()
        record = dict(record or session_record(sess.id, sess.program, state),
                      state=state,
                      worker=-1 if sess.owner is None else sess.owner)
        self.stats.record_session(record)
        if self.obs.enabled:
            if state == "done" and record.get("garbled_nonxor", 0) > 0:
                self.obs.inc("serve.gates", record["garbled_nonxor"])
            self.obs.event("serve-session", **record)
        with self._drained:
            self._open -= 1
            self._drained.notify_all()
        limit = self.config.max_sessions
        if limit is not None and self.stats.done_snapshot() >= limit:
            self.request_shutdown()

    def _finish_session(self, sess: _ServeSession, msg: dict) -> None:
        """Apply a worker's ``done``/``failed`` outcome."""
        ok = msg["type"] == "done"
        # A worker that ran a fresh base-OT phase exports the sender
        # side so this client's next session can reuse it.
        export = msg.get("ot_base_export")
        if ok and export is not None:
            self._client_bases.put(sess.client, (sess.id, tuple(export)))
        self._book(
            sess, "done" if ok else "failed", msg.get("record"),
            error=RuntimeError(msg["error"]) if msg.get("error") else None,
            result=msg.get("result"), replay=msg.get("replay"),
        )

    def _finish_handoff(self, index: int, sess: _ServeSession,
                        msg: dict) -> None:
        """Apply a worker's ``handed-off`` outcome.

        Picks the adoption peer by the same rendezvous hash the router
        routes with, ships the bundle, flips the session state, *then*
        releases the worker — which holds the evaluator's link open
        until release, so the evaluator's redial can only observe the
        session after the peer has it (or after it is failed).
        """
        bundle = msg["bundle"]
        with self._lock:
            peers = list(self._handoff_peers)
        ok, peer = False, None
        if peers:
            peer = rendezvous_select(bundle["digest"], peers)
            if peer is not None:
                ok = self._adopt_on_peer(peer[0], peer[1], bundle)

        def release() -> None:
            try:
                self._chans[index].send({"type": "handoff-release",
                                         "session": sess.id, "ok": ok})
            except IpcClosed:
                pass

        self._book(
            sess, "handed-off" if ok else "failed", msg.get("record"),
            error=None if ok else ChannelClosed(
                "drain handoff failed: no peer adopted the session"),
            peer=peer if ok else None, flipped=release,
        )

    def _on_worker_exit(self, index: int) -> None:
        """A worker's channel hit EOF.  After ``stop`` that is the
        normal exit; otherwise the worker died, its in-flight session
        (if any) is failed, and — unless the server is on its way
        out — the worker is replaced."""
        with self._lock:
            live = not (self._draining or self._stopped)
            owned = [s for s in self._sessions.values()
                     if s.owner == index and s.state == "active"]
            if index in self._idle_workers:
                self._idle_workers.remove(index)
        if live and self._worker_ready[index]:
            # Replace before booking: the death may be the
            # ``max_sessions``-th outcome, and the shutdown it requests
            # must find the replacement in place to stop and join it.
            self._worker_ready[index] = False
            try:
                self._spawn_worker(index)
            except Exception:  # pragma: no cover - spawn failure at exit
                pass
        for sess in owned:
            self._book(sess, "failed",
                       error=ChannelClosed("worker died mid-session"))


def make_server(
    circuits: Union[str, Sequence[str]],
    value: int = 0,
    **kwargs,
) -> GarbleServer:
    """Convenience: a server over registry circuits, all sharing one
    garbler operand.  Keyword arguments go to :class:`GarbleServer`."""
    names = [circuits] if isinstance(circuits, str) else list(circuits)
    programs = {name: registry_program(name, value) for name in names}
    return GarbleServer(programs, **kwargs)
