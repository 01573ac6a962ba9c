"""The serve worker: one garbler loop, one pre-built trace per program.

``worker_main`` is the only place a served session runs.  The
:class:`~repro.serve.server.GarbleServer` parent starts it N times,
each at the far end of its own AF_UNIX control channel
(:class:`~repro.serve.ipc.MsgChannel`), in one of two ways that differ
in nothing but the spawn:

* ``pool="process"`` — a forkserver process (so this module is
  importable and preloadable).  The worker records each served
  program's residual trace (:mod:`repro.core.trace`; the build
  compiles the :class:`~repro.core.plan.CyclePlan` on the way) in its
  *own* interpreter and owns its own material caches; the parent's
  caches are never shared across the process boundary.
* ``pool="thread"`` — a ``threading.Thread`` of the parent process,
  for programs that cannot be pickled and a ``__main__`` that cannot
  be re-imported.  It is handed by reference what a thread cannot get
  from pickling or from its process: the programs, the counter
  block with its lock, ``obs``, and the parent-built material caches
  (one per program for the whole server, so the single-use epoch
  audit stays server-wide).  ``send_fds`` and ``TcpLink.from_fd`` work
  in-process, so sockets still arrive as descriptors.

Control flow, identical for both:

* a **reader thread** drains the control channel: ``run`` registers a
  session and enqueues it for the main loop, ``link`` adopts a
  passed-in socket fd (a fresh connect or a resume redial) and feeds
  it to the owning session's link mailbox, ``handoff`` /
  ``handoff-release`` drive drain-time handoff, ``stop`` ends the
  worker after the current session;
* the **main loop** runs one
  :class:`~repro.net.session.ResumableSession` at a time around a
  garbler party and ships the outcome (record plus the pickled
  :class:`~repro.net.session.SessionResult`) back to the parent,
  which owns all session bookkeeping.

Only the ``active`` gauge and the material counters are written here,
straight into the shared counter block — the numbers admission control
and pre-warm waits need *while* a worker runs.  Terminal counters
(``completed``/``failed``) are bumped by the parent when it books the
outcome message, keeping counter and session state transitions atomic
under the parent's lock (a client that has observed ``completed == n``
must see those n sessions as finished).

A worker process ignores ``SIGINT``: a Ctrl-C against the CLI hits the
whole process group, and shutdown must flow through the parent's drain
so in-flight sessions finish.
"""

from __future__ import annotations

import functools
import queue
import signal
import socket
import threading
from time import perf_counter
from typing import Optional

from ..circuit.bits import bits_to_int
from ..core.protocol import GarblerParty, _expand_bits
from ..core.trace import residual_trace
from ..gc.material import MaterialCache, MaterialGarblerParty
from ..gc.ot_extension import OTExtensionSender, session_salt
from ..net.links import Link, LinkClosed, LinkTimeout, PrefacedLink
from ..net.session import ResumableSession, SessionHandoff, net_digest
from ..net.tcp import TcpLink
from ..obs import NULL_OBS
from .ipc import IpcClosed, MsgChannel

__all__ = ["STAT_FIELDS", "session_record", "worker_main"]

#: Layout of the shared-memory counter block (one ``long`` per field).
#: Defined here — not in ``server`` — so the worker never imports the
#: server module (the parent imports the worker, not vice versa).
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

_IDX_ACTIVE = STAT_FIELDS.index("active")
_IDX_EPOCHS = STAT_FIELDS.index("material_epochs")
_IDX_HITS = STAT_FIELDS.index("material_hits")
_IDX_MISSES = STAT_FIELDS.index("material_misses")

_STOP = object()
_SEALED = object()


class _WorkerSession:
    """Link mailbox for one session: (re)connects are pushed by the
    reader thread and popped by the session's ``connect`` callable."""

    __slots__ = ("id", "_links", "_lock", "_sealed", "handoff", "released")

    def __init__(self, sid: str) -> None:
        self.id = sid
        self._links: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._sealed = False
        #: Drain-time handoff request (set by a "handoff" control
        #: message); the session raises SessionHandoff at its next
        #: checkpoint boundary.
        self.handoff = threading.Event()
        #: Parent's acknowledgment that the adopting peer holds the
        #: bundle; only then may the evaluator's link be closed.
        self.released = threading.Event()

    def push_link(self, link: Link) -> bool:
        with self._lock:
            if self._sealed:
                return False
            self._links.put(link)
            return True

    def pop_link(self, timeout: Optional[float]) -> Link:
        try:
            item = self._links.get(timeout=timeout)
        except queue.Empty:
            raise LinkTimeout(
                f"session {self.id!r}: evaluator did not (re)connect "
                f"within {timeout}s"
            ) from None
        if item is _SEALED:
            self._links.put(item)  # later pops fail fast too
            raise LinkClosed(f"session {self.id!r} is sealed")
        return item

    def seal(self) -> None:
        with self._lock:
            self._sealed = True
            while True:
                try:
                    item = self._links.get_nowait()
                except queue.Empty:
                    break
                if item is not _SEALED:
                    item.close()
            # Wake (and permanently fail) any pop_link in flight so a
            # sealed session never burns a full resume window.
            self._links.put(_SEALED)


def _bump(stats: tuple, idx: int, n: int = 1) -> None:
    """Move one counter of the shared ``(block, lock)`` pair."""
    block, lock = stats
    if n:
        with lock:
            block[idx] += n


def session_record(sid: str, program: str, state: str, wall=None,
                   result=None, reconnects: int = -1, epoch=None,
                   **extra) -> dict:
    """The per-session record behind the stats ring and the
    ``serve-session`` event; ``-1`` marks what this outcome never
    measured (all of it, for a session whose worker never reported)."""
    if result is not None:
        reconnects, epoch = result.reconnects, result.material_epoch
    tables = None if result is None else result.tables_sent
    return {
        "session": sid,
        "program": program,
        "state": state,
        "wall_ms": -1 if wall is None else int(wall * 1000),
        "garbled_nonxor": (
            -1 if result is None else result.stats.garbled_nonxor
        ),
        "tables_sent": -1 if tables is None else tables,
        "reconnects": reconnects,
        "epoch": -1 if epoch is None else epoch,
        **extra,
    }


def build_material_caches(programs: dict, config: dict) -> dict:
    """One (still empty) :class:`MaterialCache` per served program,
    ``material_depth`` epochs deep; workers fill it before signalling
    ready.  Built by each worker process for itself, and once by the
    parent for all of its worker threads (the class is thread-safe).
    Returns ``{}`` when precompute is off.
    """
    if not config.get("precompute"):
        return {}
    materials = {}
    for name, prog in programs.items():
        materials[name] = MaterialCache(
            prog.net,
            prog.cycles,
            alice=prog.alice,
            alice_init=prog.alice_init,
            public=prog.public,
            public_init=prog.public_init,
            depth=config.get("material_depth", 2),
        )
    return materials


def _sender_ot_factory(config: dict, sid: str, ot_base):
    """Garbler-side OT factory for one serve session: session-unique
    PRG salt always, cached base material when the handshake agreed."""
    return functools.partial(OTExtensionSender, group=config["ot_group"],
                             base=ot_base, salt=session_salt(sid))


def _reader_loop(chan: MsgChannel, runq: "queue.Queue", sessions: dict,
                 lock: threading.Lock) -> None:
    """Drain the control channel; orderable because run/link/stop for
    one worker ride one SOCK_STREAM channel."""
    while True:
        try:
            msg, fds = chan.recv()
        except IpcClosed:
            runq.put(_STOP)
            return
        mtype = msg.get("type")
        if mtype == "run":
            sid = msg["session"]
            sess = _WorkerSession(sid)
            with lock:
                sessions[sid] = sess
            runq.put((sid, msg))
        elif mtype == "link":
            if not fds:
                continue
            link: Link = TcpLink.from_fd(fds[0])
            preface = msg.get("preface", b"")
            if preface:
                link = PrefacedLink(link, preface)
            with lock:
                sess = sessions.get(msg["session"])
            if sess is None or not sess.push_link(link):
                # Finished (or never assigned here) between the
                # parent's routing decision and delivery: the redial
                # sees EOF and the evaluator re-resolves via a fresh
                # hello.
                link.close()
        elif mtype == "handoff":
            with lock:
                sess = sessions.get(msg["session"])
            if sess is not None:
                sess.handoff.set()
        elif mtype == "handoff-release":
            with lock:
                sess = sessions.get(msg["session"])
            if sess is not None:
                sess.released.set()
        elif mtype == "stop":
            runq.put(_STOP)
            return


def make_garbler_party(name: str, prog, config: dict, run_msg: dict,
                       materials: dict, obs=NULL_OBS):
    """Build the garbler party for one admitted session.

    With pre-garbled material available this is a
    :class:`MaterialGarblerParty` consuming one cached delta epoch
    (keyed to the client identity from the handshake — the cache
    enforces that an epoch is never handed to two identities);
    otherwise a fresh :class:`GarblerParty`.  Either way the OT factory
    applies the session salt and any cached base-OT material the
    parent negotiated into the ``run`` message.  Returns
    ``(party, material_hit)`` where ``material_hit`` is ``None`` for
    fresh garbling, else whether the pool had an epoch ready.
    """
    sid = run_msg["session"]
    ot_factory = _sender_ot_factory(config, sid, run_msg.get("ot_base"))
    gkey = run_msg.get("garbler_key")
    cache = materials.get(name)
    if gkey is None and cache is not None:
        material, hit = cache.acquire(run_msg.get("client"))
        party = MaterialGarblerParty(
            material,
            ot_group=config["ot_group"],
            ot_factory=ot_factory,
            obs=obs,
        )
        return party, hit
    # Per-session garbler inputs: the hello picked its operand out of
    # the program's keyed table.  Keyed sessions garble fresh —
    # recorded material transcripts bind the default operand, so
    # replaying one here would leak (and compute) the wrong input.
    alice = prog.alice if gkey is None else prog.alice_by_key[gkey]
    party = GarblerParty(
        prog.net,
        prog.cycles,
        _expand_bits(prog.net, "alice", alice, prog.alice_init,
                     prog.cycles),
        public=prog.public,
        public_init=prog.public_init,
        ot_group=config["ot_group"],
        obs=obs,
        ot_factory=ot_factory,
    )
    return party, None


def make_adopted_party(prog, config: dict, run_msg: dict, obs=NULL_OBS):
    """Rebuild the garbler party for a session adopted from a draining
    peer shard.

    The handoff bundle carries the peer's :class:`GarbledMaterial`
    (its epoch must match the checkpoints — the epoch guard in
    ``MaterialGarblerParty.restore`` enforces it) plus the original
    OT negotiation, so the rebuilt party is wire-compatible with the
    evaluator mid-session: same material transcript, same session
    salt, same base-OT view.  ``resume=True`` suppresses the
    init-label replay the evaluator already received.
    """
    bundle = run_msg["bundle"]
    ot_factory = _sender_ot_factory(
        config, run_msg["session"], bundle.get("ot_base")
    )
    return MaterialGarblerParty(
        bundle["material"],
        ot_group=config["ot_group"],
        ot_factory=ot_factory,
        obs=obs,
        resume=True,
    )


def handoff_bundle(party, run_msg: dict, checkpoints: dict,
                   cycle: int) -> Optional[dict]:
    """Everything the adopting shard needs to finish this session
    bit-identically, or ``None`` when the session cannot hand off
    (only material-backed sessions can: a fresh party's labels are
    bound to in-process state the peer cannot reconstruct)."""
    material = getattr(party, "material", None)
    if material is None:
        return None
    return {
        "session": run_msg["session"],
        "program": run_msg["program"],
        "client": run_msg.get("client"),
        "garbler_key": run_msg.get("garbler_key"),
        "ot_base": run_msg.get("ot_base"),
        "digest": net_digest(party.net, party.cycles),
        "cycle": cycle,
        "checkpoints": dict(checkpoints),
        "material": material,
    }


def replay_payload(result, party) -> Optional[dict]:
    """Build the replay-buffer payload for a finished session.

    Prefers the full :class:`~repro.net.session.SessionResult`; a
    session that *failed* after the garbler decoded outputs (the
    evaluator died between the result frame and its goodbye — exactly
    the window replay exists for) falls back to the party's
    ``last_outputs`` stash.  ``None`` when no outputs were ever
    decoded: there is nothing truthful to replay.
    """
    if result is not None:
        return {
            "outputs": [int(b) for b in result.outputs],
            "value": result.value,
            "garbled_nonxor": result.stats.garbled_nonxor,
            "tables_sent": (
                result.tables_sent if result.tables_sent is not None else -1
            ),
        }
    outputs = getattr(party, "last_outputs", None)
    if outputs is None:
        return None
    stats = getattr(getattr(party, "engine", None), "stats", None)
    backend = getattr(party, "backend", None)
    return {
        "outputs": [int(b) for b in outputs],
        "value": bits_to_int(outputs),
        "garbled_nonxor": getattr(stats, "garbled_nonxor", -1),
        "tables_sent": getattr(backend, "tables_sent", -1),
    }


def _ship_handoff(chan: MsgChannel, sess: _WorkerSession, session,
                  party, run_msg: dict, handoff: SessionHandoff,
                  wall: float, stats: tuple) -> None:
    """Ship the handoff bundle to the parent and hold the evaluator's
    link open until the parent confirms the peer adopted it.

    The order is the whole point: if the link closed first, the
    evaluator's instant redial could reach the peer *before* the
    bundle does and be admitted as a brand-new session — correct
    output, but a fork the later adoption would collide with.  The
    evaluator stays blocked on the open link until ``released``.
    """
    bundle = handoff_bundle(party, run_msg, handoff.checkpoints,
                            handoff.cycle)
    record = session_record(
        sess.id, run_msg["program"], "handed-off", wall,
        reconnects=session.reconnects,
        epoch=getattr(party, "material_epoch", None), cycle=handoff.cycle,
    )
    try:
        chan.send({"type": "handed-off", "session": sess.id,
                   "record": record, "wall": wall, "bundle": bundle})
        sess.released.wait(timeout=60.0)
    except IpcClosed:
        pass  # parent gone; close out locally
    session.close()
    sess.seal()
    _bump(stats, _IDX_ACTIVE, -1)


def _run_one(chan: MsgChannel, sess: _WorkerSession, run_msg: dict,
             programs: dict, config: dict, stats: tuple,
             materials: dict, obs) -> None:
    """One session end-to-end.  ``Exception`` fails the session;
    ``KeyboardInterrupt``/``SystemExit`` fail it *and* propagate so
    interpreter shutdown is never swallowed."""
    _bump(stats, _IDX_ACTIVE, 1)
    t0 = perf_counter()
    name = run_msg["program"]
    result = None
    error: Optional[BaseException] = None
    reraise: Optional[BaseException] = None
    handoff: Optional[SessionHandoff] = None
    adopt = run_msg.get("bundle")
    if adopt is not None:
        party, material_hit = make_adopted_party(
            programs[name], config, run_msg, obs=obs
        ), None
    else:
        party, material_hit = make_garbler_party(
            name, programs[name], config, run_msg, materials, obs=obs
        )
    if material_hit is not None:
        _bump(stats, _IDX_HITS if material_hit else _IDX_MISSES)
        if not material_hit:
            _bump(stats, _IDX_EPOCHS)
    # Only material-backed sessions can hand off (a fresh party's
    # free-XOR delta and memoized labels are bound to in-process state
    # no peer can reconstruct); leave the interrupt unarmed otherwise
    # and the session finishes here during drain.
    can_handoff = getattr(party, "material", None) is not None
    session = ResumableSession(
        party,
        connect=lambda: sess.pop_link(config["resume_window"]),
        checkpoint_every=config["checkpoint_every"],
        timeout=config["timeout"],
        max_attempts=config["max_attempts"],
        heartbeat_interval=config["heartbeat"],
        interrupt=sess.handoff.is_set if can_handoff else None,
        checkpoints=adopt["checkpoints"] if adopt is not None else None,
        obs=obs,
    )
    try:
        result = session.run()
    except SessionHandoff as exc:
        handoff = exc
    except Exception as exc:
        error = exc
    except BaseException as exc:
        error = exc
        reraise = exc
    finally:
        wall = perf_counter() - t0
        if handoff is not None:
            # A handoff means this shard is on its way out: no refill,
            # nobody will use the material.
            _ship_handoff(chan, sess, session, party, run_msg, handoff,
                          wall, stats)
            return
        sess.seal()
        _bump(stats, _IDX_ACTIVE, -1)
        state = "done" if error is None else "failed"
        record = session_record(sess.id, name, state, wall, result)
        msg = {"type": state, "session": sess.id, "record": record,
               "wall": wall}
        if result is not None:
            msg["result"] = result
        # A session that failed *after* the garbler decoded outputs
        # (Bob died between result and goodbye) still ships a replay
        # payload — that is the replay buffer's whole reason to exist.
        replay = replay_payload(result, party)
        if replay is not None:
            msg["replay"] = replay
        if error is None and run_msg.get("ot_base") is None:
            # This session ran a fresh base phase (nothing cached was
            # supplied): its sender side is worth caching.
            msg["ot_base_export"] = party.backend._ot.export_base()
        if error is not None:
            msg["error"] = f"{type(error).__name__}: {error}"
        try:
            chan.send(msg)
        except IpcClosed:
            pass  # parent gone; nothing left to report to
    # Top the material pool back up *after* the outcome shipped: the
    # refill is the offline phase running between sessions, never on a
    # reporting path the client is waiting on.
    cache = materials.get(name)
    if cache is not None:
        _bump(stats, _IDX_EPOCHS, cache.refill())
    if reraise is not None:
        raise reraise


def worker_main(index: int, sock: socket.socket, stats: tuple,
                programs: dict, config: dict, obs=NULL_OBS,
                materials: Optional[dict] = None) -> None:
    """Entry point of one pool worker (module-level so the forkserver
    can pickle the target by reference).

    ``stats`` is the shared counter ``(block, lock)`` pair.  The
    positional arguments are everything a worker *process* gets (all
    of it pickles); a worker *thread* is additionally handed what it
    cannot rebuild for itself: the server's ``obs`` and the
    server-wide ``materials`` caches (a process builds private ones).
    """
    if threading.current_thread() is threading.main_thread():
        # Only a process entry owns its signal disposition.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs.set_thread_label(f"serve-worker-{index}")
    chan = MsgChannel(sock)
    # Pre-warm: one residual trace per served program, in this
    # process's cache (thread-safe, so N worker threads still pay one
    # sweep).  Building it is all the warm-up there is: the builder
    # compiles the plan and the generated sweep on the way, and no
    # session sweeps afterwards.  Without it a ``precompute=False``
    # server's first session would pay the build.
    for prog in programs.values():
        residual_trace(prog.net, prog.cycles, prog.public, prog.public_init)
    # Offline phase: pre-garble material_depth delta epochs per program
    # before signalling ready, so the first admitted session is already
    # pure replay.
    if materials is None:
        materials = build_material_caches(programs, config)
    for cache in materials.values():
        _bump(stats, _IDX_EPOCHS, cache.prewarm())
    runq: "queue.Queue" = queue.Queue()
    sessions: dict = {}
    lock = threading.Lock()
    reader = threading.Thread(
        target=_reader_loop, args=(chan, runq, sessions, lock),
        name=f"serve-worker-{index}-reader", daemon=True,
    )
    reader.start()
    try:
        chan.send({"type": "ready", "index": index})
    except IpcClosed:
        return
    try:
        while True:
            item = runq.get()
            if item is _STOP:
                return
            sid, run_msg = item
            with lock:
                sess = sessions[sid]
            try:
                _run_one(chan, sess, run_msg, programs, config, stats,
                         materials, obs)
            finally:
                with lock:
                    sessions.pop(sid, None)
    finally:
        chan.close()
