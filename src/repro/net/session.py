"""Cycle-level checkpoint/resume over reconnectable transports.

A :class:`ResumableSession` owns one protocol party (garbler or
evaluator), a connector (TCP listener/dialer or an in-memory
rendezvous), and a checkpoint store.  :meth:`run` drives the party to
completion, surviving transport failures:

1. **Connect** — obtain a fresh :class:`~repro.net.links.Link` and
   wrap it in a :class:`~repro.net.transport.FramedEndpoint` whose
   stats objects are owned by the session, so traffic totals survive
   reconnects.
2. **Hello** — both sides exchange ``net-hello`` records (role, cycle
   count, :func:`net_digest` of circuit and public inputs, checkpoint
   cadence).  Any mismatch is a configuration error, raised as a fatal
   :class:`~repro.gc.channel.ProtocolDesync` — resume must never
   silently stitch two different computations together.
3. **Negotiate** — both sides exchange ``net-resume`` records naming
   the latest cycle checkpoint they hold; the agreed resume point is
   the *minimum* of the two.  Because both sides checkpoint on the
   same deterministic cycle grid (validated in the hello), the agreed
   cycle is guaranteed to be in both stores.
4. **Restore + replay** — each side rolls its party back to the agreed
   checkpoint and re-runs the protocol from there: the garbler resends
   its recorded material from that cycle (the same label bytes and
   tables) and the evaluator evaluates it again.  A garbler checkpoint
   is its material epoch and digest, cycle, table count and OT state;
   an evaluator checkpoint is its trace replayer (cycle and live label
   table) plus its backend and OT state — no engine runs in a session,
   so none is checkpointed — and statistics are the residual trace's,
   so final gate counts are bit-identical to an uninterrupted run;
   channel byte totals are deliberately **not** rolled back —
   retransmitted bytes really crossed the wire.
5. **Finish** — after the last cycle the output-decode exchange runs;
   a trailing ``bye`` acknowledgment hardens termination, so a result
   frame lost in flight is replayed rather than leaving one party
   convinced and the other hung.

Retryable failures — peer gone (:class:`~repro.gc.channel.ChannelClosed`),
peer late (:class:`~repro.gc.channel.ChannelTimeout`), transport
integrity (:class:`~repro.gc.channel.FrameCorruption`) — trigger
teardown, backoff, reconnect.  A plain
:class:`~repro.gc.channel.ProtocolDesync` (tag mismatch, handshake
mismatch) is a bug and propagates immediately.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..circuit.bits import bits_to_int
from ..circuit.netlist import Netlist
from ..gc.channel import (
    ChannelClosed,
    ChannelStats,
    ChannelTimeout,
    FrameCorruption,
    ProtocolDesync,
)
from ..obs import NULL_OBS
from .links import Link, LinkClosed, LinkTimeout, MemoryRendezvous
from .transport import FramedEndpoint

#: Failures a session recovers from by reconnecting.  Everything else
#: (including a plain ProtocolDesync) is fatal by design.
RETRYABLE = (ChannelClosed, ChannelTimeout, FrameCorruption, LinkClosed, LinkTimeout)


class SessionHandoff(Exception):
    """Raised out of :meth:`ResumableSession.run` when the session's
    ``interrupt`` predicate fired at a checkpoint boundary.

    Not a failure: the party state is intact, ``checkpoints`` holds
    every checkpoint the session has taken (the cycle grid the peer
    negotiated against), and the transport is deliberately **left
    open** — the caller ships the checkpoints to the adopting peer
    first and tears the link down only once the peer has them, so the
    evaluator's redial can never race ahead of its own session state.
    """

    def __init__(self, cycle: int) -> None:
        super().__init__(f"session handed off at cycle {cycle}")
        self.cycle = cycle
        self.checkpoints: Dict[int, dict] = {}


#: The protocol's message framing, folded into :func:`net_digest`.
#: Format 1 sent every label, choice bit and OT reply as its own frame
#: and each cycle's tables as ``(keys, blob)``; format 2 sends runs and
#: windows as blobs and leaves out what the residual trace says; format
#: 3 runs random base OTs (no ``ot-e`` in the extension base phase),
#: sends only the secret outputs' labels and packs the result bits.
#: Peers on different formats fail the ``net-hello`` digest check.
WIRE_FORMAT = 3


def net_digest(net: Netlist, cycles: int, public=(), public_init=()) -> str:
    """Short digest of the computation both parties must agree on.

    Covers the full circuit structure, the cycle count, the
    :data:`WIRE_FORMAT` and the public inputs (``public`` per cycle,
    a row or a ``cycle -> row`` callable, and ``public_init``): with
    them it addresses one residual trace.  Exchanged in the
    ``net-hello`` so two processes configured with different circuits
    or public inputs, or framing messages differently, fail loudly
    instead of desyncing mid-run.  Without public inputs it is the
    program digest the serve fleet routes by.
    """
    rows = ([public(c) for c in range(cycles)] if callable(public)
            else [public] * cycles)
    parts = (
        WIRE_FORMAT,
        net.name,
        net.n_wires,
        tuple(net.gate_tt),
        tuple(net.gate_a),
        tuple(net.gate_b),
        tuple(net.gate_out),
        tuple((ff.d, ff.q, ff.init.src, ff.init.idx) for ff in net.dffs),
        tuple(repr(e) for e in net.schedule),
        tuple(sorted((k, tuple(v)) for k, v in net.inputs.items())),
        tuple(net.outputs),
        int(cycles),
        tuple(tuple(b & 1 for b in row) for row in rows),
        tuple(b & 1 for b in public_init),
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


@dataclass
class SessionResult:
    """Outcome of one party's resumable session."""

    outputs: List[int]
    value: int
    stats: Any  #: the party's RunStats (bit-identical across resumes)
    sent: ChannelStats
    received: ChannelStats
    #: Number of reconnections performed (0 for a clean run).
    reconnects: int
    #: Cycles at which checkpoints were taken.
    checkpoint_cycles: List[int] = field(default_factory=list)
    #: Garbler only: total garbled tables shipped (None for Bob).
    tables_sent: Optional[int] = None
    #: Garbler only: delta epoch of the pre-garbled material consumed
    #: by this session (None when its material was garbled just in
    #: time).  Every checkpoint carries the same epoch — a resume can
    #: never stitch material from two different deltas together.
    material_epoch: Optional[int] = None
    #: True when this result was recovered from the server's replay
    #: buffer (a redial of a finished session) rather than computed by
    #: running the protocol; ``stats``/``sent``/``received`` then
    #: describe the recovery exchange, not a protocol run.
    replayed: bool = False


class ResumableSession:
    """Drive one party to completion across transport failures."""

    def __init__(
        self,
        party,
        connect: Callable[[], Link],
        checkpoint_every: int = 1,
        timeout: Optional[float] = 30.0,
        max_attempts: int = 6,
        heartbeat_interval: Optional[float] = None,
        backoff_base: float = 0.05,
        backoff_max: float = 1.0,
        interrupt: Optional[Callable[[], bool]] = None,
        checkpoints: Optional[Dict[int, dict]] = None,
        obs=NULL_OBS,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.party = party
        self._connect = connect
        self.checkpoint_every = checkpoint_every
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.heartbeat_interval = heartbeat_interval
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.obs = obs
        #: Session-owned traffic totals; injected into every endpoint
        #: so they accumulate across reconnects.
        self.sent = ChannelStats()
        self.received = ChannelStats()
        self.reconnects = 0
        self._digest = party.digest
        #: Drain-time handoff hook: checked at every checkpoint
        #: boundary; when it returns true the run raises
        #: :class:`SessionHandoff` carrying the checkpoint store.
        self._interrupt = interrupt
        #: Seeding the store (an adopting peer resuming a handed-off
        #: session) skips the cycle-0 snapshot — the inherited
        #: checkpoints *are* the session's history, and overwriting
        #: them with this party's fresh state would desync the grid.
        self._checkpoints: Dict[int, dict] = dict(checkpoints or {})
        self._started = bool(checkpoints)
        self._chan: Optional[FramedEndpoint] = None

    # -- one connection attempt ----------------------------------------------

    def _establish(self) -> FramedEndpoint:
        link = self._connect()
        chan = FramedEndpoint(
            link,
            timeout=self.timeout,
            obs=self.obs,
            sent=self.sent,
            received=self.received,
            heartbeat_interval=self.heartbeat_interval,
        )
        self._chan = chan
        hello = {
            "role": self.party.role,
            "cycles": self.party.cycles,
            "digest": self._digest,
            "every": self.checkpoint_every,
        }
        chan.send("net-hello", hello)
        peer = chan.recv("net-hello")
        self._validate_hello(chan, peer)
        return chan

    def _validate_hello(self, chan: FramedEndpoint, peer: dict) -> None:
        def fatal(msg: str) -> None:
            chan.abort()
            raise ProtocolDesync(f"handshake mismatch: {msg}")

        if peer.get("role") == self.party.role:
            fatal(f"both parties claim role {self.party.role!r}")
        if peer.get("digest") != self._digest:
            fatal("parties are configured with different circuits, "
                  "public inputs or wire formats")
        if peer.get("cycles") != self.party.cycles:
            fatal(
                f"cycle count disagrees ({self.party.cycles} here, "
                f"{peer.get('cycles')} there)"
            )
        if peer.get("every") != self.checkpoint_every:
            fatal(
                "checkpoint cadence disagrees — the resume grid must be "
                "common to both parties"
            )

    def _negotiate(self, chan: FramedEndpoint) -> None:
        """Agree on a resume cycle and roll the party back to it."""
        self.party.attach(chan)
        if not self._started:
            # Cycle-0 checkpoint: guarantees the negotiation always has
            # a common point, even if the first connection dies early.
            self._checkpoints[0] = self.party.snapshot()
            self._started = True
        mine = max(self._checkpoints)
        chan.send("net-resume", {"cycle": mine})
        theirs = chan.recv("net-resume")["cycle"]
        agreed = min(mine, theirs)
        # Restore unconditionally: a party that failed *mid*-cycle has
        # the agreed cycle number but a partially-mutated backend
        # (labels memoized, OTs consumed) that the peer will replay.
        self.party.restore(self._checkpoints[agreed])
        # Checkpoints past the agreed point describe a timeline the
        # peer never acknowledged; replay will rewrite them.
        for c in [c for c in self._checkpoints if c > agreed]:
            del self._checkpoints[c]

    def _on_cycle_boundary(self, completed: int) -> None:
        on_grid = (completed % self.checkpoint_every == 0
                   or completed == self.party.cycles)
        if on_grid:
            self._checkpoints[completed] = self.party.snapshot()
        # Hand off only from grid boundaries: the freshly-taken
        # snapshot is a point the evaluator also holds (or will agree
        # down to), so the adopting peer's negotiation always lands.
        if on_grid and self._interrupt is not None and self._interrupt():
            raise SessionHandoff(completed)

    def _teardown(self) -> None:
        if self._chan is not None:
            self._chan.close()
            self._chan = None

    def close(self) -> None:
        """Release the transport (the deferred teardown of a
        :class:`SessionHandoff` — call once the peer holds the
        bundle)."""
        self._teardown()

    # -- the retry loop ------------------------------------------------------

    def run(self) -> SessionResult:
        """Run the party to completion, reconnecting on failure."""
        delay = self.backoff_base
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self.reconnects += 1
                if self.obs.enabled:
                    self.obs.inc("net.reconnects")
                time.sleep(delay)
                delay = min(delay * 2.0, self.backoff_max)
            try:
                chan = self._establish()
                self._negotiate(chan)
                self.party.run_cycles(on_boundary=self._on_cycle_boundary)
                outputs = self.party.finish()
                break
            except SessionHandoff as exc:
                # Not a failure: attach the checkpoint store and leave
                # the transport OPEN — the caller closes it only after
                # the adopting peer holds the bundle, so the
                # evaluator's redial cannot beat the handoff there.
                exc.checkpoints = dict(self._checkpoints)
                raise
            except RETRYABLE:
                self._teardown()
                if attempt == self.max_attempts - 1:
                    raise
            except BaseException:
                # Fatal: unblock the peer before propagating.
                if self._chan is not None:
                    self._chan.abort()
                self._teardown()
                raise
        self._teardown()
        backend = self.party.backend
        return SessionResult(
            outputs=outputs,
            value=bits_to_int(outputs),
            stats=self.party.engine.stats,
            sent=self.sent,
            received=self.received,
            reconnects=self.reconnects,
            checkpoint_cycles=sorted(self._checkpoints),
            tables_sent=getattr(backend, "tables_sent", None),
            material_epoch=getattr(self.party, "material_epoch", None),
        )


def run_resumable_pair(
    net: Netlist,
    cycles: int,
    alice=(),
    bob=(),
    public=(),
    alice_init=(),
    bob_init=(),
    public_init=(),
    ot_group: str = "modp512",
    checkpoint_every: int = 1,
    timeout: Optional[float] = 10.0,
    max_attempts: int = 6,
    wrap=None,
    heartbeat_interval: Optional[float] = None,
    obs=NULL_OBS,
) -> Tuple[SessionResult, SessionResult]:
    """Run both parties as resumable sessions over an in-memory network.

    ``wrap(role, attempt, link) -> link`` is the fault-injection splice
    point: wrap a connection attempt's link in a
    :class:`~repro.net.fault.FaultyTransport` to rehearse failures.
    Returns ``(garbler_result, evaluator_result)``.
    """
    from ..core.protocol import make_parties

    a_party, b_party = make_parties(
        net,
        cycles,
        alice=alice,
        bob=bob,
        public=public,
        alice_init=alice_init,
        bob_init=bob_init,
        public_init=public_init,
        ot_group=ot_group,
        obs=obs,
    )
    rendezvous = MemoryRendezvous(wrap=wrap)
    connect_window = 30.0 if timeout is None else max(timeout, 5.0)

    def session_for(party) -> ResumableSession:
        return ResumableSession(
            party,
            connect=lambda: rendezvous.connect(party.role, timeout=connect_window),
            checkpoint_every=checkpoint_every,
            timeout=timeout,
            max_attempts=max_attempts,
            heartbeat_interval=heartbeat_interval,
            obs=obs,
        )

    a_sess = session_for(a_party)
    b_sess = session_for(b_party)
    box: dict = {}

    def bob_main() -> None:
        try:
            obs.set_thread_label("bob")
            box["result"] = b_sess.run()
        except BaseException as exc:
            box["error"] = exc

    t = threading.Thread(target=bob_main, name="bob-session", daemon=True)
    t.start()
    try:
        obs.set_thread_label("alice")
        a_result = a_sess.run()
    finally:
        t.join(timeout=connect_window + 30.0)
    if "error" in box:
        raise box["error"]
    return a_result, box["result"]
