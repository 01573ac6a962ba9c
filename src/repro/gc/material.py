"""Offline pre-garbling: record a garbler transcript, replay it online.

ARM2GC's succinctness argument rests on the processor netlist being
*public and fixed* — which is exactly what makes its category-iv
garbled tables precomputable.  During protocol cycles the garbler only
ever *pushes* label material: her ``alice-label`` frames, the message
pairs ``(zero, zero ^ delta)`` she feeds the OT for Bob's input bits,
and the ``tables`` blob of each cycle that keeps a table.  None of it
depends on anything the evaluator sends (the OT itself is interactive, but the garbler's
*inputs* to it are not), so the entire per-cycle transcript can be
produced in an **offline phase** before any client connects and
replayed verbatim in the **online phase**, which then costs only the
OT protocol plus the evaluator's work.

Three pieces implement the split:

* :func:`build_material` runs a real :class:`~repro.core.protocol.
  GarblerParty` against a recording channel and a recording OT,
  capturing the ordered per-cycle event stream — one event per frame
  run, framed exactly as the live garbler frames it — into a
  :class:`GarbledMaterial` bundle keyed by (netlist digest, cycle
  index, delta epoch).  Like every party it replays the program's
  residual trace (:mod:`repro.core.trace`), so an epoch costs the
  garbling itself and no SkipGate sweep.
* :class:`MaterialCache` is a bounded per-program pool of such
  bundles with explicit **delta-epoch rotation**: every bundle is
  garbled under a fresh delta and handed out exactly once.  Reusing a
  delta across evaluator identities would let two colluding (or one
  curious repeat) evaluator(s) pair up wire labels and recover delta —
  the reuse-soundness rules from the CRGC / "Reuse It Or Lose It"
  line of work, enforced structurally here by single-use acquisition.
* :class:`MaterialGarblerParty` is a drop-in for ``GarblerParty`` in
  a :class:`~repro.net.session.ResumableSession`: it replays the
  recorded events through a live channel and a live OT (one
  ``send_many`` per recorded OT run), so its frames are byte-identical
  to a fresh garbler's under the same labels; checkpoints
  carry the material epoch, and ``restore`` refuses to cross epochs.

The recorded transcript replays the *same* label bytes on every
(re)send of a cycle, matching the garbled tables; to the evaluator
this is indistinguishable from fresh garbling, and the resume layer
already rolls both parties back to a common cycle so replays stay
aligned.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .channel import ProtocolDesync
from .garble import GarbledTable
from .ot import OTSender, pack_bits
from .ot_extension import OTExtensionSender


class MaterialEpochMismatch(ProtocolDesync):
    """A resume tried to restore a checkpoint from a different material
    epoch (or circuit digest).  Fatal by design: stitching two deltas
    into one session would desync the evaluator and, worse, could leak
    both labels of a wire under one delta."""


# ---------------------------------------------------------------------------
# Recording: a fake channel and a fake OT that capture the transcript.
# ---------------------------------------------------------------------------


class _Recorder:
    """Accumulates the garbler's ordered outbound events: ``(tag,
    blob)`` for an ``alice-label`` or ``tables`` frame, ``("ot",
    pairs)`` for an OT run.

    Events before the first cycle (flip-flop / macro init labels,
    replayed from the trace's init bucket during ``attach``) land in
    the *init bucket*; after that, each cycle boundary closes one cycle
    bucket (a cycle that keeps no table sends no frame to close it).
    """

    def __init__(self) -> None:
        self.init_events: List[tuple] = []
        self.cycle_events: List[List[tuple]] = []
        self._events: List[tuple] = []

    def add(self, event: tuple) -> None:
        self._events.append(event)

    def close_init(self) -> None:
        self.init_events, self._events = self._events, []

    def close_cycle(self, completed: int) -> None:
        self.cycle_events.append(self._events)
        self._events = []


class _RecordingEndpoint:
    """Channel stand-in for the offline run: captures sends, forbids
    receives (the garbler never receives during cycles)."""

    def __init__(self, recorder: _Recorder) -> None:
        self._rec = recorder

    def send(self, tag: str, payload: Any) -> None:
        if tag not in ("alice-label", "tables"):  # pragma: no cover - defensive
            raise AssertionError(f"unexpected offline-phase send {tag!r}")
        self._rec.add((tag, bytes(payload)))

    def recv(self, tag: str, timeout: Optional[float] = None) -> Any:
        raise AssertionError(
            f"offline garbling tried to receive {tag!r}; the garbler "
            "must not depend on the evaluator during cycles"
        )


class _RecordingOT:
    """OT stand-in: captures each run of the garbler's message pairs."""

    def __init__(self, recorder: _Recorder) -> None:
        self._rec = recorder
        self.count = 0

    def send_many(self, pairs) -> None:
        self._rec.add(("ot", list(pairs)))
        self.count += len(pairs)

    def rebind(self, chan) -> None:  # pragma: no cover - never reconnects
        pass


# ---------------------------------------------------------------------------
# The bundle.
# ---------------------------------------------------------------------------


@dataclass
class GarbledMaterial:
    """One pre-garbled transcript: (netlist digest, cycles, delta epoch).

    ``output_states`` holds the garbler's final per-output decode info:
    an ``int`` for public outputs or ``(zero_label, flip)`` for secret
    ones.  ``stats`` is the engine's final :class:`~repro.core.stats.
    RunStats` — replayed sessions report gate counts bit-identical to
    fresh garbling because they *are* the fresh run's counts.
    """

    net: Any
    digest: str
    cycles: int
    epoch: int
    delta: int
    init_events: List[tuple]
    cycle_events: List[List[tuple]]
    output_states: List[Any]
    stats: Any
    tables_sent: int
    build_seconds: float


def build_material(
    net,
    cycles: int,
    *,
    alice: Sequence[int] = (),
    alice_init: Sequence[int] = (),
    public: Sequence[int] = (),
    public_init: Sequence[int] = (),
    ot_group: str = "modp512",
    ot: str = "simplest",
    engine: str = "compiled",
    epoch: int = 0,
    rng=None,
) -> GarbledMaterial:
    """Offline phase: garble every cycle of ``net`` under a fresh delta.

    Runs the real garbler (same residual trace, same backend, hence
    the same category decisions) against recording stand-ins, so the
    captured transcript is byte-for-byte what an online session must
    send.  ``alice`` /
    ``alice_init`` are the garbler's operand sources exactly as a
    :class:`~repro.serve.server.ServeProgram` holds them.
    """
    # Imported lazily: core imports gc, not the other way around.
    from ..core.protocol import GarblerParty, _expand_bits
    from ..net.session import net_digest

    t0 = time.perf_counter()
    recorder = _Recorder()
    recording_ot = _RecordingOT(recorder)
    party = GarblerParty(
        net,
        cycles,
        _expand_bits(net, "alice", alice, alice_init, cycles),
        public=public,
        public_init=public_init,
        ot_group=ot_group,
        ot=ot,
        rng=rng,
        engine=engine,
        ot_factory=lambda chan: recording_ot,
    )
    party.attach(_RecordingEndpoint(recorder))
    recorder.close_init()  # init labels resolve during attach
    party.run_cycles(on_boundary=recorder.close_cycle)
    output_states = []
    for s in party.engine.output_states():
        output_states.append(s if type(s) is int else (s[0], s[1]))
    return GarbledMaterial(
        net=net,
        digest=net_digest(net, cycles, public, public_init),
        cycles=cycles,
        epoch=epoch,
        delta=party.backend.delta,
        init_events=recorder.init_events,
        cycle_events=recorder.cycle_events,
        output_states=output_states,
        stats=party.engine.stats,
        tables_sent=party.backend.tables_sent,
        build_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# The bounded per-program cache with delta-epoch rotation.
# ---------------------------------------------------------------------------


class MaterialCache:
    """Bounded pool of single-use :class:`GarbledMaterial` epochs.

    Rotation rule: every :meth:`acquire` hands out a *distinct* epoch
    (a distinct delta) and records which evaluator identity consumed
    it; an epoch is never handed out twice, so no delta can be
    observed by two evaluator identities — or twice by one.  The pool
    is refilled with freshly-garbled epochs (``refill``), normally off
    the online path; an empty pool falls back to garbling synchronously
    (counted as a miss).
    """

    def __init__(
        self,
        net,
        cycles: int,
        *,
        alice: Sequence[int] = (),
        alice_init: Sequence[int] = (),
        public: Sequence[int] = (),
        public_init: Sequence[int] = (),
        ot_group: str = "modp512",
        ot: str = "simplest",
        engine: str = "compiled",
        depth: int = 2,
        rng=None,
    ) -> None:
        if depth < 1:
            raise ValueError("material cache depth must be >= 1")
        self._build_kwargs = dict(
            alice=alice,
            alice_init=alice_init,
            public=public,
            public_init=public_init,
            ot_group=ot_group,
            ot=ot,
            engine=engine,
        )
        self.net = net
        self.cycles = cycles
        self.depth = depth
        self._rng = rng
        self._pool: deque = deque()
        self._lock = threading.Lock()
        self._fill_lock = threading.Lock()
        self._next_epoch = 0
        self.hits = 0
        self.misses = 0
        self.built = 0
        self.build_seconds = 0.0
        #: epoch -> evaluator identity that consumed it (audit trail for
        #: the rotation rule; ``None`` for anonymous sessions).
        self.assignments: Dict[int, Any] = {}

    def _build_one(self) -> GarbledMaterial:
        with self._lock:
            epoch = self._next_epoch
            self._next_epoch += 1
        material = build_material(
            self.net,
            self.cycles,
            epoch=epoch,
            rng=self._rng,
            **self._build_kwargs,
        )
        with self._lock:
            self.built += 1
            self.build_seconds += material.build_seconds
        return material

    def prewarm(self, depth: Optional[int] = None) -> int:
        """Fill the pool up to ``depth`` epochs; returns epochs built.

        One filler at a time: callers sharing this cache (a server's
        worker threads) queue up, and each returns only once the pool
        has been full — so the fill never overshoots ``depth`` and
        "returned" always means "was warm"."""
        target = self.depth if depth is None else min(depth, self.depth)
        built = 0
        with self._fill_lock:
            while len(self) < target:
                material = self._build_one()
                with self._lock:
                    self._pool.append(material)
                built += 1
        return built

    def refill(self, low_water: Optional[int] = None) -> int:
        """Top the pool back up, but only once it has drained below the
        low-water mark (default ``depth // 2``) — a freshly-consumed
        epoch does not force a garble onto the next session's path."""
        low = max(1, self.depth // 2 if low_water is None else low_water)
        with self._lock:
            if len(self._pool) >= low:
                return 0
        return self.prewarm()

    def acquire(self, identity: Any = None) -> Tuple[GarbledMaterial, bool]:
        """Pop one single-use epoch for ``identity``.

        Returns ``(material, hit)`` where ``hit`` says whether the pool
        had a pre-garbled epoch ready (otherwise one was garbled
        synchronously).
        """
        with self._lock:
            material = self._pool.popleft() if self._pool else None
        hit = material is not None
        if material is None:
            material = self._build_one()
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
            if material.epoch in self.assignments:  # pragma: no cover
                raise AssertionError(
                    f"delta epoch {material.epoch} handed out twice"
                )
            self.assignments[material.epoch] = identity
        return material, hit

    def __len__(self) -> int:
        with self._lock:
            return len(self._pool)


# ---------------------------------------------------------------------------
# The online replay party.
# ---------------------------------------------------------------------------


class _ReplayBackendView:
    """The slice of backend state the session layer reads."""

    def __init__(self, delta: int) -> None:
        self.delta = delta
        self.tables_sent = 0
        self._ot = None


class _ReplayEngineView:
    """The slice of engine state the session layer reads."""

    def __init__(self, stats: Any, cycles: int) -> None:
        self.stats = stats
        self.cycles = cycles


class MaterialGarblerParty:
    """Garbler party that replays a :class:`GarbledMaterial` bundle.

    Drop-in for :class:`~repro.core.protocol.GarblerParty` inside a
    :class:`~repro.net.session.ResumableSession`: the online path sends
    the recorded label and table frames and runs only the *live* OT
    protocol for Bob's input bits.  Checkpoints record the
    material epoch and digest; :meth:`restore` raises
    :class:`MaterialEpochMismatch` on any cross-epoch restore attempt.
    """

    role = "garbler"

    def __init__(
        self,
        material: GarbledMaterial,
        *,
        ot_group: str = "modp512",
        ot: str = "simplest",
        ot_factory=None,
        obs=None,
        resume: bool = False,
    ) -> None:
        self.material = material
        self.net = material.net
        self.cycles = material.cycles
        self.material_epoch = material.epoch
        #: The ``net-hello`` digest the material was garbled for.
        self.digest = material.digest
        self._ot_group = ot_group
        self._ot_kind = ot
        self._ot_factory = ot_factory
        self.obs = obs
        self.chan = None
        self._ot = None
        #: ``resume=True`` marks a party adopting a handed-off session:
        #: the evaluator already holds the init labels (they are in its
        #: restored memo), so the first attach must NOT replay them —
        #: an unsolicited ``alice-label`` frame would desync the
        #: peer's resume negotiation.
        self._resume = resume
        self._cursor = 0  # completed cycles
        self.backend = _ReplayBackendView(material.delta)
        self.engine = _ReplayEngineView(material.stats, material.cycles)

    # -- plumbing ------------------------------------------------------------

    def _make_ot(self, chan):
        if self._ot_factory is not None:
            return self._ot_factory(chan)
        if self._ot_kind == "extension":
            return OTExtensionSender(chan, group=self._ot_group)
        return OTSender(chan, group=self._ot_group)

    def _replay(self, events: List[tuple]) -> None:
        for tag, payload in events:
            if tag == "ot":
                self._ot.send_many(payload)
            else:
                self.chan.send(tag, payload)
                if tag == "tables":
                    self.backend.tables_sent += len(payload) // GarbledTable.SIZE_BYTES

    @property
    def cycle(self) -> int:
        """Number of completed cycles."""
        return self._cursor

    def attach(self, chan) -> None:
        """Bind (or re-bind, after a reconnect) the transport."""
        self.chan = chan
        if self._ot is None:
            self._ot = self._make_ot(chan)
            self.backend._ot = self._ot
            if not self._resume:
                # Init labels (flip-flop / macro initial state) go out
                # as part of the first attach, exactly where a fresh
                # party resolves them while constructing its engine.
                self._replay(self.material.init_events)
        else:
            self._ot.rebind(chan)

    def run_cycles(self, on_boundary=None) -> None:
        while self._cursor < self.cycles:
            self._replay(self.material.cycle_events[self._cursor])
            self._cursor += 1
            if on_boundary is not None:
                on_boundary(self._cursor)

    def finish(self) -> List[int]:
        """Decode Bob's output labels against the recorded states
        (mirrors :meth:`GarblerParty.finish`)."""
        from ..core.protocol import decode_outputs

        chan = self.chan
        material = self.material
        outputs = decode_outputs(
            chan.recv("outputs"), material.output_states, material.delta
        )
        # Same stash as GarblerParty.finish: the result survives a Bob
        # that dies between here and the goodbye, so the serve layer
        # can park it for redial replay.
        self.last_outputs = list(outputs)
        chan.send("result", pack_bits(outputs))
        chan.recv("bye")
        return outputs

    # -- resume hooks --------------------------------------------------------

    def snapshot(self) -> dict:
        """Freeze replay progress; the epoch rides in every checkpoint."""
        return {
            "epoch": self.material.epoch,
            "digest": self.material.digest,
            "cycle": self._cursor,
            "tables_sent": self.backend.tables_sent,
            "ot": self._ot.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        if (
            snap["epoch"] != self.material.epoch
            or snap["digest"] != self.material.digest
        ):
            raise MaterialEpochMismatch(
                f"checkpoint is for material epoch {snap['epoch']} "
                f"(digest {snap['digest']}), party holds epoch "
                f"{self.material.epoch} (digest {self.material.digest})"
            )
        self._cursor = snap["cycle"]
        self.backend.tables_sent = snap["tables_sent"]
        self._ot.restore(snap["ot"])
