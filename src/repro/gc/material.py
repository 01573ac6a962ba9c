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

Two pieces implement the split, and one party consumes it:

* :func:`build_material` runs the garbler's recorder to the end: her
  own backend replaying the program's residual trace
  (:mod:`repro.core.trace`) with no channel and no OT, appending each
  outbound event — one per frame run, framed exactly as it goes on the
  wire — to the open bucket, the init bucket first and then one per
  cycle.  The buckets, delta, output states and stats make a plain
  :class:`GarbledMaterial` record keyed by (netlist digest, cycle
  index, delta epoch); an epoch costs the garbling itself and no
  SkipGate sweep.
* :class:`MaterialCache` is a bounded per-program pool of such
  bundles with explicit **delta-epoch rotation**: every bundle is
  garbled under a fresh delta and handed out exactly once.  Reusing a
  delta across evaluator identities would let two colluding (or one
  curious repeat) evaluator(s) pair up wire labels and recover delta —
  the reuse-soundness rules from the CRGC / "Reuse It Or Lose It"
  line of work, enforced structurally here by single-use acquisition.
* :class:`~repro.core.protocol.GarblerParty`, the one garbler party,
  sends a material's buckets (one ``send_many`` of the live IKNP
  sender per recorded OT run).  A prebuilt epoch is one source; the
  other is material garbled just in time, whose recorder builds each
  bucket when the party reaches it.  Its checkpoints carry the
  material epoch, and ``restore`` refuses to cross epochs.

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
from .ot_extension import check_session_ot


class MaterialEpochMismatch(ProtocolDesync):
    """A resume tried to restore a checkpoint from a different material
    epoch (or circuit digest).  Fatal by design: stitching two deltas
    into one session would desync the evaluator and, worse, could leak
    both labels of a wire under one delta."""


@dataclass
class GarbledMaterial:
    """One garbler transcript: (netlist digest, cycles, delta epoch).

    ``buckets[0]`` holds the events of the init bucket (flip-flop and
    macro init labels), ``buckets[c + 1]`` those of cycle ``c``: each a
    ``(tag, blob)`` for an ``alice-label`` or ``tables`` frame, or an
    ``("ot", pairs)`` run.  ``output_states`` holds the garbler's final
    per-output decode info: an ``int`` for public outputs or
    ``(zero_label, flip)`` for secret ones.  ``stats`` is the trace's
    :class:`~repro.core.stats.RunStats` — replayed sessions report gate
    counts bit-identical to fresh garbling because they *are* the fresh
    run's counts.

    Material garbled just in time (``epoch`` ``None``) still holds its
    ``recorder``, which :meth:`bucket` steps to garble the buckets not
    built yet; ``output_states`` is set, and the recorder dropped, once
    the last one is.
    """

    net: Any
    digest: str
    cycles: int
    epoch: Optional[int]
    delta: int
    buckets: List[List[tuple]]
    output_states: Optional[List[Any]]
    stats: Any
    build_seconds: float = 0.0
    recorder: Any = None

    def bucket(self, i: int) -> List[tuple]:
        """Bucket ``i``, garbling the buckets up to it first."""
        while len(self.buckets) <= i:
            self.buckets.append([])
            self.recorder.step()
        if self.recorder is not None and len(self.buckets) > self.cycles:
            self.output_states = self.recorder.output_states()
            self.recorder = None
        return self.buckets[i]

    def complete(self) -> "GarbledMaterial":
        """Garble every bucket not built yet (before a handoff ships
        the material, or the closing exchange reads its output states)."""
        self.bucket(self.cycles)
        return self


def build_material(
    net,
    cycles: int,
    *,
    alice: Sequence[int] = (),
    alice_init: Sequence[int] = (),
    public: Sequence[int] = (),
    public_init: Sequence[int] = (),
    # Only benchmarks/spine passes it; ROADMAP item 1(b) deletes it.
    ot: str = "extension",
    epoch: int = 0,
    rng=None,
) -> GarbledMaterial:
    """Offline phase: garble every cycle of ``net`` under a fresh delta.

    The recorder of a just-in-time party
    (:func:`~repro.core.protocol.record_material`), run to the end, so
    the recorded events are byte-for-byte what an online session sends.
    ``alice`` / ``alice_init`` are the garbler's operand sources
    exactly as a :class:`~repro.serve.server.ServeProgram` holds them.
    The live IKNP extension frames the recorded pairs at replay.
    """
    # Imported lazily: core imports gc, not the other way around.
    from ..core.protocol import _expand_bits, record_material

    check_session_ot(ot)
    t0 = time.perf_counter()
    material = record_material(
        net, cycles, _expand_bits(net, "alice", alice, alice_init, cycles),
        public, public_init, epoch=epoch, rng=rng).complete()
    material.build_seconds = time.perf_counter() - t0
    return material


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
