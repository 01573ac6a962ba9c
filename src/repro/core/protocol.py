"""The two-party SkipGate protocol (Algorithms 1 and 2, with crypto).

This module runs the *real* protocol: Alice garbles with half-gates,
Bob receives his input labels through oblivious transfer, and garbled
tables travel over a byte-counted channel.  Which gates are garbled,
computed locally or skipped is decided — from public information and
label identity only — by a SkipGate engine, but not here and not per
session: each party fetches the program's *residual trace*
(:mod:`repro.core.trace`: the engine's backend-call stream, recorded
once per process for a given netlist, cycle count and public input)
and replays it against its own crypto backend.  The replay hands the
backend *runs*, not rows: a run of garbles is one call of the half-gate
run kernel (:func:`~repro.gc.garble.garble_run` /
:func:`~repro.gc.garble.evaluate_run`), a stretch of Alice's input
labels is one ``alice-label`` frame, and a stretch of Bob's is one IKNP
extension run (:mod:`repro.gc.ot_extension`: ``send_many`` /
``receive_many``), framed a pool window at a time instead of one round
trip per bit.

The protocol logic lives in two *party* objects —
:class:`GarblerParty` and :class:`EvaluatorParty` — that are agnostic
about what carries their messages: :func:`_run_protocol` (behind
:func:`repro.api.run` with ``mode="protocol"``) runs them in
two threads over the in-memory channel, and
:class:`repro.net.session.ResumableSession` runs one party per OS
process over TCP with cycle-level checkpoint/resume.  Alice only ever
*pushes* label material, none of it depending on what Bob sends, so
her party sends a recorded transcript
(:class:`~repro.gc.material.GarbledMaterial`): prebuilt offline, or
garbled just in time by her :class:`GarblerBackend` recorder, one
cycle's bucket when the party reaches it — so Alice is garbling cycle
``c+1`` while Bob evaluates cycle ``c`` (the pipelining of Section
3.2).  Bob replays the trace against a channel-bound
:class:`EvaluatorBackend`.

Parties expose three resume hooks: :meth:`attach` binds (or re-binds,
after a reconnect) the transport, :meth:`snapshot` freezes progress at
a cycle boundary (Alice: cycle, tables sent and OT state; Bob: trace
position, live labels, backend and OT state), and :meth:`restore`
rolls back to a snapshot: Alice resends the recorded buckets from
there and Bob evaluates them again.

Wire formats are deterministic and fixed-width for label material
(every label is exactly :data:`~repro.gc.hashing.LABEL_BYTES` bytes on
the wire) so communication totals cannot wobble with random label
values.  Nothing the trace already says crosses the wire: a cycle's
tables travel as one ``tables`` blob of ``32`` bytes per table, in
trace order, each table at its garble row's position; a cycle that
keeps no table sends no frame; and no frame carries a count, because
each receiver knows from the trace (``tables[c]``) and the run lengths
how many bytes the next frame must hold (a frame of any other length
is a :class:`~repro.gc.channel.FrameCorruption`).

Synchronization argument (why the two parties agree): every decision
a SkipGate engine takes depends only on (a) public inputs, which both
have, and (b) raw-label identity plus flip bits, which evolve
identically on both sides — Alice compares zero-labels, Bob compares
held labels, and these coincide because labels are only ever created
fresh (garbling, inputs) or combined structurally (XOR, wire/inverter
passes).  The trace is therefore the same whoever builds it (Alice's
recorder replays the very trace Bob replays), and holds label *ids*,
never label bytes or delta.  A table the engine filters (Algorithm 4
line 18) has no row in the trace, so neither party garbles it, sends
it or stands in a dummy label for it (Algorithm 5 line 18): the
trace's build audit has already shown that nothing reads it.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..circuit.bits import bits_to_int
from ..circuit.netlist import Netlist
from ..gc.channel import Endpoint, ProtocolDesync, channel_pair, check_blob
from ..gc.garble import (
    GarbledTable,
    evaluate_run,
    garble_run,
    random_delta,
    random_label,
)
from ..gc.hashing import HASH_STATS, LABEL_BYTES
from ..gc.material import GarbledMaterial, MaterialEpochMismatch
from ..gc.ot import pack_bits, unpack_bits
from ..gc.ot_extension import (
    OTExtensionReceiver,
    OTExtensionSender,
    check_session_ot,
)
from ..obs import NULL_OBS, timing_summary
from .backend import Backend
from .results import BaseResult
from .stats import RunStats
from .trace import TraceReplayer, residual_trace

BitSource = Union[Sequence[int], "callable"]


def _fresh_runs(keys, memo):
    """``(owner, keys)`` for each stretch of one owner's keys not yet in
    ``memo``: the unit of one label frame run.  Both parties cut the
    same stretches, since their memos hold the same keys."""
    fresh = dict.fromkeys(k for k in keys if k not in memo)
    for owner, run in groupby(fresh, key=itemgetter(1)):
        if owner not in ("alice", "bob"):  # pragma: no cover - defensive
            raise ValueError(f"unknown label owner {owner!r}")
        yield owner, list(run)


class GarblerBackend(Backend):
    """Alice's recorder: creates labels and garbles, appending each
    outbound event to the open bucket of ``buckets`` (the init bucket
    first, then one per cycle): an ``alice-label`` or ``tables`` blob,
    or an ``("ot", pairs)`` run of Bob's label pairs.  One event is one
    frame run; :class:`GarblerParty` sends them.  ``delta`` is the
    first draw from ``rng``."""

    PROFILE_PHASE = "garble"

    def __init__(self, alice_bits: Dict[Hashable, int], rng=None) -> None:
        self.delta = random_delta(rng)
        self._rng = rng
        self._memo: Dict[Hashable, int] = {}
        self._alice_bits = alice_bits
        self.buckets: List[List[tuple]] = [[]]
        #: The open cycle's 32-byte tables, in trace order.
        self._tables: List[bytes] = []

    def secret_labels(self, keys) -> List[int]:
        # Each stretch of one owner's fresh keys is one frame run: Alice's
        # held labels as one ``alice-label`` blob, Bob's label pairs as
        # one OT run.  The evaluator cuts the same stretches.
        memo, delta, bucket = self._memo, self.delta, self.buckets[-1]
        for owner, run in _fresh_runs(keys, memo):
            zeros = [random_label(self._rng) for _ in run]
            memo.update(zip(run, zeros))
            if owner == "alice":
                bits = self._alice_bits
                bucket.append(("alice-label", b"".join(
                    (zero ^ (delta if bits[k] else 0)).to_bytes(LABEL_BYTES, "little")
                    for k, zero in zip(run, zeros))))
            else:
                bucket.append(("ot", [(zero, zero ^ delta) for zero in zeros]))
        return [memo[k] for k in keys]

    def xor(self, la: int, lb: int) -> int:
        return la ^ lb

    def garble_many(self, tts, gids, srcs_a, srcs_b, dsts, labels) -> None:
        self._tables += garble_run(labels, tts, gids, srcs_a, srcs_b, dsts, self.delta)

    def end_cycle(self) -> None:
        # One blob per cycle that keeps a table: 2 x 16-byte ciphertexts
        # per table, in the order they were garbled.
        if self._tables:
            self.buckets[-1].append(("tables", b"".join(self._tables)))
            self._tables = []


def record_material(
    net: Netlist,
    cycles: int,
    bits: Dict[Hashable, int],
    public: BitSource = (),
    public_init: Sequence[int] = (),
    *,
    epoch: Optional[int] = None,
    rng=None,
    obs=NULL_OBS,
) -> GarbledMaterial:
    """Start recording Alice's transcript of ``net``: a
    :class:`~repro.gc.material.GarbledMaterial` whose init bucket is
    garbled here and whose later buckets are garbled on demand
    (:meth:`~repro.gc.material.GarbledMaterial.bucket`) by a
    :class:`GarblerBackend` replaying the program's residual trace.
    ``rng`` is drawn for delta, then for labels in trace order."""
    from ..net.session import net_digest

    backend = GarblerBackend(bits, rng)
    recorder = TraceReplayer(
        residual_trace(net, cycles, public, public_init, obs=obs), backend, obs)
    return GarbledMaterial(
        net=net,
        digest=net_digest(net, cycles, public, public_init),
        cycles=cycles,
        epoch=epoch,
        delta=backend.delta,
        buckets=backend.buckets,
        output_states=None,
        stats=recorder.trace.stats.prefix(cycles),
        recorder=recorder,
    )


class EvaluatorBackend(Backend):
    """Bob: receives labels/tables, evaluates."""

    PROFILE_PHASE = "eval"

    def __init__(
        self,
        chan: Endpoint,
        bob_bits: Dict[Hashable, int],
        ot_group: str = "modp2048",
        rng=None,
        ot_factory=None,
    ) -> None:
        self.chan = chan
        self._memo: Dict[Hashable, int] = {}
        self._bob_bits = bob_bits
        if ot_factory is not None:
            self._ot = ot_factory(chan)
        else:
            self._ot = OTExtensionReceiver(chan, group=ot_group, rng=rng)
        #: What the open cycle's runs have not yet read of its table blob.
        self._blob = memoryview(b"")

    def secret_labels(self, keys) -> List[int]:
        # The garbler's stretches: one ``alice-label`` blob of exactly
        # the run's labels, or one OT run whose choice frames go out a
        # window at a time.
        memo = self._memo
        for owner, run in _fresh_runs(keys, memo):
            if owner == "alice":
                blob = check_blob(self.chan.recv("alice-label"),
                                  LABEL_BYTES * len(run), "alice-label")
                memo.update(zip(run, (
                    int.from_bytes(blob[lo : lo + LABEL_BYTES], "little")
                    for lo in range(0, len(blob), LABEL_BYTES))))
            else:
                choices = [self._bob_bits[k] for k in run]
                memo.update(zip(run, self._ot.receive_many(choices)))
        return [memo[k] for k in keys]

    def xor(self, la: int, lb: int) -> int:
        return la ^ lb

    def garble_many(self, tts, gids, srcs_a, srcs_b, dsts, labels) -> None:
        n = GarbledTable.SIZE_BYTES * len(gids)
        evaluate_run(labels, self._blob[:n], gids, srcs_a, srcs_b, dsts)
        self._blob = self._blob[n:]

    def begin_cycle(self, cycle: int, tables: int = 0) -> None:
        # ``tables`` comes from the trace: a cycle that keeps no table
        # has no frame to wait for.
        if tables:
            self._blob = memoryview(check_blob(
                self.chan.recv("tables"), GarbledTable.SIZE_BYTES * tables, "tables"))

    # -- resume hooks --------------------------------------------------------

    def rebind(self, chan: Endpoint) -> None:
        self.chan = chan
        self._ot.rebind(chan)

    def snapshot(self) -> dict:
        # At a cycle boundary the cycle's table blob is fully read.
        return {"memo": dict(self._memo), "ot": self._ot.snapshot()}

    def restore(self, snap: dict) -> None:
        self._memo = dict(snap["memo"])
        self._ot.restore(snap["ot"])


# ---------------------------------------------------------------------------
# Parties: transport-agnostic protocol state machines.
# ---------------------------------------------------------------------------


def decode_outputs(payload, out_states, delta: int) -> List[int]:
    """Decode Bob's ``outputs`` frame against Alice's output states.

    ``out_states`` holds one public bit or ``(zero_label, flip[, ...])``
    secret state per output, both fixed by the residual trace; the frame
    holds only the 16-byte labels of the secret outputs, in order.  A
    frame of any other length is a
    :class:`~repro.gc.channel.FrameCorruption`; a label that is neither
    ``W0`` nor ``W0 ^ delta`` is a :class:`~repro.gc.channel.ProtocolDesync`.
    """
    n_labels = sum(type(s) is not int for s in out_states)
    blob = check_blob(payload, LABEL_BYTES * n_labels, "outputs")
    outputs: List[int] = []
    lo = 0
    for s in out_states:
        if type(s) is int:
            outputs.append(s)
            continue
        label = int.from_bytes(blob[lo : lo + LABEL_BYTES], "little")
        lo += LABEL_BYTES
        zero, flip = s[0], s[1]
        if label == zero:
            outputs.append(flip)
        elif label == zero ^ delta:
            outputs.append(1 ^ flip)
        else:
            raise ProtocolDesync("Bob returned an unknown output label")
    return outputs


class GarblerParty:
    """Alice: sends her garbled material, decodes Bob's output labels,
    shares the result.

    The party holds a :class:`~repro.gc.material.GarbledMaterial`, a
    live IKNP sender, the channel and ``tables_sent``.  The constructor
    is the just-in-time source: it records the init bucket, and
    :meth:`run_cycles` garbles the bucket of cycle ``c`` when it
    reaches it, so across processes Alice garbles cycle ``c+1`` while
    Bob evaluates cycle ``c`` (the pipelining of Section 3.2).
    :meth:`from_material` takes prebuilt material instead: a cached
    delta epoch, or the material of an adopted handoff.  Either way a
    send is the same: an ``alice-label`` or ``tables`` blob to the
    channel, an ``("ot", pairs)`` run to the sender's ``send_many``.
    A checkpoint is (epoch, digest, cycle, ``tables_sent``, OT state):
    a rollback resends recorded buckets, and :meth:`restore` refuses a
    checkpoint of other material.
    """

    role = "garbler"

    def __init__(
        self,
        net: Netlist,
        cycles: int,
        bits: Dict[Hashable, int],
        public: BitSource = (),
        public_init: Sequence[int] = (),
        ot_group: str = "modp2048",
        rng=None,
        ot_factory=None,
        obs=None,
    ) -> None:
        self._hold(
            record_material(net, cycles, bits, public, public_init, rng=rng,
                            obs=NULL_OBS if obs is None else obs),
            ot_factory or partial(OTExtensionSender, group=ot_group, rng=rng))

    @classmethod
    def from_material(cls, material: GarbledMaterial, *, ot_factory=None,
                      resume: bool = False) -> "GarblerParty":
        """The party for prebuilt material.  ``resume=True`` adopts a
        handed-off session: its evaluator already holds the init labels,
        so the first attach must not send them (an unsolicited
        ``alice-label`` frame would desync the peer's resume)."""
        party = cls.__new__(cls)
        party._hold(material, ot_factory or OTExtensionSender, resume)
        return party

    def _hold(self, material: GarbledMaterial, ot_factory, resume: bool = False) -> None:
        self.material = material
        self.net, self.cycles, self.digest = material.net, material.cycles, material.digest
        self.material_epoch = material.epoch
        self._ot_factory, self._resume = ot_factory, resume
        self.chan: Optional[Endpoint] = None
        self._ot = None
        self.cycle = self.tables_sent = 0
        #: The decoded result, stashed by :meth:`finish` before Bob's goodbye.
        self.last_outputs: Optional[List[int]] = None

    @property
    def engine(self) -> GarbledMaterial:
        """What the session layers read of an engine: ``stats``."""
        return self.material

    @property
    def backend(self) -> "GarblerParty":
        """What the session layers read of a backend: ``tables_sent``."""
        return self

    def _send(self, bucket: List[tuple]) -> None:
        for tag, payload in bucket:
            if tag == "ot":
                self._ot.send_many(payload)
                continue
            if tag == "tables":
                self.tables_sent += len(payload) // GarbledTable.SIZE_BYTES
            self.chan.send(tag, payload)

    def attach(self, chan: Endpoint) -> None:
        """Bind (or re-bind, after a reconnect) the transport; the first
        attach starts the OT sender and sends the init bucket."""
        self.chan = chan
        if self._ot is not None:
            self._ot.rebind(chan)
            return
        self._ot = self._ot_factory(chan)
        if not self._resume:
            self._send(self.material.buckets[0])

    def run_cycles(self, on_boundary=None) -> None:
        """Send every remaining cycle's bucket, garbling it first if the
        material has not reached it; ``on_boundary(completed_cycles)``
        fires after each one (the session checkpoints there)."""
        while self.cycle < self.cycles:
            self._send(self.material.bucket(self.cycle + 1))
            self.cycle += 1
            if on_boundary is not None:
                on_boundary(self.cycle)

    def finish(self) -> List[int]:
        """Receive Bob's output labels, decode, share the cleartext
        (Algorithm 1 lines 16-17) and wait for Bob's goodbye."""
        chan, material = self.chan, self.material.complete()
        outputs = decode_outputs(chan.recv("outputs"), material.output_states,
                                 material.delta)
        # Stash the decoded result before waiting for the goodbye: a
        # Bob that dies right here leaves the session failed, but the
        # output is already known — the serve layer parks it for
        # replay so a redial recovers it instead of losing it.
        self.last_outputs = list(outputs)
        chan.send("result", pack_bits(outputs))
        # Bob acknowledges receipt so a lost result frame is detected
        # here (and replayed by the resume layer) instead of leaving
        # Bob hanging after Alice declared victory.
        chan.recv("bye")
        return outputs

    # -- resume hooks --------------------------------------------------------

    def snapshot(self) -> dict:
        """Freeze send progress; the material's epoch rides along."""
        return {
            "epoch": self.material.epoch,
            "digest": self.material.digest,
            "cycle": self.cycle,
            "tables_sent": self.tables_sent,
            "ot": self._ot.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        """Roll back to a snapshot (after :meth:`attach`)."""
        material = self.material
        if snap["epoch"] != material.epoch or snap["digest"] != material.digest:
            raise MaterialEpochMismatch(
                f"checkpoint is for material epoch {snap['epoch']} "
                f"(digest {snap['digest']}), party holds epoch "
                f"{material.epoch} (digest {material.digest})"
            )
        self.cycle, self.tables_sent = snap["cycle"], snap["tables_sent"]
        self._ot.restore(snap["ot"])


class EvaluatorParty:
    """Bob: replays the program's residual trace against a
    channel-bound :class:`EvaluatorBackend`, returns his output labels,
    learns the result."""

    role = "evaluator"

    def __init__(
        self,
        net: Netlist,
        cycles: int,
        bits: Dict[Hashable, int],
        public: BitSource = (),
        public_init: Sequence[int] = (),
        ot_group: str = "modp2048",
        rng=None,
        ot_factory=None,
        obs=None,
    ) -> None:
        self.net = net
        self.cycles = cycles
        self._bits = bits
        self._public = public
        self._public_init = public_init
        self._ot_group = ot_group
        self._ot_factory = ot_factory
        self._rng = rng
        self.obs = NULL_OBS if obs is None else obs
        self.chan: Optional[Endpoint] = None
        self.backend: Optional[EvaluatorBackend] = None
        #: Not a sweeping engine: the replayer of the program's residual
        #: trace (the name is what the session layers read).
        self.engine: Optional[TraceReplayer] = None

    def attach(self, chan: Endpoint) -> None:
        """Bind (or re-bind, after a reconnect) the transport."""
        self.chan = chan
        if self.backend is None:
            self.backend = EvaluatorBackend(
                chan, self._bits, ot_group=self._ot_group, rng=self._rng,
                ot_factory=self._ot_factory)
            trace = residual_trace(
                self.net, self.cycles, self._public, self._public_init,
                obs=self.obs,
            )
            self.engine = TraceReplayer(trace, self.backend, self.obs)
        else:
            self.backend.rebind(chan)

    @property
    def cycle(self) -> int:
        """Number of completed cycles."""
        return 0 if self.engine is None else self.engine.cycle

    @property
    def digest(self) -> str:
        """The ``net-hello`` digest: circuit, cycles and public inputs."""
        from ..net.session import net_digest

        return net_digest(self.net, self.cycles, self._public, self._public_init)

    def run_cycles(self, on_boundary=None) -> None:
        """Run all remaining cycles (Algorithm 2 loop);
        ``on_boundary(completed_cycles)`` fires after each one."""
        while self.engine.cycle < self.cycles:
            self.engine.step()
            if on_boundary is not None:
                on_boundary(self.engine.cycle)

    def finish(self) -> List[int]:
        """Send the labels of the secret outputs to Alice (the public
        ones and every flip are in her trace too); receive the decoded
        result as packed bits."""
        chan = self.chan
        states = self.engine.output_states()
        chan.send("outputs", b"".join(
            s[0].to_bytes(LABEL_BYTES, "little") for s in states if type(s) is not int))
        result = unpack_bits(chan.recv("result"), len(states), "result")
        chan.send("bye", None)
        return result

    # -- resume hooks --------------------------------------------------------

    def snapshot(self) -> dict:
        """Freeze trace position, label table, backend and OT state at a
        cycle boundary."""
        return {
            "replayer": self.engine.snapshot(),
            "backend": self.backend.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        """Roll back to a snapshot (after :meth:`attach`)."""
        self.engine.restore(snap["replayer"])
        self.backend.restore(snap["backend"])


@dataclass(kw_only=True)
class ProtocolResult(BaseResult):
    """Everything the harness wants to know about a protocol run.

    The shared surface (``outputs``, ``value``, ``stats``, ``timing``,
    ``garbled_nonxor``) comes from :class:`~repro.core.results.BaseResult`;
    ``stats`` is the garbler's view, bit-identical to ``bob_stats``.
    """

    alice_stats: RunStats
    bob_stats: RunStats
    tables_sent: int
    alice_sent_bytes: int
    bob_sent_bytes: int
    #: Seconds each party spent blocked on ``recv`` (pipelining slack).
    alice_wait_seconds: float = 0.0
    bob_wait_seconds: float = 0.0


def _expand_bits(
    net: Netlist, role: str, per_cycle: Sequence[int], init: Sequence[int], cycles: int
) -> Dict[Hashable, int]:
    """Map engine label keys to the owning party's actual bits."""
    bits: Dict[Hashable, int] = {}
    wires = net.inputs[role]
    for cycle in range(cycles):
        row = per_cycle(cycle) if callable(per_cycle) else per_cycle
        if len(row) != len(wires):
            raise ValueError(f"{role}: expected {len(wires)} bits per cycle")
        for i, bit in enumerate(row):
            bits[("in", role, cycle, i)] = bit & 1
    for i, bit in enumerate(init):
        bits[("init", role, i)] = bit & 1
    return bits


def make_parties(
    net: Netlist,
    cycles: int,
    alice: Sequence[int] = (),
    bob: Sequence[int] = (),
    public: Sequence[int] = (),
    alice_init: Sequence[int] = (),
    bob_init: Sequence[int] = (),
    public_init: Sequence[int] = (),
    ot_group: str = "modp512",
    # Only benchmarks/spine passes it; ROADMAP item 1(b) deletes it.
    ot: str = "extension",
    obs=None,
    seed: Optional[int] = None,
) -> Tuple[GarblerParty, EvaluatorParty]:
    """Build the two party objects for one protocol run.

    Convenience used by the in-process runners and the tests; real
    two-process deployments construct only their own side (each party
    needs only its own private bits).  ``seed`` makes label generation
    deterministic (testing); the default draws from the OS.
    """
    check_session_ot(ot)
    a_rng = random.Random(seed) if seed is not None else None
    b_rng = random.Random(seed + 1) if seed is not None else None
    return (
        GarblerParty(
            net,
            cycles,
            _expand_bits(net, "alice", alice, alice_init, cycles),
            public=public,
            public_init=public_init,
            ot_group=ot_group,
            rng=a_rng,
            obs=obs,
        ),
        EvaluatorParty(
            net,
            cycles,
            _expand_bits(net, "bob", bob, bob_init, cycles),
            public=public,
            public_init=public_init,
            ot_group=ot_group,
            rng=b_rng,
            obs=obs,
        ),
    )


def _run_protocol(
    net: Netlist,
    cycles: int,
    alice: Sequence[int] = (),
    bob: Sequence[int] = (),
    public: Sequence[int] = (),
    alice_init: Sequence[int] = (),
    bob_init: Sequence[int] = (),
    public_init: Sequence[int] = (),
    ot_group: str = "modp512",
    timeout: Optional[float] = None,
    obs=None,
    seed: Optional[int] = None,
) -> ProtocolResult:
    """Run the full two-party protocol and return the decoded output.

    Alice plays the garbler with inputs ``alice``/``alice_init``; Bob
    evaluates with ``bob``/``bob_init``.  Both know ``public`` (per
    cycle) and ``public_init`` (the public input ``p``).  At the end
    Bob sends his output labels to Alice, Alice decodes and shares the
    cleartext result (Algorithm 1 lines 16-17), so both learn ``c``.
    Bob's input labels travel by IKNP extension: kappa base OTs
    amortized over all of his input bits.

    ``timeout`` is the channel receive deadline; the default ``None``
    blocks until the peer delivers or aborts (large circuits exceed
    any fixed deadline).  Any failure on either side — including a
    :class:`~repro.gc.channel.ProtocolDesync` — aborts the peer so
    neither party is left blocked.  ``obs`` enables per-phase timing
    (garble / eval / channel-wait / reduce) and per-cycle trace events
    for both parties.
    """
    obs = NULL_OBS if obs is None else obs
    obs.set_thread_label("alice")
    hash_calls0 = HASH_STATS.calls if obs.enabled else 0
    a_end, b_end = channel_pair(timeout=timeout, obs=obs)
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
        seed=seed,
    )

    bob_box: dict = {}

    def bob_main() -> None:
        try:
            obs.set_thread_label("bob")
            b_party.attach(b_end)
            b_party.run_cycles()
            bob_box["outputs"] = b_party.finish()
            bob_box["stats"] = b_party.engine.stats
        except BaseException as exc:  # pragma: no cover - error plumbing
            bob_box["error"] = exc
            b_end.abort()

    bob_thread = threading.Thread(target=bob_main, name="bob", daemon=True)
    bob_thread.start()

    try:
        a_party.attach(a_end)
        a_party.run_cycles()
        outputs = a_party.finish()
        alice_stats = a_party.material.stats
    except BaseException:
        a_end.abort()
        bob_thread.join(timeout=5.0)
        raise

    bob_thread.join(timeout=timeout)
    if "error" in bob_box:
        raise bob_box["error"]

    if obs.enabled:
        obs.inc("hash.calls", HASH_STATS.calls - hash_calls0)
    return ProtocolResult(
        outputs=outputs,
        value=bits_to_int(outputs),
        stats=alice_stats,
        alice_stats=alice_stats,
        bob_stats=bob_box["stats"],
        tables_sent=a_party.tables_sent,
        alice_sent_bytes=a_end.sent.payload_bytes,
        bob_sent_bytes=b_end.sent.payload_bytes,
        alice_wait_seconds=a_end.received.wait_seconds,
        bob_wait_seconds=b_end.received.wait_seconds,
        timing=timing_summary(obs) if obs.enabled else None,
    )
