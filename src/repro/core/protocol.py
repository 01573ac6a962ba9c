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
two threads over the in-memory channel (Alice sends each cycle's
surviving tables at the end of her cycle while Bob blocks for them at
the start of his, so Alice is naturally garbling cycle ``c+1`` while
Bob evaluates cycle ``c`` — the pipelining of Section 3.2), and
:class:`repro.net.session.ResumableSession` runs one party per OS
process over TCP with cycle-level checkpoint/resume.

Parties expose three resume hooks: :meth:`attach` binds (or re-binds,
after a reconnect) the transport, :meth:`snapshot` freezes trace
position + live labels + backend + OT progress at a cycle boundary,
and :meth:`restore` rolls back to a snapshot so the replayed cycles
regenerate fresh labels on both sides consistently.

Wire formats are deterministic and fixed-width for label material
(every label is exactly :data:`~repro.gc.hashing.LABEL_BYTES` bytes on
the wire) so communication totals cannot wobble with random label
values.  Nothing the trace already says crosses the wire: a cycle's
surviving tables travel as one ``tables`` blob of ``32`` bytes per
table, in the order of the cycle's kept keys, which the evaluator reads
from the trace (``ends[c]``) instead of from the frame; a cycle that
keeps no table sends no frame; and no frame carries a count, because
each receiver knows from the trace and the run lengths how many bytes
the next frame must hold (a frame of any other length is a
:class:`~repro.gc.channel.FrameCorruption`).

Synchronization argument (why the two parties agree): every decision
a SkipGate engine takes depends only on (a) public inputs, which both
have, and (b) raw-label identity plus flip bits, which evolve
identically on both sides — Alice compares zero-labels, Bob compares
held labels, and these coincide because labels are only ever created
fresh (garbling, inputs) or combined structurally (XOR, wire/inverter
passes).  The trace is therefore the same whoever builds it, and holds
label *ids*, never label bytes or delta.  Garbled tables are matched by
their deterministic per-cycle gate key, so a table filtered by Alice
(Algorithm 4 line 18) is simply absent from Bob's blob and he
substitutes a flagged dummy label (Algorithm 5 line 18).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
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
    """Alice: creates labels, garbles, transfers inputs, sends tables.

    ``delta`` defaults to a fresh draw from ``rng``; a material party
    passes the delta its recorded epoch was garbled under."""

    PROFILE_PHASE = "garble"

    def __init__(
        self,
        chan: Optional[Endpoint],
        alice_bits: Dict[Hashable, int],
        ot_group: str = "modp2048",
        rng=None,
        ot_factory=None,
        delta: Optional[int] = None,
    ) -> None:
        self.chan = chan
        self.delta = random_delta(rng) if delta is None else delta
        self._rng = rng
        self._memo: Dict[Hashable, int] = {}
        self._alice_bits = alice_bits
        if chan is None:
            #: Offline garbling (:func:`repro.gc.material.build_material`):
            #: no transport and no OT; each event lands in the open bucket.
            self._ot, self.buckets = None, [[]]
        elif ot_factory is not None:
            # The serve layer injects pre-configured OT objects (cached
            # base OTs, session-unique salts).
            self._ot = ot_factory(chan)
        else:
            self._ot = OTExtensionSender(chan, group=ot_group, rng=rng)
        #: Gate key -> 32-byte table, for the cycle being garbled.
        self._pending: Dict[int, bytes] = {}
        self._gid = 0
        self.tables_sent = 0

    def secret_label(self, key: Hashable) -> int:
        return self.secret_labels((key,))[0]

    def secret_labels(self, keys) -> List[int]:
        # Each stretch of one owner's fresh keys is one frame run: Alice's
        # held labels as one ``alice-label`` blob, Bob's label pairs as
        # one OT run.  The evaluator cuts the same stretches.
        memo, delta = self._memo, self.delta
        for owner, run in _fresh_runs(keys, memo):
            zeros = [random_label(self._rng) for _ in run]
            memo.update(zip(run, zeros))
            if owner == "alice":
                bits = self._alice_bits
                self.send("alice-label", b"".join(
                    (zero ^ (delta if bits[k] else 0)).to_bytes(LABEL_BYTES, "little")
                    for k, zero in zip(run, zeros)))
            else:
                self.send("ot", [(zero, zero ^ delta) for zero in zeros])
        return [memo[k] for k in keys]

    def send(self, tag: str, payload) -> None:
        """The one outbound path, one call per frame run: an
        ``alice-label`` or ``tables`` blob to the channel, or an
        ``("ot", pairs)`` run of Bob's label pairs to the OT sender."""
        if tag == "tables":
            self.tables_sent += len(payload) // GarbledTable.SIZE_BYTES
        if self.chan is None:
            self.buckets[-1].append((tag, payload))
        elif tag == "ot":
            self._ot.send_many(payload)
        else:
            self.chan.send(tag, payload)

    def xor(self, la: int, lb: int) -> int:
        return la ^ lb

    def garble(self, tt: int, la: int, lb: int, key: int) -> int:
        labels = [la, lb, 0]
        self.garble_many((tt,), (key,), (0,), (1,), (2,), labels)
        return labels[2]

    def garble_many(self, tts, keys, srcs_a, srcs_b, dsts, labels) -> None:
        tables = garble_run(labels, tts, srcs_a, srcs_b, dsts, self.delta, self._gid)
        self._gid += len(tables)
        self._pending.update(zip(keys, tables))

    def begin_cycle(self, cycle: int, kept_keys: Sequence[int] = ()) -> None:
        self._pending = {}

    def end_cycle(self, kept_keys: List[int], dropped_keys: List[int]) -> None:
        # One blob per cycle that keeps a table: 2 x 16-byte ciphertexts
        # per surviving table, in kept-key order.  The keys themselves
        # are in both parties' trace, so they stay off the wire.
        if kept_keys:
            self.send("tables", b"".join(map(self._pending.__getitem__, kept_keys)))

    # -- resume hooks --------------------------------------------------------

    def rebind(self, chan: Endpoint) -> None:
        self.chan = chan
        self._ot.rebind(chan)

    def snapshot(self) -> dict:
        return {
            "memo": dict(self._memo),
            "gid": self._gid,
            "tables_sent": self.tables_sent,
            "ot": self._ot.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        self._memo = dict(snap["memo"])
        self._gid = snap["gid"]
        self.tables_sent = snap["tables_sent"]
        self._pending = {}
        self._ot.restore(snap["ot"])


class EvaluatorBackend(Backend):
    """Bob: receives labels/tables, evaluates, flags dummy labels."""

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
        self._rng = rng
        self._memo: Dict[Hashable, int] = {}
        self._bob_bits = bob_bits
        if ot_factory is not None:
            self._ot = ot_factory(chan)
        else:
            self._ot = OTExtensionReceiver(chan, group=ot_group, rng=rng)
        self._blob = b""
        self._offsets: Dict[int, int] = {}
        self._gid = 0
        #: Labels invented for filtered gates (Algorithm 5 line 18);
        #: kept to assert none ever reaches a live output.
        self.invalid_labels: set = set()

    def secret_label(self, key: Hashable) -> int:
        return self.secret_labels((key,))[0]

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

    def garble(self, tt: int, la: int, lb: int, key: int) -> int:
        labels = [la, lb, 0]
        self.garble_many((tt,), (key,), (0,), (1,), (2,), labels)
        return labels[2]

    def garble_many(self, tts, keys, srcs_a, srcs_b, dsts, labels) -> None:
        offsets = map(self._offsets.get, keys)
        evaluate_run(labels, self._blob, offsets, srcs_a, srcs_b, dsts,
                     self._gid, self._dummy_label)
        self._gid += len(keys)

    def _dummy_label(self) -> int:
        # Alice filtered this table: its fanout will reach zero.  Track
        # the secret with a flagged unique label.
        dummy = random_label(self._rng)
        self.invalid_labels.add(dummy)
        return dummy

    def begin_cycle(self, cycle: int, kept_keys: Sequence[int] = ()) -> None:
        # ``kept_keys`` come from the trace: a cycle that keeps no table
        # has no frame to wait for.  The tables stay in the received
        # blob: a gate key maps to its table's byte offset.
        size = GarbledTable.SIZE_BYTES
        self._blob = b""
        if kept_keys:
            self._blob = check_blob(self.chan.recv("tables"),
                                    size * len(kept_keys), "tables")
        self._offsets = dict(zip(kept_keys, range(0, len(self._blob), size)))

    # -- resume hooks --------------------------------------------------------

    def rebind(self, chan: Endpoint) -> None:
        self.chan = chan
        self._ot.rebind(chan)

    def snapshot(self) -> dict:
        return {
            "memo": dict(self._memo),
            "gid": self._gid,
            # Never mutated, only replaced at each begin_cycle.
            "tables": (self._blob, self._offsets),
            "invalid": set(self.invalid_labels),
            "ot": self._ot.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        self._memo = dict(snap["memo"])
        self._gid = snap["gid"]
        self._blob, self._offsets = snap["tables"]
        self.invalid_labels = set(snap["invalid"])
        self._ot.restore(snap["ot"])


# ---------------------------------------------------------------------------
# Parties: transport-agnostic protocol state machines.
# ---------------------------------------------------------------------------


class _Party:
    """Shared plumbing of the two protocol parties."""

    role = "?"

    def __init__(
        self,
        net: Netlist,
        cycles: int,
        bits: Dict[Hashable, int],
        public: BitSource = (),
        public_init: Sequence[int] = (),
        ot_group: str = "modp2048",
        rng=None,
        obs=None,
        ot_factory=None,
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
        self.backend = None
        #: Not a sweeping engine: the replayer of the program's residual
        #: trace (the name is what the session layers read).
        self.engine: Optional[TraceReplayer] = None

    def _make_backend(self, chan: Endpoint):
        raise NotImplementedError

    def attach(self, chan: Endpoint) -> None:
        """Bind (or re-bind, after a reconnect) the transport."""
        self.chan = chan
        if self.backend is None:
            self.backend = self._make_backend(chan)
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
        """Run all remaining cycles (Algorithms 1-2 loop);
        ``on_boundary(completed_cycles)`` fires after each one (the
        session checkpoints there)."""
        while self.engine.cycle < self.cycles:
            self.engine.step()
            if on_boundary is not None:
                on_boundary(self.engine.cycle)

    # -- resume hooks --------------------------------------------------------

    def snapshot(self) -> dict:
        """Freeze protocol state at a cycle boundary."""
        return {
            "replayer": self.engine.snapshot(),
            "backend": self.backend.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        """Roll back to a snapshot (after :meth:`attach`)."""
        self.engine.restore(snap["replayer"])
        self.backend.restore(snap["backend"])

    def finish(self) -> List[int]:
        raise NotImplementedError


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


class GarblerParty(_Party):
    """Alice: garbles, decodes Bob's output labels, shares the result."""

    role = "garbler"

    def _make_backend(self, chan: Endpoint) -> GarblerBackend:
        return GarblerBackend(
            chan,
            self._bits,
            ot_group=self._ot_group,
            rng=self._rng,
            ot_factory=self._ot_factory,
        )

    def finish(self) -> List[int]:
        return finish_garbler(self, self.engine.output_states(), self.backend.delta)


def finish_garbler(party, out_states, delta: int) -> List[int]:
    """Alice's closing exchange, for a fresh or a material party:
    receive Bob's output labels, decode, share the cleartext
    (Algorithm 1 lines 16-17) and wait for Bob's goodbye."""
    chan = party.chan
    outputs = decode_outputs(chan.recv("outputs"), out_states, delta)
    # Stash the decoded result before waiting for the goodbye: a
    # Bob that dies right here leaves the session failed, but the
    # output is already known — the serve layer parks it for
    # replay so a redial recovers it instead of losing it.
    party.last_outputs = list(outputs)
    chan.send("result", pack_bits(outputs))
    # Bob acknowledges receipt so a lost result frame is detected
    # here (and replayed by the resume layer) instead of leaving
    # Bob hanging after Alice declared victory.
    chan.recv("bye")
    return outputs


class EvaluatorParty(_Party):
    """Bob: evaluates, returns his output labels, learns the result."""

    role = "evaluator"

    def _make_backend(self, chan: Endpoint) -> EvaluatorBackend:
        return EvaluatorBackend(
            chan,
            self._bits,
            ot_group=self._ot_group,
            rng=self._rng,
            ot_factory=self._ot_factory,
        )

    def finish(self) -> List[int]:
        """Send the labels of the secret outputs to Alice (the public
        ones and every flip are in her trace too); receive the decoded
        result as packed bits."""
        chan = self.chan
        states = self.engine.output_states()
        invalid = self.backend.invalid_labels
        labels = []
        for s in states:
            if type(s) is not int:
                if s[0] in invalid:
                    raise AssertionError(
                        "a dummy label for a filtered gate reached an output"
                    )
                labels.append(s[0].to_bytes(LABEL_BYTES, "little"))
        chan.send("outputs", b"".join(labels))
        result = unpack_bits(chan.recv("result"), len(states), "result")
        chan.send("bye", None)
        return result


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
        alice_stats = a_party.engine.stats
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
        tables_sent=a_party.backend.tables_sent,
        alice_sent_bytes=a_end.sent.payload_bytes,
        bob_sent_bytes=b_end.sent.payload_bytes,
        alice_wait_seconds=a_end.received.wait_seconds,
        bob_wait_seconds=b_end.received.wait_seconds,
        timing=timing_summary(obs) if obs.enabled else None,
    )
