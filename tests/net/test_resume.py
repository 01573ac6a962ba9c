"""Cycle-level checkpoint/resume: the session survives mid-run faults
and reproduces the uninterrupted run bit for bit."""

import threading

import pytest

from repro.bench_circuits import sum_combinational, sum_sequential
from repro.circuit.bits import int_to_bits
from repro.core.protocol import (
    EvaluatorParty,
    GarblerParty,
    _expand_bits,
)
from tests.helpers import run_protocol
from repro.gc.channel import ProtocolDesync
from repro.net.fault import FaultPlan, FaultRule, FaultyTransport
from repro.net.frame import frame_tag
from repro.net.links import Link, MemoryRendezvous
from repro.net.session import ResumableSession, net_digest, run_resumable_pair

X, Y = 1234, 4321


def _stream(value):
    return lambda c: [(value >> c) & 1]


class TestCleanRun:
    def test_matches_run_protocol(self):
        net, cycles = sum_sequential(32)
        base = run_protocol(net, cycles, alice=_stream(X), bob=_stream(Y))
        net2, _ = sum_sequential(32)
        a_res, b_res = run_resumable_pair(
            net2, cycles, alice=_stream(X), bob=_stream(Y), checkpoint_every=8
        )
        assert a_res.value == b_res.value == base.value == (X + Y) & 0xFFFFFFFF
        assert a_res.outputs == base.outputs
        assert a_res.stats.garbled_nonxor == base.alice_stats.garbled_nonxor
        assert a_res.tables_sent == base.tables_sent
        assert a_res.reconnects == 0 and b_res.reconnects == 0

    def test_checkpoints_land_on_the_grid(self):
        net, cycles = sum_sequential(32)
        a_res, _ = run_resumable_pair(
            net, cycles, alice=_stream(X), bob=_stream(Y), checkpoint_every=8
        )
        assert a_res.checkpoint_cycles == [0, 8, 16, 24, 32]

    def test_final_cycle_is_always_checkpointed(self):
        """A cadence that does not divide the cycle count still
        checkpoints completion, so finish() is replayable."""
        net, cycles = sum_sequential(32)
        a_res, _ = run_resumable_pair(
            net, cycles, alice=_stream(X), bob=_stream(Y), checkpoint_every=7
        )
        assert a_res.checkpoint_cycles[-1] == cycles
        assert 7 in a_res.checkpoint_cycles


class TestMidRunRecovery:
    def test_seeded_disconnect_resumes_bit_identically(self):
        """The acceptance scenario: a multi-cycle run, checkpoints
        every 8 cycles, connection killed mid-stream on a seeded
        schedule; the parties reconnect, negotiate the last common
        checkpoint, replay, and finish with the uninterrupted run's
        outputs and gate counts."""
        net, cycles = sum_sequential(32)
        base = run_protocol(net, cycles, alice=_stream(X), bob=_stream(Y))

        net2, _ = sum_sequential(32)
        wrapped = []

        def wrap(role, attempt, link):
            # Kill the garbler's 60th frame of the first connection:
            # deep enough that several checkpoints exist, far from done.
            if role == "garbler" and attempt == 0:
                faulty = FaultyTransport(
                    link, FaultPlan([FaultRule("disconnect", frame_index=60)])
                )
                wrapped.append(faulty)
                return faulty
            return link

        a_res, b_res = run_resumable_pair(
            net2,
            cycles,
            alice=_stream(X),
            bob=_stream(Y),
            checkpoint_every=8,
            timeout=2.0,
            wrap=wrap,
        )
        assert [f.action for ft in wrapped for f in ft.injected] == ["disconnect"]
        assert a_res.reconnects + b_res.reconnects >= 1

        assert a_res.value == b_res.value == base.value
        assert a_res.outputs == base.outputs == b_res.outputs
        assert a_res.stats.garbled_nonxor == base.alice_stats.garbled_nonxor
        assert a_res.stats.skipped == base.alice_stats.skipped
        assert b_res.stats.garbled_nonxor == base.bob_stats.garbled_nonxor
        assert a_res.tables_sent == base.tables_sent
        assert a_res.checkpoint_cycles == [0, 8, 16, 24, 32]
        # Retransmitted traffic is real traffic: byte totals may only
        # exceed the uninterrupted run's, never shrink.
        assert a_res.sent.payload_bytes >= base.alice_sent_bytes

    def test_disconnect_on_every_early_attempt_still_finishes(self):
        """Repeated failures: the first two connections both die; the
        third completes from the latest surviving checkpoint."""
        net, cycles = sum_sequential(32)
        base = run_protocol(net, cycles, alice=_stream(X), bob=_stream(Y))

        net2, _ = sum_sequential(32)

        def wrap(role, attempt, link):
            if role == "garbler" and attempt < 2:
                return FaultyTransport(
                    link,
                    FaultPlan([FaultRule("disconnect", frame_index=30 + 10 * attempt)]),
                )
            return link

        a_res, b_res = run_resumable_pair(
            net2,
            cycles,
            alice=_stream(X),
            bob=_stream(Y),
            checkpoint_every=4,
            timeout=2.0,
            wrap=wrap,
        )
        assert a_res.reconnects >= 2
        assert a_res.value == base.value
        assert a_res.stats.garbled_nonxor == base.alice_stats.garbled_nonxor

    def test_exhausted_attempts_propagate_the_failure(self):
        """When every connection dies, the session gives up loudly
        instead of looping forever."""
        from repro.gc.channel import ChannelError
        from repro.net.links import LinkClosed, LinkTimeout

        net, cycles = sum_combinational(32)

        def wrap(role, attempt, link):
            if role == "garbler":
                return FaultyTransport(
                    link, FaultPlan([FaultRule("disconnect", frame_index=2)])
                )
            return link

        with pytest.raises((ChannelError, LinkClosed, LinkTimeout)):
            run_resumable_pair(
                net,
                cycles,
                alice=int_to_bits(X, 32),
                bob=int_to_bits(Y, 32),
                timeout=0.5,
                max_attempts=2,
                wrap=wrap,
            )


class _CutBetweenHalves(Link):
    """A link cut at its first read after its ``n``-th ``tag`` frame:
    by default the evaluator's, after a window's packed choice bits
    (``otx-d``), before their ``otx-e`` reply."""

    def __init__(self, inner: Link, n: int, tag: str = "otx-d") -> None:
        self._inner, self._left, self.fired = inner, n, False
        self._tag = tag

    def send_bytes(self, data: bytes) -> None:
        self._left -= frame_tag(data) == self._tag
        self._inner.send_bytes(data)

    def recv_bytes(self, timeout=None) -> bytes:
        if self._left <= 0 and not self.fired:
            self.fired = True
            self._inner.close()
            return b""  # what a dead peer looks like: EOF
        return self._inner.recv_bytes(timeout=timeout)

    def close(self) -> None:
        self._inner.close()


class TestPipelinedOTRecovery:
    def test_cut_between_a_windows_halves_resumes_bit_identically(self):
        """320 Bob bits per cycle: cycle 0 is two windows (two ``otx-d``
        frames) and cycle 1's first window, its third frame, is choices
        320-575 (a pool refill at 512 inside it, so an ``otx-u`` goes
        out just before).  The link dies once that frame is sent and
        before its ``otx-e`` reply is read; the session resumes from the
        cycle-1 checkpoint to the uninterrupted run."""
        from repro.circuit import CircuitBuilder

        width, cycles = 320, 3

        def build():
            b = CircuitBuilder("wide_acc")
            x, y = b.alice_input(width), b.bob_input(width)
            acc = b.dff_bus(width)
            b.drive_dff_bus(acc, b.xor_bus(acc, b.and_bus(x, y)))
            b.set_outputs(acc)
            return b.build()

        def stream(seed):
            return lambda c: int_to_bits((seed * (c + 7) ** 9) % (1 << width), width)

        kw = dict(alice=stream(X), bob=stream(Y), ot="extension")
        base = run_protocol(build(), cycles, **kw)
        cuts = []

        def wrap(role, attempt, link):
            if role == "evaluator" and attempt == 0:
                cuts.append(_CutBetweenHalves(link, 3))
                return cuts[-1]
            return link

        a_res, b_res = run_resumable_pair(
            build(), cycles, checkpoint_every=1, timeout=5.0, wrap=wrap, **kw)
        assert [c.fired for c in cuts] == [True]
        assert a_res.reconnects + b_res.reconnects >= 1
        assert a_res.outputs == b_res.outputs == base.outputs
        assert a_res.stats == base.alice_stats
        assert a_res.tables_sent == base.tables_sent


    def test_cut_between_the_base_phase_and_the_first_pool_resumes(self):
        """The garbler's link dies after its one ``ot-b`` frame (the
        random base OTs) and before it reads the evaluator's first
        ``otx-u``: both roll back to cycle 0, redo the base phase with
        fresh exponents and finish as the uninterrupted run."""
        net, cycles = sum_sequential(32)
        kw = dict(alice=_stream(X), bob=_stream(Y), ot="extension")
        base = run_protocol(net, cycles, **kw)
        cuts = []

        def wrap(role, attempt, link):
            if role == "garbler" and attempt == 0:
                cuts.append(_CutBetweenHalves(link, 1, tag="ot-b"))
                return cuts[-1]
            return link

        a_res, b_res = run_resumable_pair(
            net, cycles, checkpoint_every=4, timeout=5.0, wrap=wrap, **kw)
        assert [c.fired for c in cuts] == [True]
        assert a_res.reconnects + b_res.reconnects >= 1
        assert a_res.outputs == b_res.outputs == base.outputs
        assert a_res.stats == base.alice_stats
        assert a_res.tables_sent == base.tables_sent


class TestHandshake:
    def _sessions(self, a_every=1, b_every=1, b_circuit=None):
        net_a, cycles = sum_combinational(32)
        net_b, _ = b_circuit() if b_circuit else sum_combinational(32)
        garbler = GarblerParty(
            net_a, cycles, _expand_bits(net_a, "alice", int_to_bits(X, 32), (), cycles)
        )
        evaluator = EvaluatorParty(
            net_b, cycles, _expand_bits(net_b, "bob", int_to_bits(Y, 32), (), cycles)
        )
        rv = MemoryRendezvous()
        a_sess = ResumableSession(
            garbler,
            connect=lambda: rv.connect("garbler", timeout=5.0),
            checkpoint_every=a_every,
            timeout=2.0,
            max_attempts=1,
        )
        b_sess = ResumableSession(
            evaluator,
            connect=lambda: rv.connect("evaluator", timeout=5.0),
            checkpoint_every=b_every,
            timeout=2.0,
            max_attempts=1,
        )
        return a_sess, b_sess

    def _run_expect_alice_failure(self, a_sess, b_sess, match):
        box = {}

        def bob_main():
            try:
                box["result"] = b_sess.run()
            except BaseException as exc:
                box["error"] = exc

        t = threading.Thread(target=bob_main, daemon=True)
        t.start()
        with pytest.raises(ProtocolDesync, match=match):
            a_sess.run()
        t.join(timeout=10)
        assert "result" not in box  # bob must not think it succeeded

    def test_checkpoint_cadence_mismatch_is_fatal(self):
        """A disagreeing resume grid cannot be reconciled later; it
        must fail at hello, not desync mid-resume."""
        a_sess, b_sess = self._sessions(a_every=1, b_every=4)
        self._run_expect_alice_failure(a_sess, b_sess, "cadence")

    def test_peer_on_the_per_transfer_wire_format_is_refused_at_hello(self):
        """A peer that still frames every transfer separately (and
        sends ``(keys, blob)`` tables) computes the digest without the
        wire-format constant: it must fail the hello, not mid-session."""
        net, cycles = sum_combinational(32)
        a_sess, b_sess = self._sessions()
        b_sess._digest = _per_transfer_digest(net, cycles)
        assert b_sess._digest != net_digest(net, cycles)
        self._run_expect_alice_failure(a_sess, b_sess, "wire formats")

    def test_peer_on_the_chosen_base_ot_wire_format_is_refused_at_hello(self):
        """A format-2 peer still sends ``ot-e`` in the extension base
        phase and ``("pub" | "lbl", ...)`` outputs."""
        net, cycles = sum_combinational(32)
        a_sess, b_sess = self._sessions()
        b_sess._digest = _per_transfer_digest(net, cycles, 2)
        assert b_sess._digest != net_digest(net, cycles)
        self._run_expect_alice_failure(a_sess, b_sess, "wire formats")

    def test_different_public_inputs_fail_the_hello_unretried(self):
        """Same netlist, different ``public_init``: the parties would
        replay different residual traces, so the hello's digest (which
        binds the public inputs) refuses them before any OT, and the
        refusal is not retried."""
        from repro.circuit import CircuitBuilder, InitSpec

        def build():
            b = CircuitBuilder("public_gated_and")
            x, y = b.alice_input(8), b.bob_input(8)
            gates = []
            for i in range(8):
                q = b.dff(init=InitSpec("public", i))
                b.drive_dff(q, q)
                gates.append(q)
            b.set_outputs(b.and_bus(gates, b.and_bus(x, y)))
            return b.build()

        net = build()
        parties = [
            cls(net, 1, _expand_bits(net, role, int_to_bits(v, 8), (), 1),
                public_init=public_init)
            for cls, role, v, public_init in (
                (GarblerParty, "alice", 0xF0, [1] * 8),
                (EvaluatorParty, "bob", 0x3C, [1] * 4 + [0] * 4))
        ]
        assert parties[0].digest != parties[1].digest
        rv = MemoryRendezvous()
        a_sess, b_sess = (
            ResumableSession(party, checkpoint_every=1, timeout=2.0,
                             max_attempts=3,
                             connect=lambda role=party.role: rv.connect(role, timeout=5.0))
            for party in parties)
        self._run_expect_alice_failure(a_sess, b_sess, "public inputs")
        assert a_sess.reconnects == 0

    def test_circuit_mismatch_is_fatal(self):
        from repro.bench_circuits import compare_combinational

        a_sess, b_sess = self._sessions(
            b_circuit=lambda: compare_combinational(32)
        )
        self._run_expect_alice_failure(a_sess, b_sess, "different circuits")

    def test_mismatch_is_not_retried(self):
        """ProtocolDesync is fatal by design: no reconnect attempts."""
        a_sess, b_sess = self._sessions(a_every=1, b_every=2)
        a_sess.max_attempts = 5
        b_sess.max_attempts = 1
        box = {}

        def bob_main():
            try:
                b_sess.run()
            except BaseException as exc:
                box["error"] = exc

        t = threading.Thread(target=bob_main, daemon=True)
        t.start()
        with pytest.raises(ProtocolDesync):
            a_sess.run()
        t.join(timeout=10)
        assert a_sess.reconnects == 0


def _per_transfer_digest(net, cycles, *wire_format):
    """``net_digest`` as computed before the wire-format constant, or
    under format 2 (``_per_transfer_digest(net, cycles, 2)``)."""
    import hashlib

    parts = (
        *wire_format,
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
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


class TestNetDigest:
    def test_digest_separates_circuits_and_cycle_counts(self):
        from repro.bench_circuits import compare_combinational

        sum_net, sum_cycles = sum_combinational(32)
        cmp_net, cmp_cycles = compare_combinational(32)
        assert net_digest(sum_net, sum_cycles) != net_digest(cmp_net, cmp_cycles)
        assert net_digest(sum_net, sum_cycles) != net_digest(sum_net, sum_cycles + 1)

    def test_digest_binds_the_public_inputs(self):
        net, cycles = sum_sequential(32)
        program = net_digest(net, cycles)
        assert net_digest(net, cycles, (), ()) == program
        assert net_digest(net, cycles, public_init=[1]) != program
        assert net_digest(net, cycles, public_init=[1]) != net_digest(
            net, cycles, public_init=[0])
        # One row for every cycle, or a cycle -> row callable: the same
        # rows are the same computation.
        assert net_digest(net, cycles, [1, 0]) == net_digest(
            net, cycles, lambda c: [1, 0])
        assert net_digest(net, cycles, [1, 0]) != net_digest(
            net, cycles, lambda c: [c & 1, 0])

    def test_digest_is_stable_across_builds(self):
        n1, c1 = sum_combinational(32)
        n2, c2 = sum_combinational(32)
        assert net_digest(n1, c1) == net_digest(n2, c2)
