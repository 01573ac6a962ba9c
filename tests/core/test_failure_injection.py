"""Failure injection: the protocol detects tampering and desyncs.

Honest-but-curious security does not require active-attack resistance,
but a production-quality implementation should *fail loudly* rather
than silently produce garbage when a table is corrupted, a message is
dropped, or the parties disagree on the circuit.
"""

import functools
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder
from repro.circuit import modules as M
from repro.circuit.bits import int_to_bits
from repro.core.protocol import (
    EvaluatorBackend,
    GarblerBackend,
    decode_outputs,
    make_parties,
)
from tests.helpers import run_protocol
from repro.core import SkipGateEngine
from repro.core.trace import TraceReplayer, residual_trace
from repro.gc.channel import (
    ChannelClosed,
    FrameCorruption,
    ProtocolDesync,
    channel_pair,
)
from repro.gc.garble import GarbledTable
from repro.net.cli import _registry


def adder_net(width=8):
    b = CircuitBuilder()
    x = b.alice_input(width)
    y = b.bob_input(width)
    b.set_outputs(M.ripple_add(b, x, y))
    return b.build()


class TamperingEndpoint:
    """Channel endpoint wrapper that corrupts garbled tables."""

    def __init__(self, inner, corrupt_tag):
        self._inner = inner
        self._tag = corrupt_tag
        self.sent = inner.sent

    def send(self, tag, payload):
        if tag == self._tag and tag == "tables":
            # Corrupt both halves of every table: the evaluator only
            # consumes a half when the matching permute bit is set, so
            # corrupting one half of one table would go unnoticed with
            # probability 1/2.  The halves get different masks: with
            # both permute bits set the evaluator XORs both halves in,
            # and one shared mask would cancel itself (then the 7 tables
            # of the adder all went unnoticed once in ~128 runs).
            mask = bytes([0xA5] * 16 + [0x5A] * 16)
            payload = bytes(b ^ mask[i % GarbledTable.SIZE_BYTES]
                            for i, b in enumerate(payload))
        self._inner.send(tag, payload)

    def recv(self, tag, **kw):
        # Forward the caller's timeout (or absence thereof) unchanged:
        # imposing our own default here silently overrode the channel's
        # timeout discipline.
        return self._inner.recv(tag, **kw)

    def abort(self):
        self._inner.abort()


class TestTampering:
    def test_corrupted_table_is_detected_at_decode(self):
        """Flipping bits in a garbled table gives Bob a label that is
        neither output label; Alice's decode raises."""
        net = adder_net()
        a_end, b_end = channel_pair()
        tampered = TamperingEndpoint(a_end, "tables")

        alice_bits = {("in", "alice", 0, i): (5 >> i) & 1 for i in range(8)}
        bob_bits = {("in", "bob", 0, i): (9 >> i) & 1 for i in range(8)}

        trace = residual_trace(net, 1)

        def bob_main():
            backend = EvaluatorBackend(b_end, bob_bits, ot_group="modp512")
            engine = TraceReplayer(trace, backend)
            engine.step()
            b_end.send("outputs", b"".join(
                s[0].to_bytes(16, "little")
                for s in engine.output_states() if type(s) is not int))

        t = threading.Thread(target=bob_main, daemon=True)
        t.start()
        backend = GarblerBackend(tampered, alice_bits, ot_group="modp512")
        engine = TraceReplayer(trace, backend)
        engine.step()
        with pytest.raises(ProtocolDesync, match="unknown output label") as err:
            decode_outputs(a_end.recv("outputs"), engine.output_states(),
                           backend.delta)
        assert not isinstance(err.value, FrameCorruption)  # not retried
        t.join(timeout=10)

    def test_channel_tag_mismatch_raises(self):
        a, b = channel_pair()
        a.send("tables", bytes(32))
        with pytest.raises(ProtocolDesync, match="expected 'alice-label'"):
            b.recv("alice-label")
        # The desync aborted the peer so it cannot block forever.
        with pytest.raises(ChannelClosed):
            a.recv("outputs")

    def test_peer_abort_unblocks(self):
        a, b = channel_pair()
        a.abort()
        with pytest.raises(ChannelClosed):
            b.recv("tables")


class TestMisconfiguration:
    def test_wrong_public_input_arity(self):
        net = adder_net()
        with pytest.raises(ValueError, match="public"):
            run_protocol(net, 1, alice=[0] * 8, bob=[0] * 8, public=[1])

    def test_wrong_private_input_arity(self):
        net = adder_net()
        with pytest.raises(ValueError, match="expected 8 bits"):
            run_protocol(net, 1, alice=[0] * 4, bob=[0] * 8)

    def test_engine_rejects_invalid_netlist(self):
        from repro.circuit import Netlist
        from repro.core import SkipGateEngine

        net = Netlist()
        net.add_gate(8, 5, 6)  # undriven input wires
        net.set_outputs([2])
        with pytest.raises(ValueError):
            SkipGateEngine(net)

    def test_missing_public_init_bit(self):
        from repro.circuit import CircuitBuilder, InitSpec

        b = CircuitBuilder()
        q = b.dff(init=InitSpec("public", 3))
        b.set_outputs([q])
        with pytest.raises(ValueError, match="out of range"):
            SkipGateEngine(b.build(), public_init=[1])


# ---------------------------------------------------------------------------
# Run frames: a frame of the wrong shape is a structured reject.
# ---------------------------------------------------------------------------

#: (tag, the party that sends it): every frame whose length the
#: receiver derives from the trace or a public run length.  The
#: extension base phase is ``ot-setup`` (evaluator) and ``ot-b``
#: (garbler): its base OTs are random, so no ``ot-e`` comes back.
RESHAPED = [
    ("tables", "garbler"),
    ("alice-label", "garbler"),
    ("ot-setup", "evaluator"),
    ("ot-b", "garbler"),
    ("otx-u", "evaluator"),
    ("otx-d", "evaluator"),
    ("otx-e", "garbler"),
    ("outputs", "evaluator"),
    ("result", "garbler"),
]


@functools.lru_cache(maxsize=None)
def _case(name):
    entry = _registry()[name]
    net, cycles = entry.build()
    return net, cycles, {"alice": entry.alice_source(57, cycles),
                         "bob": entry.bob_source(34, cycles)}


def _run_parties(name, tap=None):
    """One in-process run of registry circuit ``name``; ``tap(role,
    end)`` may wrap an endpoint first.  Returns each role's exception."""
    net, cycles, inputs = _case(name)
    ends = dict(zip(("garbler", "evaluator"), channel_pair(timeout=30.0)))
    parties = dict(zip(ends, make_parties(net, cycles, seed=5, **inputs)))
    errors = {}

    def main(role):
        party, end = parties[role], ends[role]
        try:
            party.attach(end)
            party.run_cycles()
            party.finish()
        except BaseException as exc:  # noqa: BLE001 - returned to the test
            errors[role] = exc
            end.abort()

    if tap is not None:
        for role, end in ends.items():
            tap(role, end)
    threads = [threading.Thread(target=main, args=(role,)) for role in ends]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not any(t.is_alive() for t in threads)
    return errors


class TestRunFrameRejects:
    @pytest.mark.parametrize("tag,sender", RESHAPED,
                             ids=[tag for tag, _ in RESHAPED])
    def test_a_resized_frame_is_frame_corruption_at_its_receiver(
            self, tag, sender):
        @settings(max_examples=3, deadline=None, derandomize=True,
                  suppress_health_check=list(HealthCheck))
        @given(st.integers(min_value=-64, max_value=64).filter(bool))
        @example(-(1 << 20))  # cut to nothing
        def check(resize):
            bent = []

            def tap(role, end):
                send = end.send

                def bending_send(t, payload):
                    if role == sender and t == tag and not bent:
                        bent.append(t)
                        payload = (payload[:max(0, len(payload) + resize)]
                                   if resize < 0 else payload + b"\x01" * resize)
                    send(t, payload)

                end.send = bending_send

            errors = _run_parties("sum32", tap)
            receiver = "evaluator" if sender == "garbler" else "garbler"
            assert bent == [tag]
            assert isinstance(errors.get(receiver), FrameCorruption), errors

        check()

    @pytest.mark.parametrize("name", ["hamming32-seq", "sum32-seq"])
    def test_a_tables_frame_in_an_empty_cycle_is_a_desync(self, monkeypatch, name):
        net, cycles, _ = _case(name)
        trace = residual_trace(net, cycles)
        empty = [c for c, (kept, _) in enumerate(trace.ends) if not len(kept)]
        assert empty  # cycle 0 of hamming32-seq, the last of sum32-seq
        end_cycle = GarblerBackend.end_cycle

        def chatty_end_cycle(self, kept_keys, dropped_keys):
            end_cycle(self, kept_keys, dropped_keys)
            if not len(kept_keys):
                self.chan.send("tables", bytes(GarbledTable.SIZE_BYTES))

        monkeypatch.setattr(GarblerBackend, "end_cycle", chatty_end_cycle)
        errors = _run_parties(name)
        assert type(errors.get("evaluator")) is ProtocolDesync, errors
        assert "got 'tables'" in str(errors["evaluator"])


class TestClosingFrameRejects:
    """The ``outputs`` and ``result`` frames hold exactly what the trace
    leaves open; anything else is a structured reject, not an assert."""

    @staticmethod
    def _bend(sender, tag, bend):
        def tap(role, end):
            send = end.send

            def bending_send(t, payload):
                if role == sender and t == tag:
                    payload = bend(payload)
                send(t, payload)

            end.send = bending_send

        return tap

    def test_a_result_that_sets_a_padding_bit_is_frame_corruption(self):
        # compare32 has one output: one result byte, seven padding bits.
        assert len(_case("compare32")[0].outputs) == 1
        errors = _run_parties("compare32", self._bend(
            "garbler", "result", lambda p: bytes([p[0] | 0x80])))
        assert isinstance(errors.get("evaluator"), FrameCorruption), errors
        assert "past its 1" in str(errors["evaluator"])

    def test_an_unknown_output_label_is_a_desync(self):
        errors = _run_parties("sum32", self._bend(
            "evaluator", "outputs", lambda p: bytes(b ^ 0x5A for b in p)))
        err = errors.get("garbler")
        assert type(err) is ProtocolDesync, errors
        assert "unknown output label" in str(err)

    def test_an_ot_e_in_the_extension_base_phase_is_a_desync(self, monkeypatch):
        """What a peer still running chosen-message base OTs would send
        after ``ot-b``: the extension sender wants ``otx-u`` there."""
        from repro.gc.ot_extension import OTExtensionReceiver

        base_phase = OTExtensionReceiver._base_phase

        def chosen_base_phase(self):
            base_phase(self)
            self.chan.send("ot-e", bytes(2 * 16 * len(self._seed_pairs)))

        monkeypatch.setattr(OTExtensionReceiver, "_base_phase", chosen_base_phase)
        errors = _run_parties("sum32")
        err = errors.get("garbler")
        assert type(err) is ProtocolDesync, errors
        assert "got 'ot-e'" in str(err)
