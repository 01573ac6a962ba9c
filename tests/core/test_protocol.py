"""End-to-end two-party protocol tests (crypto mode).

These exercise the whole stack: OT input transfer, half-gate garbling,
per-cycle table batches with SkipGate filtering, sequential flip-flop
label copying, and output decoding — and cross-check the result and
the table counts against the counting engine and the plain simulator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, InitSpec
from repro.circuit import gates as G
from repro.circuit import modules as M
from repro.circuit.bits import bits_to_int, int_to_bits
from repro.circuit.macros import Ram, input_words
from repro.gc.channel import FrameCorruption, ProtocolDesync
from tests.helpers import run_local
from tests.helpers import run_protocol


def build_adder(width):
    b = CircuitBuilder("add")
    x = b.alice_input(width)
    y = b.bob_input(width)
    b.set_outputs(M.ripple_add(b, x, y))
    return b.build()


class TestCombinational:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=5, deadline=None)
    def test_addition(self, a, b):
        net = build_adder(8)
        r = run_protocol(net, 1, alice=int_to_bits(a, 8), bob=int_to_bits(b, 8))
        assert r.value == (a + b) & 0xFF
        assert r.tables_sent == 7

    def test_table_count_matches_counting_engine(self):
        net = build_adder(8)
        counted = run_local(
            net, 1, alice=int_to_bits(11, 8), bob=int_to_bits(22, 8)
        )
        proto = run_protocol(net, 1, alice=int_to_bits(11, 8), bob=int_to_bits(22, 8))
        assert proto.tables_sent == counted.stats.garbled_nonxor
        assert proto.value == counted.value

    def test_comparison(self):
        b = CircuitBuilder()
        x = b.alice_input(8)
        y = b.bob_input(8)
        b.set_outputs([M.less_than(b, x, y)])
        net = b.build()
        r = run_protocol(net, 1, alice=int_to_bits(100, 8), bob=int_to_bits(101, 8))
        assert r.value == 1
        r = run_protocol(net, 1, alice=int_to_bits(101, 8), bob=int_to_bits(100, 8))
        assert r.value == 0

    def test_public_input_skips_gates_in_protocol(self):
        """A MUX-kill with public select garbles only the taken arm on
        both sides of the real protocol."""
        b = CircuitBuilder()
        a = b.alice_input(2)
        bob = b.bob_input(2)
        p = b.public_input(1)
        f0 = b.and_(a[0], bob[0])
        f1 = b.or_(a[1], bob[1])
        b.set_outputs([b.mux_kill(p[0], f0, f1)])
        net = b.build()
        r = run_protocol(net, 1, alice=[1, 1], bob=[1, 0], public=[0])
        assert r.tables_sent == 1
        assert r.value == 1  # f0 = 1 & 1
        r = run_protocol(net, 1, alice=[1, 1], bob=[1, 0], public=[1])
        assert r.tables_sent == 1
        assert r.value == 1  # f1 = 1 | 0


class TestSequential:
    def test_accumulator_over_cycles(self):
        """A 8-bit accumulator adding Bob's fresh input every cycle."""
        b = CircuitBuilder()
        acc = b.dff_bus(8, 0)
        y = b.bob_input(8)
        total = M.ripple_add(b, acc, y)
        b.drive_dff_bus(acc, total)
        b.set_outputs(total)
        net = b.build()
        inputs = [3, 10, 200]
        r = run_protocol(
            net, 3, bob=lambda c: int_to_bits(inputs[c], 8)
        )
        assert r.value == sum(inputs) & 0xFF

    def test_flip_flop_init_from_party_inputs(self):
        """Flip-flops initialized with Alice's and Bob's input labels
        (the garbled-processor memory pattern)."""
        b = CircuitBuilder()
        xa = [b.dff(init=InitSpec("alice", i)) for i in range(8)]
        xb = [b.dff(init=InitSpec("bob", i)) for i in range(8)]
        b.set_outputs(M.ripple_add(b, xa, xb))
        net = b.build()
        r = run_protocol(
            net, 1, alice_init=int_to_bits(40, 8), bob_init=int_to_bits(2, 8)
        )
        assert r.value == 42

    def test_ram_macro_in_protocol(self):
        """Oblivious subset read through the macro under real crypto."""
        b = CircuitBuilder()
        ram = b.net.add_macro(Ram("m", 8, input_words("alice", 4, 8)))
        addr_lo = b.bob_input(1)
        addr_hi = b.public_input(1)
        b.set_outputs(ram.read(b, [addr_lo[0], addr_hi[0]]))
        net = b.build()
        words = [5, 15, 25, 35]
        bits = []
        for w in words:
            bits += int_to_bits(w, 8)
        r = run_protocol(net, 1, bob=[1], public=[1], alice_init=bits)
        assert r.value == 35
        assert r.tables_sent == 8  # one 2-entry subset mux

    def test_filtered_tables_are_not_transmitted(self):
        """The engine filters a doomed gate: its row leaves the residual
        trace at build, so Alice never garbles or sends its table, Bob
        needs no stand-in label for it, and the run still decodes."""
        b = CircuitBuilder()
        a = b.alice_input(1)
        bob = b.bob_input(1)
        p = b.public_input(1)
        doomed = b.and_(a[0], bob[0])
        out = b.net.add_gate(G.GateType.AND, p[0], doomed)
        live = b.or_(a[0], bob[0])
        b.set_outputs([out, live])
        net = b.build()
        r = run_protocol(net, 1, alice=[1], bob=[1], public=[0])
        assert r.tables_sent == 1  # only the OR
        assert r.outputs == [0, 1]

    def test_output_flip_decoding(self):
        """Outputs reached through an odd number of inversions decode
        correctly via the flip bit of Section 3.3."""
        b = CircuitBuilder()
        a = b.alice_input(1)
        bob = b.bob_input(1)
        g = b.and_(a[0], bob[0])
        b.set_outputs([b.not_(g)])
        net = b.build()
        for av, bv in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            r = run_protocol(net, 1, alice=[av], bob=[bv])
            assert r.value == 1 - (av & bv)


class TestAgainstSimulator:
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=3, deadline=None)
    def test_multiplier_protocol_matches_simulator(self, a, b):
        bl = CircuitBuilder()
        x = bl.alice_input(16)
        y = bl.bob_input(16)
        bl.set_outputs(M.multiply(bl, x, y))
        net = bl.build()
        r = run_protocol(net, 1, alice=int_to_bits(a, 16), bob=int_to_bits(b, 16))
        assert r.value == (a * b) & 0xFFFF


class _ScriptedChan:
    """Delivers one ``outputs`` payload; records what the party sent."""

    def __init__(self, payload):
        self.payload = payload
        self.sent = []

    def recv(self, tag):
        return self.payload if tag == "outputs" else None

    def send(self, tag, value):
        self.sent.append((tag, value))


class TestOutputDecoding:
    """The garbler decodes Bob's outputs alike from both material
    sources, prebuilt and just in time: the ``outputs`` frame holds the
    secret outputs' labels only, since the public bits and the flips
    are in both parties' trace."""

    DELTA = 0x8001
    # One public 1, one secret wire (zero label 0x1234, flip 1).
    STATES = [1, (0x1234, 1, 7)]

    @staticmethod
    def _lbl(label):
        return label.to_bytes(16, "little")

    def _finish(self, kind, payload):
        from types import SimpleNamespace

        from repro.core.protocol import GarblerParty
        from repro.gc.material import GarbledMaterial

        material = GarbledMaterial(
            net=None, digest="", cycles=1, epoch=0, delta=self.DELTA,
            buckets=[[], []], stats=None,
            output_states=[s if type(s) is int else s[:2] for s in self.STATES])
        if kind == "just-in-time":
            # Its last bucket not garbled yet: the recorder's output
            # states are read when it is.
            material.epoch, material.buckets, material.output_states = None, [[]], None
            material.recorder = SimpleNamespace(
                step=lambda: None, output_states=lambda: self.STATES)
        party = GarblerParty.from_material(material)
        party.chan = _ScriptedChan(payload)
        return party.finish(), party, party.chan

    @pytest.mark.parametrize("kind", ["just-in-time", "prebuilt"])
    def test_decodes_and_shares_the_result(self, kind):
        outputs, party, chan = self._finish(kind, self._lbl(0x1234 ^ self.DELTA))
        assert outputs == party.last_outputs == [1, 0]  # raw 1 ^ flip 1
        assert chan.sent == [("result", b"\x01")]  # packed, bit 0 first

    @pytest.mark.parametrize("payload,error,message", [
        (b"\x99" * 16, ProtocolDesync, "Bob returned an unknown output label"),
        (b"", FrameCorruption, "'outputs' frame: expected 16 bytes, got 0 bytes"),
        (b"\x99" * 32, FrameCorruption,
         "'outputs' frame: expected 16 bytes, got 32 bytes"),
        (b"\x99" * 15, FrameCorruption,
         "'outputs' frame: expected 16 bytes, got 15 bytes"),
    ], ids=["unknown-label", "public-for-secret", "secret-for-public",
            "short-payload"])
    def test_desyncs_read_the_same_from_both_parties(self, payload, error, message):
        for kind in ("just-in-time", "prebuilt"):
            with pytest.raises(error) as exc:
                self._finish(kind, payload)
            assert type(exc.value) is error, kind
            assert str(exc.value) == message, kind
