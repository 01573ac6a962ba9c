"""Functional tests for memory macros (plain simulation + engine)."""

import pytest

from repro.circuit import CircuitBuilder, InitSpec, PlainSimulator
from repro.circuit.bits import bits_to_int, int_to_bits, pack_words
from repro.circuit.macros import Ram, Rom, const_words, input_words, zero_words
from tests.helpers import run_local, run_local_both


def test_rom_rejects_private_contents():
    with pytest.raises(ValueError):
        Rom("bad", 8, input_words("alice", 2, 8))


def test_rom_public_read():
    b = CircuitBuilder()
    rom = b.net.add_macro(Rom("r", 8, const_words([10, 20, 30, 40], 8)))
    addr = b.public_input(2)
    out = rom.read(b, addr)
    b.set_outputs(out)
    net = b.build()
    for a in range(4):
        r = run_local(net, 1, public=int_to_bits(a, 2))
        assert r.value == [10, 20, 30, 40][a]
        assert r.stats.garbled_nonxor == 0


def test_rom_depth_padded_to_power_of_two():
    rom = Rom("r", 8, const_words([1, 2, 3], 8))
    assert rom.depth == 4
    assert rom.addr_bits == 2


def test_rom_secret_address_read_of_constants_is_cheap():
    """Reading public constants with a secret address is far cheaper
    than a data MUX tree: most muxes collapse to select-label algebra.
    Only bit columns whose four constants form a 3-vs-1 pattern garble
    one AND (e.g. ``AND(s1, ~s0)``) — exactly what the gate-level tree
    does.  For the constants below that is 2 tables, not 3*8 = 24."""
    b = CircuitBuilder()
    rom = b.net.add_macro(Rom("r", 8, const_words([10, 20, 30, 40], 8)))
    addr = b.bob_input(2)
    out = rom.read(b, addr)
    b.set_outputs(out)
    net = b.build()
    for a in range(4):
        r = run_local_both(net, 1, bob=int_to_bits(a, 2))
        assert r.value == [10, 20, 30, 40][a]
        assert r.stats.garbled_nonxor == 2


def test_rom_secret_address_read_of_xor_friendly_constants_is_free():
    """Constant columns that are 2-vs-2 patterns are pure select-label
    XOR algebra: zero garbled tables."""
    b = CircuitBuilder()
    # Columns: each bit column over words (0,1,2,3) is 0011, 0101 or
    # 0110 style -> all free.
    rom = b.net.add_macro(Rom("r", 2, const_words([0, 1, 2, 3], 2)))
    addr = b.bob_input(2)
    b.set_outputs(rom.read(b, addr))
    net = b.build()
    for a in range(4):
        r = run_local_both(net, 1, bob=int_to_bits(a, 2))
        assert r.value == a
        assert r.stats.garbled_nonxor == 0


class TestRamPlain:
    def _machine(self, depth=4, width=8):
        b = CircuitBuilder()
        ram = b.net.add_macro(Ram("m", width, zero_words(depth, width)))
        waddr = b.public_input(2)
        wdata = b.public_input(width)
        wen = b.public_input(1)
        raddr = b.public_input(2)
        rdata = ram.read(b, raddr)
        ram.write(b, waddr, wdata, wen[0])
        b.set_outputs(rdata)
        return b.build()

    def test_write_then_read(self):
        net = self._machine()
        sim = PlainSimulator(net)
        # cycle 0: write 99 to word 2; read word 2 (still old value 0)
        sim.step({"alice": [], "bob": [],
                  "public": int_to_bits(2, 2) + int_to_bits(99, 8) + [1]
                  + int_to_bits(2, 2)})
        assert bits_to_int(sim.outputs()) == 0  # read-old semantics
        # cycle 1: no write; read word 2 -> 99
        sim.step({"alice": [], "bob": [],
                  "public": int_to_bits(0, 2) + int_to_bits(0, 8) + [0]
                  + int_to_bits(2, 2)})
        assert bits_to_int(sim.outputs()) == 99

    def test_write_disabled_preserves_contents(self):
        net = self._machine()
        sim = PlainSimulator(net)
        sim.step({"alice": [], "bob": [],
                  "public": int_to_bits(1, 2) + int_to_bits(55, 8) + [0]
                  + int_to_bits(1, 2)})
        sim.step({"alice": [], "bob": [],
                  "public": int_to_bits(0, 2) + int_to_bits(0, 8) + [0]
                  + int_to_bits(1, 2)})
        assert bits_to_int(sim.outputs()) == 0


class TestRamSecretData:
    def test_private_init_and_public_read_is_free(self):
        """The garbled processor's input memories: private labels in
        the flip-flops, public addresses -> zero garbling cost."""
        b = CircuitBuilder()
        ram = b.net.add_macro(Ram("m", 8, input_words("alice", 4, 8)))
        raddr = b.public_input(2)
        b.set_outputs(ram.read(b, raddr))
        net = b.build()
        words = [7, 77, 177, 250]
        r = run_local(
            net, 1, public=int_to_bits(3, 2), alice_init=pack_words(words, 8)
        )
        assert r.value == 250
        assert r.stats.garbled_nonxor == 0

    def test_secret_address_costs_linear_scan(self):
        """Oblivious read over 4 secret words: (4-1)*8 = 24 tables."""
        b = CircuitBuilder()
        ram = b.net.add_macro(Ram("m", 8, input_words("alice", 4, 8)))
        raddr = b.bob_input(2)
        b.set_outputs(ram.read(b, raddr))
        net = b.build()
        words = [7, 77, 177, 250]
        for a in range(4):
            r = run_local_both(
                net,
                1,
                bob=int_to_bits(a, 2),
                alice_init=pack_words(words, 8),
            )
            assert r.value == words[a]
            assert r.stats.garbled_nonxor == 24

    def test_partially_secret_address_costs_subset_scan(self):
        """Section 4.4: one secret address bit -> oblivious access to a
        2-word subset, costing only width tables."""
        b = CircuitBuilder()
        ram = b.net.add_macro(Ram("m", 8, input_words("alice", 4, 8)))
        hi = b.public_input(1)
        lo = b.bob_input(1)
        b.set_outputs(ram.read(b, [lo[0], hi[0]]))
        net = b.build()
        words = [7, 77, 177, 250]
        r = run_local_both(
            net,
            1,
            public=[1],
            bob=[1],
            alice_init=pack_words(words, 8),
        )
        assert r.value == 250
        assert r.stats.garbled_nonxor == 8  # one mux level over 2 words

    def test_secret_wen_costs_conditional_write(self):
        """A conditional write to a public address costs `width` tables
        — the cost of one ARM predicated instruction."""
        b = CircuitBuilder()
        ram = b.net.add_macro(Ram("m", 8, input_words("alice", 4, 8)))
        wen = b.bob_input(1)
        wdata = b.alice_input(8)
        ram.write(b, b.const_bus(1, 2), wdata, wen[0])
        raddr = b.public_input(2)
        b.set_outputs(ram.read(b, raddr))
        net = b.build()
        words = [1, 2, 3, 4]
        r = run_local_both(
            net,
            2,
            public=int_to_bits(1, 2),
            bob=[1],
            alice=lambda c: int_to_bits(99, 8),
            alice_init=pack_words(words, 8),
        )
        assert r.value == 99
        # Cycle 1: one conditional write of 8 bits.  Cycle 2's write is
        # a final-cycle dead store and is skipped entirely.
        assert r.stats.garbled_nonxor == 8

    def test_secret_address_write(self):
        """Secret write address: decoder + conditional write per
        candidate word."""
        b = CircuitBuilder()
        ram = b.net.add_macro(Ram("m", 8, const_words([1, 2, 3, 4], 8)))
        waddr = b.bob_input(2)
        wdata = b.alice_input(8)
        ram.write(b, waddr, wdata, b.const(1))
        raddr = b.public_input(2)
        b.set_outputs(ram.read(b, raddr))
        net = b.build()
        r = run_local_both(
            net,
            2,
            public=int_to_bits(2, 2),
            bob=int_to_bits(2, 2),
            alice=int_to_bits(123, 8),
        )
        assert r.value == 123


class TestMultiPort:
    def test_two_read_ports_same_cycle(self):
        b = CircuitBuilder()
        ram = b.net.add_macro(Ram("rf", 8, input_words("alice", 4, 8)))
        a1 = b.public_input(2)
        a2 = b.public_input(2)
        d1 = ram.read(b, a1)
        d2 = ram.read(b, a2)
        b.set_outputs(d1 + d2)
        net = b.build()
        words = [5, 6, 7, 8]
        r = run_local(
            net,
            1,
            public=int_to_bits(1, 2) + int_to_bits(3, 2),
            alice_init=pack_words(words, 8),
        )
        assert bits_to_int(r.outputs[:8]) == 6
        assert bits_to_int(r.outputs[8:]) == 8
        assert r.stats.garbled_nonxor == 0

    def test_read_and_write_same_cycle_sees_old_value(self):
        b = CircuitBuilder()
        ram = b.net.add_macro(Ram("m", 8, const_words([42, 0], 8)))
        rdata = ram.read(b, b.const_bus(0, 1))
        ram.write(b, b.const_bus(0, 1), b.public_input(8), b.const(1))
        b.set_outputs(rdata)
        net = b.build()
        r = run_local(net, 1, public=int_to_bits(9, 8))
        assert r.value == 42
