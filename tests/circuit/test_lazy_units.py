"""Lazy functional units must cost exactly their static equivalents."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder
from repro.circuit import modules as M
from repro.circuit.bits import bits_to_int, int_to_bits
from repro.circuit.lazy import LazySelector, LazyShifter, LazyUnit
from tests.helpers import run_local, run_local_both

M32 = 0xFFFFFFFF


def _build_mult_lazy():
    b = CircuitBuilder()
    x = b.alice_input(32)
    y = b.bob_input(32)

    unit = b.net.add_macro(LazyUnit(
        "mult", 64,
        lambda bb, ins: M.multiply(bb, ins[0:32], ins[32:64]),
        lambda bits: int_to_bits(
            (bits_to_int(bits[0:32]) * bits_to_int(bits[32:64])) & M32, 32
        ),
    ))
    b.set_outputs(unit.attach(b, list(x) + list(y)))
    return b.build()


def _build_mult_static():
    b = CircuitBuilder()
    x = b.alice_input(32)
    y = b.bob_input(32)
    b.set_outputs(M.multiply(b, x, y))
    return b.build()


class TestLazyUnit:
    @given(st.integers(0, M32), st.integers(0, M32))
    @settings(max_examples=10, deadline=None)
    def test_secret_path_matches_static(self, a, bv):
        lazy = _build_mult_lazy()
        static = _build_mult_static()
        rl = run_local_both(
            lazy, 1, alice=int_to_bits(a, 32), bob=int_to_bits(bv, 32)
        )
        rs = run_local(
            static, 1, alice=int_to_bits(a, 32), bob=int_to_bits(bv, 32)
        )
        assert rl.value == rs.value == (a * bv) & M32
        assert rl.stats.garbled_nonxor == rs.stats.garbled_nonxor == 993

    def test_public_fast_path(self):
        """All-public inputs cost nothing and never expand gates."""
        b = CircuitBuilder()
        x = b.public_input(32)
        y = b.public_input(32)
        unit = b.net.add_macro(LazyUnit(
            "mult", 64,
            lambda bb, ins: M.multiply(bb, ins[0:32], ins[32:64]),
            lambda bits: int_to_bits(
                (bits_to_int(bits[0:32]) * bits_to_int(bits[32:64])) & M32, 32
            ),
        ))
        b.set_outputs(unit.attach(b, list(x) + list(y)))
        r = run_local(
            b.build(), 1, public=int_to_bits(77, 32) + int_to_bits(91, 32)
        )
        assert r.value == 77 * 91
        assert r.stats.garbled_nonxor == 0
        assert r.stats.dynamic_gates == 0

    def test_equivalent_nonxor_accounting(self):
        lazy = _build_mult_lazy()
        static = _build_mult_static()
        assert lazy.n_nonxor_equivalent() == static.n_nonxor()


class TestLazySelector:
    def _pair(self, public_sel):
        def build(use_lazy):
            b = CircuitBuilder()
            entries = [b.alice_input(8) for _ in range(4)]
            live = [b.and_bus(e, b.bob_input(8)) for e in entries]
            sels = b.public_input(2) if public_sel else b.bob_input(2)
            if use_lazy:
                sel = b.net.add_macro(LazySelector("s", 8, 2))
                out = sel.attach(b, sels, live)
            else:
                from repro.arm.cpu import mux_kill_tree

                out = mux_kill_tree(b, sels, live)
            b.set_outputs(out)
            return b.build()

        return build(True), build(False)

    def test_public_select_matches_gate_level(self):
        lazy, gate = self._pair(public_sel=True)
        for sel in range(4):
            kw = dict(
                alice=[1] * 32, bob=[1] * 32 + ([] if True else []),
                public=int_to_bits(sel, 2),
            )
            rl = run_local(lazy, 1, **kw)
            rg = run_local(gate, 1, **kw)
            assert rl.value == rg.value
            assert rl.stats.garbled_nonxor == rg.stats.garbled_nonxor == 8

    def test_secret_select_matches_gate_level(self):
        lazy, gate = self._pair(public_sel=False)
        for sel in range(4):
            kw = dict(alice=[1] * 32, bob=[1] * 32 + int_to_bits(sel, 2))
            rl = run_local_both(lazy, 1, **kw)
            rg = run_local(gate, 1, **kw)
            assert rl.value == rg.value
            assert rl.stats.garbled_nonxor == rg.stats.garbled_nonxor


class TestLazyShifter:
    @given(st.integers(0, M32), st.integers(0, 31),
           st.sampled_from(["left", "right", "ror"]))
    @settings(max_examples=30, deadline=None)
    def test_public_amount_rewires_for_free(self, v, amt, kind):
        b = CircuitBuilder()
        x = b.alice_input(32)
        a = b.public_input(5)
        unit = b.net.add_macro(LazyShifter("sh", 32, 5, kind))
        b.set_outputs(unit.attach(b, x, a))
        r = run_local(
            b.build(), 1, alice=int_to_bits(v, 32), public=int_to_bits(amt, 5)
        )
        if kind == "left":
            expect = (v << amt) & M32
        elif kind == "right":
            expect = v >> amt
        else:
            expect = ((v >> amt) | (v << (32 - amt))) & M32 if amt else v
        assert r.value == expect
        assert r.stats.garbled_nonxor == 0

    @given(st.integers(0, M32), st.integers(0, 31))
    @settings(max_examples=20, deadline=None)
    def test_secret_amount_matches_static_barrel(self, v, amt):
        def build(lazy):
            b = CircuitBuilder()
            x = b.alice_input(32)
            a = b.bob_input(5)
            if lazy:
                unit = b.net.add_macro(LazyShifter("sh", 32, 5, "left"))
                b.set_outputs(unit.attach(b, x, a))
            else:
                b.set_outputs(M.barrel_shifter(b, x, a, "left"))
            return b.build()

        kw = dict(alice=int_to_bits(v, 32), bob=int_to_bits(amt, 5))
        rl = run_local_both(build(True), 1, **kw)
        rs = run_local(build(False), 1, **kw)
        assert rl.value == rs.value == (v << amt) & M32
        assert rl.stats.garbled_nonxor == rs.stats.garbled_nonxor

    def test_arithmetic_right_sign_fill(self):
        b = CircuitBuilder()
        x = b.alice_input(32)
        a = b.public_input(5)
        unit = b.net.add_macro(LazyShifter("sh", 32, 5, "right", arith=True))
        b.set_outputs(unit.attach(b, x, a))
        net = b.build()
        r = run_local(
            net, 1, alice=int_to_bits(0x80000000, 32), public=int_to_bits(4, 5)
        )
        assert r.value == 0xF8000000
