"""Base-OT arithmetic and resume: short exponents, fixed-base tables,
one modexp per transfer.

The base OT computes the same group elements as the textbook form
(``A = g^a``, ``B = g^b [* A]``, ``k0 = B^a``, ``k1 = (B/A)^a``,
``k_c = A^b``) with far fewer multiplications; these tests pin every
shortcut to the builtin ``pow`` on both parameter sets, and pin that
state derived from a key is rebuilt when a checkpoint brings another
key (the serve fleet's handoff restores into *fresh* instances).
"""

import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gc import ot
from repro.gc.channel import channel_pair
from repro.gc.ot import GROUPS, OTReceiver, OTSender
from repro.gc.ot_extension import OTExtensionReceiver, OTExtensionSender

GROUP_NAMES = sorted(GROUPS)
ALL_ONES = (1 << ot.EXP_BITS) - 1
exponents = st.integers(min_value=0, max_value=ALL_ONES)


def transfer(tx, rx, choices, pairs):
    """Run one OT per choice between a sender and a receiver."""
    got = []

    def bob():
        got.extend(rx.receive(c) for c in choices)

    t = threading.Thread(target=bob, daemon=True)
    t.start()
    for m0, m1 in pairs:
        tx.send(m0, m1)
    t.join(timeout=60)
    assert not t.is_alive()
    return got


@pytest.mark.parametrize("group", GROUP_NAMES)
class TestFixedBasePow:
    def test_generator_table_matches_builtin_pow(self, group):
        p, g = GROUPS[group]
        table = ot._generator_table(group)

        @settings(max_examples=60, deadline=None)
        @given(exponents)
        @example(0)
        @example(1)
        @example(ALL_ONES)
        def check(e):
            assert ot._fixed_pow(table, e, p) == pow(g, e, p)

        check()

    def test_any_base_matches_builtin_pow(self, group):
        p, _ = GROUPS[group]

        @settings(max_examples=10, deadline=None)
        @given(st.integers(min_value=2, max_value=p - 1), exponents)
        @example(p - 1, ALL_ONES)
        def check(base, e):
            table = ot._fixed_base_table(base, p)
            assert ot._fixed_pow(table, e, p) == pow(base, e, p)

        check()

    def test_generator_table_is_built_once_per_group(self, group):
        assert ot._generator_table(group) is ot._generator_table(group)


@pytest.mark.parametrize("group", GROUP_NAMES)
class TestSenderKeys:
    def test_pads_are_the_textbook_keys(self, group):
        """Decrypt both ciphertexts with ``B^a`` and ``(B/A)^a`` from
        the builtin ``pow``: the sender's one-modexp shortcut must
        have derived exactly those keys."""
        p, _ = GROUPS[group]

        @settings(max_examples=8, deadline=None)
        @given(st.integers(min_value=2, max_value=p - 1))
        def check(big_b):
            a_end, b_end = channel_pair()
            tx = OTSender(a_end, group=group)
            b_end.send("ot-b", big_b.to_bytes(tx.group_bytes, "little"))
            tx.send(0x1234, 0x5678)
            big_a = int.from_bytes(b_end.recv("ot-setup"), "little")
            assert big_a == pow(2, tx._a, p)
            pair = b_end.recv("ot-e")
            e0, e1 = pair[: ot.LABEL_BYTES], pair[ot.LABEL_BYTES :]
            k0 = pow(big_b, tx._a, p)
            k1 = pow(big_b * pow(big_a, -1, p) % p, tx._a, p)
            width = tx.group_bytes
            assert ot._decrypt(k0.to_bytes(width, "little"), e0, 0) == 0x1234
            assert ot._decrypt(k1.to_bytes(width, "little"), e1, 0) == 0x5678

        check()

    def test_exponents_are_short_and_nonzero(self, group, monkeypatch):
        for _ in range(50):
            assert 1 <= ot._draw_exponent() <= ALL_ONES
        a_end, _ = channel_pair()
        assert 1 <= OTSender(a_end, group=group)._a <= ALL_ONES
        # The two ends of the underlying draw map to the two ends of
        # the range.
        bounds = []
        monkeypatch.setattr(
            ot.secrets, "randbelow", lambda n: bounds.append(n) or 0
        )
        assert ot._draw_exponent() == 1
        monkeypatch.setattr(ot.secrets, "randbelow", lambda n: n - 1)
        assert ot._draw_exponent() == ALL_ONES
        assert bounds == [ALL_ONES]

    def test_bad_elements_rejected_by_sender(self, group):
        p, _ = GROUPS[group]
        for bad in (0, 1, p, p + 1):
            a_end, b_end = channel_pair()
            tx = OTSender(a_end, group=group)
            b_end.send("ot-b", bad.to_bytes(tx.group_bytes, "little"))
            with pytest.raises(ValueError):
                tx.send(1, 2)

    def test_bad_elements_rejected_by_receiver(self, group):
        p, _ = GROUPS[group]
        for bad in (0, 1, p, p + 1):
            a_end, b_end = channel_pair()
            rx = OTReceiver(b_end, group=group)
            a_end.send("ot-setup", bad.to_bytes(rx.group_bytes, "little"))
            with pytest.raises(ValueError):
                rx.receive(0)


def test_malformed_ciphertext_rejected():
    with pytest.raises(ValueError):
        ot._decrypt(b"k", bytes(ot.LABEL_BYTES + 1), 0)


def test_extension_session_on_realistic_group():
    """128 base OTs on RFC 3526 group 14, then extended transfers."""
    a_end, b_end = channel_pair()
    tx = OTExtensionSender(a_end, pool_size=32, group="modp2048")
    rx = OTExtensionReceiver(b_end, pool_size=32, group="modp2048")
    pairs = [(100 + i, 200 + i) for i in range(40)]
    choices = [(i * 7) & 1 for i in range(40)]
    assert transfer(tx, rx, choices, pairs) == [
        pair[c] for pair, c in zip(pairs, choices)
    ]


class TestRestoreRecomputesDerivedState:
    PAIRS = [(10 + i, 90 + i) for i in range(8)]
    CHOICES = [1, 0, 0, 1, 1, 1, 0, 1]

    def test_fresh_instances_finish_a_phase_snapshotted_midway(self):
        """What a serve-fleet adopt does: the checkpoint of a base
        phase in progress lands in parties built from scratch."""
        a_end, b_end = channel_pair()
        tx, rx = OTSender(a_end, "modp512"), OTReceiver(b_end, "modp512")
        got = transfer(tx, rx, self.CHOICES[:3], self.PAIRS[:3])
        tx_snap, rx_snap = tx.snapshot(), rx.snapshot()

        a_end, b_end = channel_pair()
        tx2, rx2 = OTSender(a_end, "modp512"), OTReceiver(b_end, "modp512")
        assert tx2._a != tx._a
        tx2.restore(tx_snap)
        rx2.restore(rx_snap)
        assert tx2._k1_factor == tx._k1_factor
        got += transfer(tx2, rx2, self.CHOICES[3:], self.PAIRS[3:])
        assert got == [p[c] for p, c in zip(self.PAIRS, self.CHOICES)]
        assert a_end.sent.messages == 5  # no second ot-setup

    def test_receiver_drops_the_table_of_a_replaced_key(self):
        a_end, b_end = channel_pair()
        rx = OTReceiver(b_end, "modp512")
        transfer(OTSender(a_end, "modp512"), rx, [1], [(1, 2)])
        stale = rx._a_table

        a_end, b_end = channel_pair()
        tx = OTSender(a_end, "modp512")
        rx.rebind(b_end)
        rx.restore({"big_a": tx._big_a, "count": 0})
        tx.restore({"setup_sent": True, "count": 0, "a": None})
        assert transfer(tx, rx, self.CHOICES, self.PAIRS) == [
            p[c] for p, c in zip(self.PAIRS, self.CHOICES)
        ]
        assert rx._a_table is not stale

    def test_snapshot_with_a_full_width_key_still_restores(self):
        """Checkpoints written before exponents became short carry an
        ``a`` as wide as the modulus."""
        p, g = GROUPS["modp512"]
        a = p - 5
        a_end, b_end = channel_pair()
        tx, rx = OTSender(a_end, "modp512"), OTReceiver(b_end, "modp512")
        tx.restore({"setup_sent": True, "count": 3, "a": a})
        rx.restore({"big_a": pow(g, a, p), "count": 3})
        assert transfer(tx, rx, self.CHOICES, self.PAIRS) == [
            p[c] for p, c in zip(self.PAIRS, self.CHOICES)
        ]
        assert tx.count == rx.count == 3 + len(self.PAIRS)
