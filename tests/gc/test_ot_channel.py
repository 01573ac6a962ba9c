"""Tests for the oblivious transfer and channel layers."""

import threading
import time

import pytest

from repro.gc.channel import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    ProtocolDesync,
    channel_pair,
    payload_wire_size,
)
from repro.gc.ot import OTReceiver, OTSender


class TestChannel:
    def test_send_recv_round_trip(self):
        a, b = channel_pair()
        a.send("x", 123)
        assert b.recv("x") == 123

    def test_byte_accounting_uses_codec_sizes(self):
        """Counts are the actual encoded size, not a declared one."""
        a, b = channel_pair()
        a.send("x", b"....")
        a.send("y", b"........")
        expect = payload_wire_size(b"....") + payload_wire_size(b"........")
        assert a.sent.payload_bytes == expect
        assert a.sent.messages == 2

    def test_recv_byte_accounting(self):
        a, b = channel_pair()
        a.send("x", b"....")
        b.recv("x")
        assert b.received.payload_bytes == payload_wire_size(b"....")
        assert b.received.messages == 1

    def test_structured_payloads_are_priced(self):
        """Structured payloads cost their encoded size — no declared
        numbers anywhere, so totals cannot lie."""
        a, b = channel_pair()
        payload = [1, 2, 3]
        a.send("x", payload)
        assert b.recv("x") == [1, 2, 3]
        assert a.sent.payload_bytes == payload_wire_size(payload)
        assert a.sent.payload_bytes > 0

    def test_wire_size_is_deterministic(self):
        """Same payload, same size — the property the communication
        benchmarks rely on."""
        assert payload_wire_size((123, b"ab")) == payload_wire_size((123, b"ab"))
        assert payload_wire_size(b"\x00" * 16) == payload_wire_size(b"\xff" * 16)

    def test_tag_mismatch_raises_desync(self):
        a, b = channel_pair()
        a.send("x", 1)
        with pytest.raises(ProtocolDesync):
            b.recv("y")

    def test_tag_mismatch_aborts_peer(self):
        a, b = channel_pair()
        a.send("x", 1)
        with pytest.raises(ProtocolDesync):
            b.recv("y")
        # Bob's desync must unblock Alice rather than leave her hung.
        with pytest.raises(ChannelClosed):
            a.recv("z")

    def test_desync_is_not_channel_closed(self):
        a, b = channel_pair()
        a.send("x", 1)
        try:
            b.recv("y")
        except ChannelClosed:  # pragma: no cover - the bug under test
            pytest.fail("tag mismatch must not look like a peer abort")
        except ProtocolDesync:
            pass

    def test_abort_wakes_peer(self):
        a, b = channel_pair()
        a.abort()
        with pytest.raises(ChannelClosed):
            b.recv("x")

    def test_recv_blocks_by_default(self):
        """The default deadline is None: block until data arrives."""
        a, b = channel_pair()
        assert b.timeout is None

        def alice():
            time.sleep(0.05)
            a.send("x", 7)

        t = threading.Thread(target=alice, daemon=True)
        t.start()
        assert b.recv("x") == 7  # would die spuriously with a 0s default
        t.join(timeout=5)
        assert b.received.wait_seconds > 0.0

    def test_recv_timeout_opt_in_per_call(self):
        a, b = channel_pair()
        with pytest.raises(ChannelTimeout):
            b.recv("x", timeout=0.05)

    def test_recv_timeout_opt_in_per_endpoint(self):
        a, b = channel_pair(timeout=0.05)
        with pytest.raises(ChannelTimeout):
            b.recv("x")

    def test_timeout_is_not_a_channel_closed(self):
        """A timeout means the peer is *late*, not gone: handlers for
        "peer aborted" must not silently swallow it.  Both remain
        ChannelErrors for catch-all callers."""
        assert not issubclass(ChannelTimeout, ChannelClosed)
        assert issubclass(ChannelTimeout, ChannelError)
        assert issubclass(ChannelClosed, ChannelError)


def run_ots(choices, group="modp512"):
    """Run len(choices) sequential random OTs between two threads:
    the sender's message (pad) pairs and the receiver's messages."""
    a_end, b_end = channel_pair()
    received = []

    def bob():
        rx = OTReceiver(b_end, group=group)
        for c in choices:
            received.extend(rx.receive_random([c]))

    t = threading.Thread(target=bob, daemon=True)
    t.start()
    tx = OTSender(a_end, group=group)
    pairs = [tx.send_random(1)[0] for _ in choices]
    t.join(timeout=30)
    assert not t.is_alive()
    return pairs, received


class TestOT:
    def test_receiver_gets_chosen_message(self):
        pairs, got = run_ots([0, 1, 0])
        assert got == [pairs[0][0], pairs[1][1], pairs[2][0]]

    def test_receiver_does_not_get_other_message(self):
        pairs, got = run_ots([1])
        assert got == [pairs[0][1]]
        assert got != [pairs[0][0]]

    def test_many_sequential_ots_stay_in_sync(self):
        choices = [i % 2 for i in range(16)]
        pairs, got = run_ots(choices)
        assert got == [pair[c] for pair, c in zip(pairs, choices)]
        assert len(set(pairs)) == 16  # every transfer has its own pads

    def test_realistic_group_works(self):
        pairs, got = run_ots([1], group="modp2048")
        assert got == [pairs[0][1]]

    def test_invalid_receiver_element_rejected(self):
        a_end, b_end = channel_pair()

        def bob():
            b_end.recv("ot-setup")
            b_end.send("ot-b", bytes(64))  # invalid group element (0)

        t = threading.Thread(target=bob, daemon=True)
        t.start()
        tx = OTSender(a_end, group="modp512")
        with pytest.raises(ValueError):
            tx.send_random(1)
        t.join(timeout=5)

    def test_group_elements_cross_wire_fixed_width(self):
        """OT traffic must cost the same whatever the random element
        values — communication totals are part of the benchmark."""
        a_end, b_end = channel_pair()

        def bob():
            rx = OTReceiver(b_end, group="modp512")
            rx.receive_random([0])

        t = threading.Thread(target=bob, daemon=True)
        t.start()
        tx = OTSender(a_end, group="modp512")
        tx.send_random(1)
        t.join(timeout=30)
        assert not t.is_alive()
        # One 64B element each way: the setup, then the choice.
        assert a_end.sent.payload_bytes == payload_wire_size(bytes(64))
        assert b_end.sent.payload_bytes == payload_wire_size(bytes(64))


def run_ext_ots(choices, m_pairs, pool_size=32):
    """Run OT-extension transfers between two threads."""
    from repro.gc.ot_extension import OTExtensionReceiver, OTExtensionSender

    a_end, b_end = channel_pair()
    received = []

    def bob():
        rx = OTExtensionReceiver(b_end, pool_size=pool_size)
        for c in choices:
            received.append(rx.receive(c))

    t = threading.Thread(target=bob, daemon=True)
    t.start()
    tx = OTExtensionSender(a_end, pool_size=pool_size)
    for m0, m1 in m_pairs:
        tx.send(m0, m1)
    t.join(timeout=60)
    assert not t.is_alive()
    return received


class TestOTExtension:
    def test_chosen_messages(self):
        pairs = [(100 + i, 200 + i) for i in range(10)]
        choices = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        got = run_ext_ots(choices, pairs)
        assert got == [p[c] for p, c in zip(pairs, choices)]

    def test_pool_refill_across_batches(self):
        """More transfers than one pool batch: the extension re-runs
        transparently (fresh PRG salt per batch)."""
        n = 70  # pool_size=32 -> three batches
        pairs = [(i, i + 1000) for i in range(n)]
        choices = [(i * 7) % 2 for i in range(n)]
        got = run_ext_ots(choices, pairs, pool_size=32)
        assert got == [p[c] for p, c in zip(pairs, choices)]

    def test_extension_inside_protocol(self):
        """The full two-party protocol, whose input labels travel by
        extension, produces the local simulator's result and table
        count."""
        from repro.circuit import CircuitBuilder
        from repro.circuit import modules as M
        from repro.circuit.bits import int_to_bits
        from tests.helpers import run_local, run_protocol

        b = CircuitBuilder()
        x = b.alice_input(16)
        y = b.bob_input(16)
        b.set_outputs(M.ripple_add(b, x, y))
        net = b.build()
        kw = dict(alice=int_to_bits(1234, 16), bob=int_to_bits(4321, 16))
        local = run_local(net, 1, **kw)
        ext = run_protocol(net, 1, **kw)
        assert local.value == ext.value == 5555
        assert local.stats.tables_sent == ext.tables_sent
