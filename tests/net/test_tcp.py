"""TCP links: sockets, backoff dialing, and a real two-endpoint run."""

import socket
import threading
import time

import pytest

from repro.gc.channel import ChannelClosed
from repro.net.links import LinkTimeout
from repro.net.tcp import TcpDialer, TcpListener, connect_with_backoff
from repro.net.transport import FramedEndpoint


def _free_port() -> int:
    with socket.socket() as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestTcpLink:
    def test_listener_dialer_round_trip(self):
        with TcpListener(port=0) as listener:
            box = {}

            def server():
                box["link"] = listener.accept(timeout=10.0)

            t = threading.Thread(target=server, daemon=True)
            t.start()
            client = connect_with_backoff("127.0.0.1", listener.port, attempts=5)
            t.join(timeout=10)
            server_link = box["link"]

            client.send_bytes(b"hello")
            assert server_link.recv_bytes(timeout=5.0) == b"hello"
            server_link.send_bytes(b"world")
            assert client.recv_bytes(timeout=5.0) == b"world"

            client.close()
            # Peer close is EOF, not an exception.
            assert server_link.recv_bytes(timeout=5.0) == b""
            server_link.close()

    def test_framed_endpoints_over_sockets(self):
        with TcpListener(port=0) as listener:
            box = {}

            def server():
                chan = FramedEndpoint(listener.accept(timeout=10.0), timeout=10.0)
                box["got"] = chan.recv("tables")
                chan.send("ack", True)
                chan.close()

            t = threading.Thread(target=server, daemon=True)
            t.start()
            chan = FramedEndpoint(
                TcpDialer("127.0.0.1", listener.port).connect(), timeout=10.0
            )
            payload = ([1, 2, 3], b"\xab" * 4096)
            chan.send("tables", payload)
            assert chan.recv("ack") is True
            t.join(timeout=10)
            assert tuple(box["got"]) == payload
            chan.close()

    def test_close_wakes_blocked_peer(self):
        with TcpListener(port=0) as listener:
            box = {}

            def server():
                chan = FramedEndpoint(listener.accept(timeout=10.0), timeout=10.0)
                try:
                    chan.recv("never")
                except ChannelClosed as exc:
                    box["error"] = exc

            t = threading.Thread(target=server, daemon=True)
            t.start()
            link = TcpDialer("127.0.0.1", listener.port).connect()
            time.sleep(0.1)
            link.close()
            t.join(timeout=10)
            assert isinstance(box["error"], ChannelClosed)


class TestBackoff:
    def test_dialer_waits_for_late_listener(self):
        """The evaluator may start before the garbler binds its port."""
        port = _free_port()
        box = {}

        def late_server():
            time.sleep(0.25)
            listener = TcpListener(port=port)
            box["link"] = listener.accept(timeout=10.0)
            listener.close()

        t = threading.Thread(target=late_server, daemon=True)
        t.start()
        link = connect_with_backoff(
            "127.0.0.1", port, attempts=20, base_delay=0.02, max_delay=0.2
        )
        t.join(timeout=10)
        link.send_bytes(b"made it")
        assert box["link"].recv_bytes(timeout=5.0) == b"made it"
        link.close()
        box["link"].close()

    def test_exhausted_attempts_raise_link_timeout(self):
        port = _free_port()  # nothing ever listens here
        t0 = time.perf_counter()
        with pytest.raises(LinkTimeout, match="after 3 attempts"):
            connect_with_backoff(
                "127.0.0.1", port, attempts=3, base_delay=0.01, max_delay=0.02
            )
        assert time.perf_counter() - t0 < 5.0

    def test_accept_timeout(self):
        with TcpListener(port=0) as listener:
            with pytest.raises(LinkTimeout):
                listener.accept(timeout=0.05)


class TestTcpProtocolRun:
    def test_full_protocol_over_sockets_matches_memory(self):
        """Both parties over real sockets reproduce the in-memory run."""
        from repro.bench_circuits import sum_combinational
        from repro.circuit.bits import int_to_bits
        from repro.core.protocol import (
            EvaluatorParty,
            GarblerParty,
            _expand_bits,
        )
        from tests.helpers import run_protocol
        from repro.net.session import ResumableSession

        x, y = 1234, 4321
        net, cycles = sum_combinational(32)
        base = run_protocol(
            net, cycles, alice=int_to_bits(x, 32), bob=int_to_bits(y, 32)
        )

        net_a, _ = sum_combinational(32)
        net_b, _ = sum_combinational(32)
        listener = TcpListener(port=0)
        garbler = GarblerParty(
            net_a, cycles, _expand_bits(net_a, "alice", int_to_bits(x, 32), (), cycles)
        )
        evaluator = EvaluatorParty(
            net_b, cycles, _expand_bits(net_b, "bob", int_to_bits(y, 32), (), cycles)
        )
        dialer = TcpDialer("127.0.0.1", listener.port)
        a_sess = ResumableSession(
            garbler, connect=lambda: listener.connect(timeout=15.0), timeout=15.0
        )
        b_sess = ResumableSession(
            evaluator, connect=lambda: dialer.connect(timeout=15.0), timeout=15.0
        )
        box = {}

        def bob_main():
            try:
                box["result"] = b_sess.run()
            except BaseException as exc:  # surfaced below
                box["error"] = exc

        t = threading.Thread(target=bob_main, daemon=True)
        t.start()
        try:
            a_res = a_sess.run()
        finally:
            t.join(timeout=30)
            listener.close()
        assert "error" not in box, box.get("error")
        b_res = box["result"]

        assert a_res.value == b_res.value == base.value == (x + y) & 0xFFFFFFFF
        assert a_res.stats.garbled_nonxor == base.alice_stats.garbled_nonxor
        assert a_res.tables_sent == base.tables_sent
        assert a_res.reconnects == 0 and b_res.reconnects == 0
        # Sockets carry framing overhead on top of the payload bytes.
        assert a_res.sent.wire_bytes > a_res.sent.payload_bytes > 0

    @pytest.mark.parametrize("ot", ["simplest", "extension"])
    def test_pipelined_input_ots_over_sockets_finish(self, ot):
        """640 Bob input bits are three pool windows of choice messages
        sent ahead of the replies: over real sockets, where a full send
        buffer blocks the writer, the run must still finish (under a hard
        deadline) and match the in-memory run."""
        import random

        from repro.bench_circuits import sum_combinational
        from repro.circuit.bits import int_to_bits
        from repro.core.protocol import EvaluatorParty, GarblerParty, _expand_bits
        from repro.net.session import ResumableSession
        from tests.helpers import run_protocol

        width = 640
        rng = random.Random(11)
        x, y = rng.getrandbits(width), rng.getrandbits(width)
        a_bits, b_bits = int_to_bits(x, width), int_to_bits(y, width)
        net, cycles = sum_combinational(width)
        base = run_protocol(net, cycles, alice=a_bits, bob=b_bits, ot=ot)
        assert base.value == (x + y) % (1 << width)

        def party(cls, role, bits):
            net_p, _ = sum_combinational(width)
            return cls(net_p, cycles, _expand_bits(net_p, role, bits, (), cycles),
                       ot_group="modp512", ot=ot)

        listener = TcpListener(port=0)
        dialer = TcpDialer("127.0.0.1", listener.port)
        sessions = {
            "garbler": ResumableSession(
                party(GarblerParty, "alice", a_bits),
                connect=lambda: listener.connect(timeout=15.0), timeout=15.0),
            "evaluator": ResumableSession(
                party(EvaluatorParty, "bob", b_bits),
                connect=lambda: dialer.connect(timeout=15.0), timeout=15.0),
        }
        box = {}

        def main(role):
            try:
                box[role] = sessions[role].run()
            except BaseException as exc:  # surfaced below
                box[role] = exc

        threads = [threading.Thread(target=main, args=(role,), daemon=True)
                   for role in sessions]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "deadlocked over TCP"
        finally:
            listener.close()
        a_res, b_res = box["garbler"], box["evaluator"]
        assert not isinstance(a_res, BaseException), a_res
        assert not isinstance(b_res, BaseException), b_res
        assert a_res.value == b_res.value == base.value
        assert a_res.tables_sent == base.tables_sent
