"""Adversarial-input hardening of the asyncio serve edge.

Every way a hostile (or merely broken) client can fail the handshake
must produce a structured ``serve-welcome`` reject plus a counter —
never an exception on the accept path, never a stalled admission
pipeline.  The failure classes under test mirror
:class:`repro.serve.handshake.HandshakeReject`: garbage bytes,
truncated hellos, oversized hellos, wrong tags, undecodable payloads
and aborts — plus the timer-driven ones (slow-loris handshake
deadline, idle timeout, idle shedding under overload) and the
drain-vs-handshake race.

The edge is the front door of a shard *and* of the fleet router, so
the over-the-wire classes run against both (the ``endpoint`` fixture)
and read their counters from each endpoint's ``op: "stats"`` reply.
"""

import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.net.codec import encode
from repro.net.frame import (
    FRAME_ABORT,
    FRAME_DATA,
    FRAME_HEARTBEAT,
    encode_frame,
)
from repro.net.links import LinkClosed, LinkTimeout
from repro.net.tcp import connect_with_backoff
from repro.serve import (
    LocalFleet,
    RouterConfig,
    ServeConfig,
    fetch_stats,
    make_server,
    registry_program,
    run_loadgen,
)
from repro.serve.handshake import (
    HELLO,
    WELCOME,
    HandshakeReject,
    HelloParser,
    ServeError,
    recv_control,
)

SERVER_VALUE = 321


def _await(predicate, timeout=5.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


def _hello_frame(payload: dict) -> bytes:
    return encode_frame(FRAME_DATA, 1, HELLO, encode(payload))


def _dial(srv):
    return connect_with_backoff(srv.host, srv.port, attempts=4)


def _read_welcome(link, timeout=5.0) -> dict:
    tag, payload, _ = recv_control(link, timeout=timeout)
    assert tag == WELCOME
    assert isinstance(payload, dict)
    return payload


class _Endpoint:
    """A front door as a client sees it: an address and the counters
    of its ``op: "stats"`` reply."""

    def __init__(self, kind: str, owner) -> None:
        self.kind, self.host, self.port = kind, owner.host, owner.port
        self.edge = owner._edge

    def counter(self, name: str) -> int:
        try:
            return fetch_stats(self.host, self.port)[name]
        except ServeError:
            return -1  # the probe itself was refused under overload

    def admitted(self) -> int:
        return self.counter(
            "accepted" if self.kind == "shard" else "routed_sessions")


@pytest.fixture(params=("shard", "router"))
def endpoint(request):
    """``endpoint(value=..., workers=..., **edge_knobs)``: a started
    sum32 shard, or a router over one cheap thread-pool shard with the
    edge knobs on the router's own config."""

    @contextmanager
    def start(value=1, workers=4, **edge_knobs):
        if request.param == "shard":
            with make_server(["sum32"], value=value, port=0,
                             workers=workers, **edge_knobs) as srv:
                yield _Endpoint("shard", srv)
        else:
            with LocalFleet(
                {"sum32": registry_program("sum32", value)}, shards=1,
                config=ServeConfig(pool="thread", precompute=False,
                                   workers=workers),
                router_config=RouterConfig(**edge_knobs),
            ) as fleet:
                yield _Endpoint("router", fleet.router)

    return start


def _flip(frame: bytes, at: int, to: int) -> bytes:
    at %= len(frame)
    return frame[:at] + bytes([to]) + frame[at + 1:]


#: Hello-shaped inputs one byte away from valid (bad length prefix,
#: type, tag, payload or CRC), with a tail — plain random bytes almost
#: never get past the length prefix.
_almost_hellos = st.builds(
    lambda sid, at, to, tail: _flip(
        _hello_frame({"op": "session", "session": sid}), at, to) + tail,
    st.text(max_size=12), st.integers(0, 255), st.integers(0, 255),
    st.binary(max_size=64),
)


class TestHelloParser:
    """One regression test per parse-failure class."""

    def test_well_formed_hello_parses_with_leftover(self):
        hello = {"op": "session", "session": "s", "program": "sum32"}
        nxt = encode_frame(FRAME_DATA, 2, "net-hello", b"x")
        parser = HelloParser()
        assert parser.feed(_hello_frame(hello)[:7]) is None
        assert parser.started
        got, leftover = parser.feed(_hello_frame(hello)[7:] + nxt)
        assert got == hello
        assert leftover == nxt

    def test_garbage_bytes(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(b"\xff" * 16)
        assert exc.value.kind == "garbage"
        # Poisoned: even valid bytes are refused afterwards.
        with pytest.raises(HandshakeReject):
            parser.feed(_hello_frame({"op": "stats"}))

    def test_oversized_hello(self):
        parser = HelloParser(max_bytes=1024)
        big = _hello_frame({"op": "session", "session": "x" * 2048,
                            "program": "sum32"})
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(big)
        assert exc.value.kind == "oversized"

    def test_oversized_by_slow_accumulation(self):
        """The bound is on total bytes fed, not chunk size — a
        trickler cannot sneak past it."""
        parser = HelloParser(max_bytes=64)
        frame = _hello_frame({"session": "y" * 256})
        with pytest.raises(HandshakeReject) as exc:
            for i in range(0, len(frame), 16):
                parser.feed(frame[i:i + 16])
        assert exc.value.kind == "oversized"

    def test_wrong_tag(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(encode_frame(FRAME_DATA, 1, "net-hello",
                                     encode({})))
        assert exc.value.kind == "bad-tag"

    def test_undecodable_payload(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(encode_frame(FRAME_DATA, 1, HELLO, b"\x00\x01"))
        assert exc.value.kind == "malformed"

    def test_non_record_payload(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(encode_frame(FRAME_DATA, 1, HELLO,
                                     encode([1, 2, 3])))
        assert exc.value.kind == "malformed"

    def test_abort_frame(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(encode_frame(FRAME_ABORT, 0, "abort", b""))
        assert exc.value.kind == "aborted"

    def test_heartbeat_is_skipped(self):
        parser = HelloParser()
        hb = encode_frame(FRAME_HEARTBEAT, 0, "hb", b"")
        hello = {"op": "stats"}
        assert parser.feed(hb) is None
        got, leftover = parser.feed(_hello_frame(hello))
        assert got == hello and leftover == b""

    # Fixed seed, small budgets: tier-1 wall time must not grow.

    @seed(20260928)
    @settings(max_examples=150, deadline=None, database=None)
    @given(blob=st.one_of(_almost_hellos, st.binary(max_size=256)),
           cuts=st.lists(st.integers(0, 320), max_size=6),
           max_bytes=st.integers(16, 256))
    def test_any_bytes_any_chunking_is_a_structured_outcome(
            self, blob, cuts, max_bytes):
        """Arbitrary bytes under arbitrary chunking yield ``None``, a
        ``(dict, bytes)`` pair or :class:`HandshakeReject` — never any
        other exception — and never buffer past ``max_bytes``."""
        parser = HelloParser(max_bytes=max_bytes)
        edges = sorted({0, len(blob), *(c for c in cuts if c < len(blob))})
        for lo, hi in zip(edges, edges[1:]):
            try:
                done = parser.feed(blob[lo:hi])
            except HandshakeReject:
                break
            finally:
                assert parser.pending_bytes <= max_bytes
            if done is not None:
                hello, leftover = done
                assert isinstance(hello, dict)
                assert isinstance(leftover, bytes)
                break

    @seed(20260928)
    @settings(max_examples=40, deadline=None, database=None)
    @given(hello=st.dictionaries(st.text(max_size=8),
                                 st.one_of(st.integers(0, 2**32),
                                           st.text(max_size=8)),
                                 max_size=4),
           heartbeats=st.integers(0, 2),
           trailing=st.binary(max_size=48))
    def test_split_point_never_changes_the_parse(self, hello, heartbeats,
                                                 trailing):
        """A valid hello frame followed by arbitrary trailing bytes
        parses to the same ``(hello, leftover)`` wherever TCP cuts the
        stream: the hello itself, then every byte after it, unread."""
        hb = encode_frame(FRAME_HEARTBEAT, 0, "hb", b"")
        blob = hb * heartbeats + _hello_frame(hello) + trailing
        for cut in range(len(blob) + 1):
            parser = HelloParser()
            done, unfed = parser.feed(blob[:cut]), blob[cut:]
            if done is None:
                done, unfed = parser.feed(unfed), b""
            got, leftover = done
            assert got == hello
            assert leftover + unfed == trailing


class TestEdgeRejects:
    """Over-the-wire: each failure class yields a structured reject
    and bumps ``handshake_rejects``."""

    def test_garbage_hello_gets_bad_hello_welcome(self, endpoint):
        with endpoint() as ep:
            link = _dial(ep)
            try:
                link.send_bytes(b"\xff" * 16)
                w = _read_welcome(link)
            finally:
                link.close()
            assert w["status"] == "bad-hello"
            assert w["error"] == "garbage"
            assert "retry_after_s" in w
            _await(lambda: ep.counter("handshake_rejects") >= 1,
                   what="handshake_rejects counter")
            assert ep.admitted() == 0

    def test_oversized_hello_gets_bad_hello_welcome(self, endpoint):
        with endpoint(max_hello_bytes=512) as ep:
            link = _dial(ep)
            try:
                link.send_bytes(_hello_frame(
                    {"op": "session", "session": "z" * 2048,
                     "program": "sum32"}))
                w = _read_welcome(link)
            finally:
                link.close()
            assert w["status"] == "bad-hello"
            assert w["error"] == "oversized"
            _await(lambda: ep.counter("handshake_rejects") >= 1,
                   what="handshake_rejects counter")

    def test_deeply_nested_hello_gets_bad_hello_welcome(self, endpoint):
        """A 3 KB hello whose ``session`` field nests 1,500 lists deep
        is a ``malformed`` reject, not a traceback out of the parser,
        and the edge admits a real session afterwards."""
        payload = b"d\x01" + encode("session") + b"l\x01" * 1500 + b"N"
        with endpoint(value=SERVER_VALUE) as ep:
            link = _dial(ep)
            try:
                link.send_bytes(encode_frame(FRAME_DATA, 1, HELLO, payload))
                w = _read_welcome(link)
            finally:
                link.close()
            assert w["status"] == "bad-hello"
            assert w["error"] == "malformed"
            _await(lambda: ep.counter("handshake_rejects") >= 1,
                   what="handshake_rejects counter")
            report = run_loadgen(ep.host, ep.port, "sum32", clients=1,
                                 server_value=SERVER_VALUE, max_attempts=1)
            assert report.ok == 1 and report.failed == 0

    def test_truncated_hello_counts_as_reject(self, endpoint):
        """Disconnecting mid-hello is a truncated handshake — counted,
        not raised."""
        with endpoint() as ep:
            link = _dial(ep)
            frame = _hello_frame(
                {"op": "session", "session": "cut", "program": "sum32"})
            link.send_bytes(frame[: len(frame) // 2])
            time.sleep(0.1)  # let the edge enter the hello state
            link.close()
            _await(lambda: ep.counter("handshake_rejects") >= 1,
                   what="handshake_rejects counter")
            assert ep.admitted() == 0

    def test_rejects_never_wedge_the_edge(self, endpoint):
        """A burst of malformed hellos leaves the server fully able to
        admit real sessions."""
        with endpoint(value=SERVER_VALUE) as ep:
            for payload in (b"\xff" * 8,
                            encode_frame(FRAME_DATA, 1, "nope", b""),
                            encode_frame(FRAME_ABORT, 0, "abort", b"")):
                link = _dial(ep)
                try:
                    link.send_bytes(payload)
                    _read_welcome(link)
                finally:
                    link.close()
            report = run_loadgen(ep.host, ep.port, "sum32", clients=2,
                                 server_value=SERVER_VALUE, max_attempts=1)
            assert report.ok == 2
            assert report.failed == 0 and report.busy == 0
            assert ep.counter("handshake_rejects") >= 3


class TestSlowLoris:
    def test_slow_loris_rejected_while_loadgen_completes(self, endpoint):
        """A client trickling its hello one byte at a time is rejected
        at the handshake deadline; concurrent well-behaved sessions
        are entirely unaffected."""
        with endpoint(value=SERVER_VALUE, workers=2,
                      handshake_timeout=1.0) as ep:
            frame = _hello_frame(
                {"op": "session", "session": "loris", "program": "sum32"})
            link = _dial(ep)
            stop = threading.Event()

            def trickle():
                try:
                    for i in range(len(frame)):
                        if stop.is_set():
                            return
                        link.send_bytes(frame[i:i + 1])
                        time.sleep(0.05)
                except (LinkClosed, OSError):
                    pass  # the edge hung up on us — expected

            t = threading.Thread(target=trickle, daemon=True)
            t0 = time.monotonic()
            t.start()
            try:
                # The loadgen runs *while* the loris trickles.
                report = run_loadgen(
                    ep.host, ep.port, "sum32", clients=3,
                    server_value=SERVER_VALUE, max_attempts=1)
                assert report.ok == 3
                assert report.busy == 0 and report.failed == 0
                assert report.verify_errors == []
                w = _read_welcome(link, timeout=10.0)
                elapsed = time.monotonic() - t0
            finally:
                stop.set()
                t.join(timeout=5.0)
                link.close()
            assert w["status"] == "handshake-timeout"
            assert elapsed < 8.0  # deadline fired, not the full trickle
            assert ep.counter("handshake_timeouts") >= 1
            assert ep.counter("handshake_rejects") >= 1


class TestTimersAndOverload:
    def test_idle_connection_closed_at_idle_timeout(self, endpoint):
        with endpoint(idle_timeout=0.3) as ep:
            link = _dial(ep)
            try:
                t0 = time.monotonic()
                w = _read_welcome(link, timeout=5.0)
                elapsed = time.monotonic() - t0
            finally:
                link.close()
            assert w["status"] == "idle-timeout"
            assert elapsed < 4.0
            _await(lambda: ep.counter("idle_timeouts") >= 1,
                   what="idle_timeouts counter")

    def test_overload_sheds_oldest_idle_first(self, endpoint):
        """At ``max_connections`` the oldest idle connection is shed
        (structured ``shed-idle``) to make room for the newcomer."""
        with endpoint(max_connections=2, idle_timeout=30.0) as ep:
            a, b = _dial(ep), _dial(ep)
            time.sleep(0.1)  # both registered as idle, a oldest
            c = _dial(ep)
            try:
                w = _read_welcome(a, timeout=5.0)
                assert w["status"] == "shed-idle"
                assert w["retry_after_s"] > 0
                # (The stats probe makes its own room the same way.)
                _await(lambda: ep.counter("idle_shed") >= 1,
                       what="idle_shed counter")
            finally:
                for link in (a, b, c):
                    link.close()

    def test_overload_rejects_when_nothing_sheddable(self, endpoint):
        """Connections mid-hello are not sheddable; with the table
        full of them a newcomer gets a structured ``overloaded``
        reject with backoff guidance."""
        with endpoint(max_connections=2, handshake_timeout=30.0,
                      idle_timeout=30.0) as ep:
            frame = _hello_frame(
                {"op": "session", "session": "part", "program": "sum32"})
            a, b = _dial(ep), _dial(ep)
            # One byte each: idle -> hello, now unsheddable.
            a.send_bytes(frame[:1])
            b.send_bytes(frame[:1])
            time.sleep(0.2)
            c = _dial(ep)
            try:
                w = _read_welcome(c, timeout=5.0)
                assert w["status"] == "overloaded"
                assert w["retry_after_s"] > 0
            finally:
                for link in (a, b, c):
                    link.close()
            # Read once the table has room for the stats probe.
            _await(lambda: ep.counter("rejected_overload") >= 1,
                   what="rejected_overload counter")


class TestAcceptedSocket:
    def test_accepted_socket_has_nodelay(self, endpoint):
        """What the loop writes is small and back to back (heartbeat,
        then welcome); with Nagle on, the second segment waits out the
        peer's delayed ACK.  asyncio does not set the option for a
        listener built with ``proto == 0``, so the edge does."""
        import socket

        with endpoint() as ep:
            link = _dial(ep)
            try:
                _await(lambda: ep.edge.connection_counts()["open"] == 1,
                       what="the connection to be accepted")
                (conn,) = list(ep.edge._conns)
                sock = conn.transport.get_extra_info("socket")
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0
            finally:
                link.close()


class TestDrainRace:
    def test_stalled_preadmission_connection_gets_draining_reject(self):
        """A client that connects and stalls before sending its hello
        must get a clean ``draining`` reject when ``request_shutdown``
        fires — not a hang until its socket times out."""
        srv = make_server(["sum32"], value=1, port=0).start()
        waiter = threading.Thread(target=srv.serve_forever, daemon=True)
        waiter.start()
        stalled = _dial(srv)
        frame = _hello_frame(
            {"op": "session", "session": "stall", "program": "sum32"})
        stalled.send_bytes(frame[:3])  # mid-hello, then silence
        time.sleep(0.1)
        try:
            srv.request_shutdown()
            t0 = time.monotonic()
            w = _read_welcome(stalled, timeout=5.0)
            assert w["status"] == "draining"
            assert time.monotonic() - t0 < 5.0
        finally:
            stalled.close()
            waiter.join(timeout=10.0)
            srv.shutdown()
        assert not waiter.is_alive()

    def test_connection_after_drain_gets_draining_reject(self):
        srv = make_server(["sum32"], value=1, port=0).start()
        srv._edge.begin_drain()
        try:
            link = connect_with_backoff(srv.host, srv.port, attempts=2)
        except (OSError, LinkClosed, LinkTimeout):
            return  # listener already closed: equally clean
        try:
            w = _read_welcome(link, timeout=5.0)
            assert w["status"] == "draining"
        except (LinkClosed, LinkTimeout):
            pass  # ditto — the race may close before the reject lands
        finally:
            link.close()
            srv.shutdown()


class TestStatsEcho:
    def test_edge_config_echoed_in_stats(self):
        """The new CLI knobs land in the server config and come back
        in the ``op: "stats"`` payload."""
        from repro.serve import fetch_stats

        with make_server(["sum32"], value=1, port=0,
                         handshake_timeout=3.5, idle_timeout=7.0,
                         replay_ttl=9.0, max_connections=123) as srv:
            stats = fetch_stats(srv.host, srv.port)
            assert stats["handshake_timeout"] == 3.5
            assert stats["idle_timeout"] == 7.0
            assert stats["replay_ttl"] == 9.0
            assert stats["max_connections"] == 123
            assert stats["replay_buffered"] == 0
            for counter in ("handshake_rejects", "handshake_timeouts",
                            "idle_timeouts", "idle_shed", "replay_hits",
                            "replay_misses", "rejected_overload"):
                assert stats[counter] == 0

    def test_cli_flags_reach_the_server_config(self):
        import argparse

        from repro.serve.cli import add_serve_parser

        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers()
        add_serve_parser(sub)
        args = parser.parse_args(
            ["serve", "--handshake-timeout", "2.5", "--idle-timeout",
             "11", "--replay-ttl", "44", "--max-connections", "77"])
        assert args.handshake_timeout == 2.5
        assert args.idle_timeout == 11.0
        assert args.replay_ttl == 44.0
        assert args.max_connections == 77
