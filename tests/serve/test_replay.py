"""Result replay: a client that dies after the final frame redials
and recovers its result bit-identically.

Covers the :class:`~repro.serve.replay.ReplayBuffer` in isolation
(TTL, capacity, identity) and the full wire paths: redial of a
finished session, the ``op: "result"`` probe, recovery after the
client is killed between the last table batch and the output-decode
ack, expiry, identity denial — plus per-session keyed garbler inputs.
"""

import time

import pytest

from repro.gc.channel import ChannelClosed, ChannelError
from repro.net.links import Link, LinkClosed, LinkTimeout
from repro.serve import (
    GarbleServer,
    ServeError,
    make_server,
    recover_result,
    registry_keyed_program,
    run_registry_session,
)
from repro.net.tcp import connect_with_backoff
from repro.serve.handshake import HELLO, recv_control, send_control
from repro.serve.replay import DENIED, HIT, MISS, ReplayBuffer
from repro.serve.server import _ServeSession

SERVER_VALUE = 4242


def _await(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


class TestReplayBuffer:
    def _clocked(self, **kwargs):
        now = [0.0]
        buf = ReplayBuffer(clock=lambda: now[0], **kwargs)
        return buf, now

    def test_hit_returns_parked_payload_and_survives(self):
        buf, _ = self._clocked(ttl=10.0)
        buf.park("s1", None, {"value": 7})
        for _ in range(3):  # hits do not consume the entry
            status, entry = buf.fetch("s1", None)
            assert status == HIT
            assert entry.payload == {"value": 7}

    def test_miss_for_unknown_session(self):
        buf, _ = self._clocked(ttl=10.0)
        assert buf.fetch("nope", None) == (MISS, None)

    def test_ttl_expiry(self):
        buf, now = self._clocked(ttl=5.0)
        buf.park("s1", None, {"value": 1})
        now[0] = 4.9
        assert buf.fetch("s1", None)[0] == HIT
        now[0] = 5.1
        assert buf.fetch("s1", None) == (MISS, None)
        assert len(buf) == 0

    def test_capacity_evicts_oldest_first(self):
        buf, _ = self._clocked(ttl=100.0, capacity=2)
        buf.park("a", None, {})
        buf.park("b", None, {})
        buf.park("c", None, {})
        assert buf.fetch("a", None)[0] == MISS
        assert buf.fetch("b", None)[0] == HIT
        assert buf.fetch("c", None)[0] == HIT

    def test_identity_mismatch_is_denied_not_missed(self):
        buf, _ = self._clocked(ttl=10.0)
        buf.park("s1", "alice", {"value": 9})
        assert buf.fetch("s1", "alice")[0] == HIT
        assert buf.fetch("s1", "eve")[0] == DENIED
        assert buf.fetch("s1", None)[0] == DENIED

    def test_anonymous_matches_anonymous_only(self):
        buf, _ = self._clocked(ttl=10.0)
        buf.park("s1", None, {})
        assert buf.fetch("s1", None)[0] == HIT
        assert buf.fetch("s1", "alice")[0] == DENIED

    def test_ttl_zero_disables(self):
        buf, _ = self._clocked(ttl=0.0)
        assert not buf.enabled
        buf.park("s1", None, {"value": 1})
        assert len(buf) == 0
        assert buf.fetch("s1", None) == (MISS, None)

    def test_repark_overwrites(self):
        buf, _ = self._clocked(ttl=10.0)
        buf.park("s1", None, {"value": 1})
        buf.park("s1", None, {"value": 2})
        assert buf.fetch("s1", None)[1].payload == {"value": 2}
        assert len(buf) == 1


class TestRedialRecovery:
    def test_redial_of_finished_session_is_bit_identical(self):
        with make_server(["sum32"], value=SERVER_VALUE, port=0) as srv:
            first = run_registry_session(
                srv.host, srv.port, "sum32", 17,
                session_id="fin", max_attempts=1)
            _await(lambda: srv.stats.completed == 1,
                   what="server bookkeeping")
            again = run_registry_session(
                srv.host, srv.port, "sum32", 17,
                session_id="fin", max_attempts=1, timeout=5.0)
            assert again.replayed is True
            assert first.replayed is False
            assert again.outputs == first.outputs
            assert again.value == first.value
            assert again.stats.garbled_nonxor == first.stats.garbled_nonxor
            assert srv.stats.replay_hits == 1

    def test_result_probe_recovers_without_rejoining(self):
        with make_server(["sum32"], value=SERVER_VALUE, port=0) as srv:
            first = run_registry_session(
                srv.host, srv.port, "sum32", 5,
                session_id="probe-me", max_attempts=1)
            _await(lambda: srv.stats.completed == 1,
                   what="server bookkeeping")
            res = recover_result(srv.host, srv.port, "probe-me")
            assert res.replayed is True
            assert res.outputs == first.outputs
            assert res.value == (SERVER_VALUE + 5) & 0xFFFFFFFF
            # The probe never re-admitted anything.
            assert srv.stats.accepted == 1

    def test_client_killed_before_decode_ack_recovers(self):
        """The motivating failure: the client dies between the last
        table batch and acking the output decode.  The garbler has
        already decoded — the result is parked, and a redial recovers
        it bit-identically."""

        class _DieBeforeBye(Link):
            def __init__(self, inner):
                self._inner = inner

            def send_bytes(self, data):
                if b"bye" in data:
                    self._inner.close()
                    raise LinkClosed("killed before acking the result")
                self._inner.send_bytes(data)

            def recv_bytes(self, timeout=None):
                return self._inner.recv_bytes(timeout=timeout)

            def close(self):
                self._inner.close()

        with make_server(["sum32"], value=SERVER_VALUE, workers=1,
                         timeout=2.0, resume_window=0.3, max_attempts=1,
                         port=0) as srv:
            with pytest.raises((ChannelError, ChannelClosed, LinkClosed,
                                LinkTimeout)):
                run_registry_session(
                    srv.host, srv.port, "sum32", 23,
                    session_id="killed", max_attempts=1, timeout=5.0,
                    wrap=lambda attempt, link: _DieBeforeBye(link))
            # Server side: recv("bye") fails, the session is failed —
            # but the decoded outputs were stashed and parked.
            _await(lambda: srv.stats.failed == 1, what="session failure")
            recovered = recover_result(srv.host, srv.port, "killed",
                                       attempts=8)
            control = run_registry_session(
                srv.host, srv.port, "sum32", 23,
                session_id="control", max_attempts=1)
            assert recovered.replayed is True
            assert recovered.outputs == control.outputs
            assert recovered.value == (SERVER_VALUE + 23) & 0xFFFFFFFF

    def test_expired_replay_is_structured_unknown_session(self):
        with make_server(["sum32"], value=SERVER_VALUE, port=0,
                         replay_ttl=0.2) as srv:
            run_registry_session(srv.host, srv.port, "sum32", 2,
                                 session_id="expired", max_attempts=1)
            _await(lambda: srv.stats.completed == 1,
                   what="server bookkeeping")
            time.sleep(0.4)
            with pytest.raises(ServeError, match="already finished"):
                run_registry_session(srv.host, srv.port, "sum32", 2,
                                     session_id="expired", max_attempts=1,
                                     timeout=2.0)
            with pytest.raises(ServeError):
                recover_result(srv.host, srv.port, "expired", attempts=1)
            assert srv.stats.replay_misses >= 2

    def test_identity_mismatch_denied_over_the_wire(self):
        with make_server(["sum32"], value=SERVER_VALUE, port=0) as srv:
            run_registry_session(srv.host, srv.port, "sum32", 3,
                                 session_id="mine", client_id="alice",
                                 max_attempts=1)
            _await(lambda: srv.stats.completed == 1,
                   what="server bookkeeping")
            with pytest.raises(ServeError, match="identity"):
                recover_result(srv.host, srv.port, "mine",
                               client_id="eve", attempts=1)
            with pytest.raises(ServeError, match="identity"):
                run_registry_session(srv.host, srv.port, "sum32", 3,
                                     session_id="mine", client_id="eve",
                                     max_attempts=1, timeout=2.0)
            # The rightful owner still recovers it.
            res = recover_result(srv.host, srv.port, "mine",
                                 client_id="alice")
            assert res.value == (SERVER_VALUE + 3) & 0xFFFFFFFF

    def test_probe_on_running_session_reports_pending(self):
        from repro.serve import ResultPending

        with make_server(["sum32"], value=1, workers=1, port=0) as srv:
            from repro.serve.client import _hello_exchange

            # Hold the worker with a hello-only session, then probe it.
            w, link = _hello_exchange(
                srv.host, srv.port,
                {"op": "session", "session": "held", "program": "sum32"},
                timeout=2.0)
            assert w["status"] == "ok"
            try:
                _await(lambda: srv.stats.active == 1, what="worker pickup")
                with pytest.raises(ResultPending) as exc:
                    recover_result(srv.host, srv.port, "held", attempts=2,
                                   timeout=2.0)
                assert exc.value.welcome["status"] == "pending"
            finally:
                link.close()


class TestAnswerTable:
    """Every hello that names a session is answered from one table in
    ``server.py``: the state this shard holds the session in x the
    hello kind (a session (re)dial, an ``op: "result"`` probe).  The
    states are planted in the registry rather than reached by running
    sessions, so each cell is one hello exchange."""

    PARKED = {"outputs": [1, 0], "value": 1, "garbled_nonxor": 31,
              "tables_sent": 31}

    @pytest.fixture(scope="class")
    def srv(self):
        with make_server(["sum32"], value=SERVER_VALUE, workers=1,
                         pool="thread", precompute=False, timeout=0.5,
                         resume_window=0.2, max_attempts=1, port=0) as srv:
            yield srv

    @staticmethod
    def _ask(srv, hello: dict) -> dict:
        link = connect_with_backoff(srv.host, srv.port, attempts=2)
        try:
            send_control(link, HELLO, hello)
            _tag, welcome, _leftover = recv_control(link, timeout=5.0)
        finally:
            link.close()
        return welcome

    @pytest.mark.parametrize("probe", (False, True),
                             ids=("redial", "probe"))
    @pytest.mark.parametrize("case,state,parked,redial,probed", [
        ("unknown", None, False, "ok", "unknown-session"),
        ("queued", "queued", False, "ok", "pending"),
        ("active", "active", False, "ok", "pending"),
        ("done", "done", True, "result", "result"),
        ("failed-parked", "failed", True, "result", "result"),
        ("failed-bare", "failed", False, "unknown-session",
         "unknown-session"),
        ("handed-off", "handed-off", False, "moved", "moved"),
    ])
    def test_state_by_hello_kind(self, srv, case, state, parked, redial,
                                 probed, probe):
        sid = f"{case}-{'probe' if probe else 'redial'}"
        sess = None
        if state is not None:
            waiting = state == "queued"
            sess = srv._sessions[sid] = _ServeSession(
                id=sid, program="sum32", prog=srv.programs["sum32"],
                state=state, client="alice",
                owner=None if waiting else 0,
                links=[] if waiting else None,
                peer=("127.0.0.1", 9) if state == "handed-off" else None)
        if parked:
            srv._replay.park(sid, "alice", self.PARKED)
        hello = ({"op": "result", "session": sid, "client": "alice"}
                 if probe else
                 {"op": "session", "session": sid, "program": "sum32",
                  "client": "alice"})
        expected = probed if probe else redial
        accepted = srv.stats.accepted

        w = self._ask(srv, hello)
        assert w["status"] == expected, w
        if expected == "ok":
            # A known id resumes; an unknown one is a fresh admission.
            assert w["resumed"] is (state is not None)
        if expected == "result":
            assert w["outputs"] == self.PARKED["outputs"]
        if expected == "moved":
            assert w["peer"] == ["127.0.0.1", 9]
        fresh = state is None and not probe  # counted after the welcome
        _await(lambda: srv.stats.accepted == accepted + fresh,
               what="admission count")
        if state is not None and not probe:
            other = self._ask(srv, dict(hello, program="compare32"))
            assert other["status"] == "error" and "bound to" in other["reason"]
        if parked:
            # Identity mismatch is a denial, whichever way it is asked.
            denied = self._ask(srv, dict(hello, client="eve"))
            assert denied["status"] == "error"
            assert "identity" in denied["reason"]
        for link, _leftover in (sess and sess.links) or ():
            link.close()  # the redial the planted session still holds


class TestKeyedGarblerInputs:
    def _server(self, **kwargs):
        programs = {"sum32": registry_keyed_program(
            "sum32", {"low": 100, "high": 900}, value=SERVER_VALUE)}
        return GarbleServer(programs, port=0, workers=2, **kwargs)

    def test_hello_selects_garbler_operand_by_key(self):
        with self._server() as srv:
            low = run_registry_session(srv.host, srv.port, "sum32", 7,
                                       garbler_key="low", max_attempts=1)
            high = run_registry_session(srv.host, srv.port, "sum32", 7,
                                        garbler_key="high", max_attempts=1)
            plain = run_registry_session(srv.host, srv.port, "sum32", 7,
                                         max_attempts=1)
            assert low.value == (100 + 7) & 0xFFFFFFFF
            assert high.value == (900 + 7) & 0xFFFFFFFF
            assert plain.value == (SERVER_VALUE + 7) & 0xFFFFFFFF

    def test_unknown_key_is_structured_error(self):
        with self._server() as srv:
            with pytest.raises(ServeError, match="unknown garbler key"):
                run_registry_session(srv.host, srv.port, "sum32", 7,
                                     garbler_key="nope", max_attempts=1,
                                     timeout=2.0)
            assert srv.stats.rejected_error == 1
            assert srv.stats.accepted == 0

    def test_key_on_unkeyed_program_is_structured_error(self):
        with make_server(["sum32"], value=1, port=0) as srv:
            with pytest.raises(ServeError, match="unknown garbler key"):
                run_registry_session(srv.host, srv.port, "sum32", 7,
                                     garbler_key="low", max_attempts=1,
                                     timeout=2.0)

    def test_keyed_session_replays_too(self):
        with self._server() as srv:
            first = run_registry_session(srv.host, srv.port, "sum32", 9,
                                         session_id="keyed",
                                         garbler_key="high",
                                         max_attempts=1)
            _await(lambda: srv.stats.completed == 1,
                   what="server bookkeeping")
            again = recover_result(srv.host, srv.port, "keyed")
            assert again.outputs == first.outputs
            assert again.value == (900 + 9) & 0xFFFFFFFF
