"""The multi-session garbling server: multiplexing, admission control,
stats, drain and lifecycle semantics."""

import threading
import time

import pytest

from repro.net.session import SessionResult
from repro.serve import (
    ServeError,
    ServerBusy,
    fetch_stats,
    make_server,
    run_loadgen,
    run_registry_session,
)
from repro.serve.client import _hello_exchange

SERVER_VALUE = 5555


def _await(predicate, timeout=5.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


class TestMultiplexing:
    def test_concurrent_sessions_all_verified(self):
        """Six clients against three workers: every session completes,
        every result matches the local simulator, sessions sharing an
        operand are bit-identical."""
        with make_server(["sum32"], value=SERVER_VALUE, workers=3,
                         queue_depth=8, port=0) as srv:
            report = run_loadgen(
                srv.host, srv.port, "sum32", clients=6,
                server_value=SERVER_VALUE, max_attempts=1,
            )
            assert report.ok == 6
            assert report.busy == 0 and report.failed == 0
            assert report.verify_errors == []
            for o in report.outcomes:
                assert o.result_value == (SERVER_VALUE + o.value) & 0xFFFFFFFF
                assert o.reconnects == 0
            # The worker records completion just after the client sees
            # its result — allow the bookkeeping to land.
            _await(lambda: srv.stats.completed == 6, what="server bookkeeping")
            assert srv.stats.active == 0

    def test_multiple_programs_one_server(self):
        with make_server(["sum32", "compare32"], value=SERVER_VALUE,
                         workers=2, port=0) as srv:
            s = run_registry_session(srv.host, srv.port, "sum32", 1,
                                     max_attempts=1)
            c = run_registry_session(srv.host, srv.port, "compare32", 1,
                                     max_attempts=1)
            assert s.value == (SERVER_VALUE + 1) & 0xFFFFFFFF
            assert c.value == int(SERVER_VALUE < 1)

    def test_session_result_kept_server_side(self):
        with make_server(["sum32"], value=SERVER_VALUE, port=0) as srv:
            res = run_registry_session(srv.host, srv.port, "sum32", 77,
                                       session_id="kept", max_attempts=1)
            _await(lambda: srv.session_result("kept") is not None,
                   what="server-side result")
            server_res = srv.session_result("kept")
            assert isinstance(server_res, SessionResult)
            # Garbler and evaluator decode the same output bits.
            assert server_res.outputs == res.outputs
            assert server_res.stats.garbled_nonxor == res.stats.garbled_nonxor


class TestAdmissionControl:
    def test_busy_reject_when_pool_and_queue_full(self):
        """One worker, queue depth one: a third hello gets an immediate
        structured busy reject, not a hang."""
        with make_server(["sum32"], value=1, workers=1, queue_depth=1,
                         timeout=5.0, resume_window=0.2, max_attempts=1,
                         port=0) as srv:
            held = []
            try:
                # Session 0 occupies the worker (hello only — never
                # speaks the protocol, so the worker blocks waiting for
                # net-hello); session 1 fills the one queue slot.
                w, link = _hello_exchange(
                    srv.host, srv.port,
                    {"op": "session", "session": "hold-0",
                     "program": "sum32"}, timeout=2.0)
                assert w["status"] == "ok"
                held.append(link)
                _await(lambda: srv.stats.active == 1, what="worker pickup")
                w, link = _hello_exchange(
                    srv.host, srv.port,
                    {"op": "session", "session": "hold-1",
                     "program": "sum32"}, timeout=2.0)
                assert w["status"] == "ok"
                held.append(link)

                with pytest.raises(ServerBusy) as exc:
                    run_registry_session(srv.host, srv.port, "sum32", 3,
                                         max_attempts=1, timeout=2.0)
                assert exc.value.welcome["status"] == "busy"
                assert exc.value.welcome["queue_depth"] == 1
                assert srv.stats.rejected_busy == 1
            finally:
                for link in held:
                    link.close()

    def test_unknown_program_is_structured_error(self):
        with make_server(["sum32"], value=1, port=0) as srv:
            with pytest.raises(ServeError, match="unknown program"):
                run_registry_session(srv.host, srv.port, "compare32", 3,
                                     max_attempts=1, timeout=2.0)
            assert srv.stats.rejected_error == 1
            assert srv.stats.accepted == 0

    def test_finished_session_cannot_be_rejoined(self):
        """With replay disabled, a redial of a finished session is a
        structured 'already finished' reject (with replay on it would
        recover the parked result — covered in test_replay.py)."""
        with make_server(["sum32"], value=1, port=0, replay_ttl=0) as srv:
            run_registry_session(srv.host, srv.port, "sum32", 2,
                                 session_id="once", max_attempts=1)
            _await(lambda: srv.stats.completed == 1, what="server bookkeeping")
            with pytest.raises(ServeError, match="already finished"):
                run_registry_session(srv.host, srv.port, "sum32", 2,
                                     session_id="once", max_attempts=1,
                                     timeout=2.0)

    def test_session_registry_keeps_only_recent_finished_sessions(
            self, monkeypatch):
        """Finished sessions leave the registry oldest first; the ones
        still there answer a redial 'already finished' whatever the
        replay settings, and booking stays balanced."""
        from repro.serve import server

        monkeypatch.setattr(server, "FINISHED_SESSIONS_KEPT", 4)
        with make_server(["sum32"], value=1, port=0, pool="thread",
                         replay_ttl=0) as srv:
            for i in range(12):
                run_registry_session(srv.host, srv.port, "sum32", i,
                                     session_id=f"s{i}", max_attempts=1)
            _await(lambda: srv.stats.completed == 12,
                   what="server bookkeeping")
            assert srv.stats.accepted == 12
            assert sorted(srv._sessions) == ["s10", "s11", "s8", "s9"]
            assert srv.session_result("s11") is not None
            assert srv.session_result("s0") is None
            with pytest.raises(ServeError, match="already finished"):
                run_registry_session(srv.host, srv.port, "sum32", 2,
                                     session_id="s11", max_attempts=1,
                                     timeout=2.0)
            assert srv.stats.accepted == 12


class TestStats:
    def test_stats_probe_over_the_wire(self):
        with make_server(["sum32"], value=SERVER_VALUE, workers=2,
                         port=0) as srv:
            run_registry_session(srv.host, srv.port, "sum32", 9,
                                 session_id="probed", max_attempts=1)
            _await(lambda: srv.stats.completed == 1, what="server bookkeeping")
            stats = fetch_stats(srv.host, srv.port)
            assert stats["accepted"] == 1
            assert stats["completed"] == 1
            assert stats["failed"] == 0
            assert stats["active"] == 0
            assert stats["workers"] == 2
            assert stats["draining"] is False
            assert stats["programs"] == ["sum32"]
            (record,) = stats["sessions"]
            assert record["session"] == "probed"
            assert record["state"] == "done"
            assert record["garbled_nonxor"] > 0
            assert record["wall_ms"] >= 0
            assert record["reconnects"] == 0
            # The probe itself is counted (visible to the next probe).
            assert fetch_stats(srv.host, srv.port)["stats_probes"] >= 1

    def test_obs_counters_cover_the_session_flow(self):
        from repro.obs import Obs

        obs = Obs()
        with make_server(["sum32"], value=1, obs=obs, port=0) as srv:
            run_registry_session(srv.host, srv.port, "sum32", 4,
                                 max_attempts=1)
        counters = obs.counters()
        assert counters["serve.accepted"] == 1
        assert counters["serve.completed"] == 1
        assert counters["serve.gates"] > 0


class TestLifecycle:
    def test_graceful_drain_finishes_queued_sessions(self):
        """shutdown(drain=True) lets already-admitted sessions run to
        completion before the workers exit."""
        srv = make_server(["sum32"], value=SERVER_VALUE, workers=1,
                          queue_depth=4, port=0).start()
        results = {}

        def client(i):
            try:
                results[i] = run_registry_session(
                    srv.host, srv.port, "sum32", 100 + i,
                    session_id=f"drain-{i}", max_attempts=1)
            except BaseException as exc:  # surfaced via assertions below
                results[i] = exc

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(3)]
        for t in threads:
            t.start()
        _await(lambda: srv.stats.accepted == 3, what="3 admitted sessions")
        srv.shutdown(drain=True)
        for t in threads:
            t.join(timeout=10)
        assert srv.stats.completed == 3 and srv.stats.failed == 0
        for i in range(3):
            assert isinstance(results[i], SessionResult), results[i]
            assert results[i].value == (SERVER_VALUE + 100 + i) & 0xFFFFFFFF

    def test_hard_stop_books_what_it_discards(self):
        """shutdown(drain=False) fails the sessions still waiting for
        a worker through the same booking as any other outcome: they
        are counted, they leave a ring record, and their evaluators
        see EOF instead of a hang."""
        srv = make_server(["sum32"], value=SERVER_VALUE, workers=1,
                          queue_depth=4, timeout=0.5, resume_window=0.2,
                          max_attempts=1, port=0).start()
        links = {}
        try:
            # Hello-only sessions never speak the protocol: the first
            # holds the only worker, the other two wait behind it.
            for sid in ("hard-0", "hard-1", "hard-2"):
                w, links[sid] = _hello_exchange(
                    srv.host, srv.port,
                    {"op": "session", "session": sid, "program": "sum32"},
                    timeout=2.0)
                assert w["status"] == "ok"
                if sid == "hard-0":
                    _await(lambda: srv.stats.active == 1,
                           what="worker pickup")
            assert srv.stats_snapshot()["queued"] == 2
            srv.shutdown(drain=False)
            for sid in ("hard-1", "hard-2"):
                assert links[sid].recv_bytes(timeout=2.0) == b""
        finally:
            for link in links.values():
                link.close()
            srv.shutdown()
        c = srv.counters()
        assert c["accepted"] == 3 and c["active"] == 0
        assert (c["accepted"] + c["adopted"]
                == c["completed"] + c["failed"] + c["handed_off"])
        states = {r["session"]: r["state"]
                  for r in srv.stats.snapshot()["sessions"]}
        assert states["hard-1"] == states["hard-2"] == "failed"

    def test_max_sessions_requests_shutdown(self):
        """serve_forever exits on its own after max_sessions — the CI
        smoke job's termination mechanism."""
        srv = make_server(["sum32"], value=1, workers=2, max_sessions=2,
                          port=0).start()
        waiter = threading.Thread(target=srv.serve_forever, daemon=True)
        waiter.start()
        for i in range(2):
            run_registry_session(srv.host, srv.port, "sum32", i,
                                 max_attempts=1)
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert srv.stats.completed == 2

    def test_shutdown_is_idempotent_and_leaves_no_threads(self):
        before = threading.active_count()
        srv = make_server(["sum32"], value=1, port=0).start()
        run_registry_session(srv.host, srv.port, "sum32", 1, max_attempts=1)
        srv.shutdown()
        srv.shutdown()  # second call is a no-op
        _await(lambda: threading.active_count() <= before,
               what="server threads to exit")


class TestClientHandle:
    def test_one_handle_builds_each_circuit_at_most_once(self, monkeypatch):
        """A handle reuses one ``(net, cycles)`` per circuit name instead
        of rebuilding the netlist for every session."""
        import dataclasses

        import repro.net.cli as net_cli
        from repro.serve import ServeClient

        registry = net_cli._registry
        builds = []

        def counting_registry():
            entries = registry()
            build = entries["sum32"].build

            def counted():
                if threading.current_thread() is threading.main_thread():
                    builds.append(1)
                return build()

            entries["sum32"] = dataclasses.replace(entries["sum32"], build=counted)
            return entries

        with make_server(["sum32"], value=SERVER_VALUE, workers=1,
                         port=0) as srv:
            monkeypatch.setattr(net_cli, "_registry", counting_registry)
            client = ServeClient(srv.host, srv.port, max_attempts=1)
            values = [client.run("sum32", v).value for v in (1, 2, 3)]
        assert values == [(SERVER_VALUE + v) & 0xFFFFFFFF for v in (1, 2, 3)]
        assert len(builds) <= 1
